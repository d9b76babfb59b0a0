// Figure 8: on-chip communication latency of the baselines and Aurora.
//
// Paper reference values (average on-chip latency reduction per dataset):
//   Cora 75 %, Citeseer 87 %, Pubmed 50 %, Nell 68 %, Reddit 64 %.
//
// Flags: --scale=<f>, --paper-scale, --hidden=<d>, --seed=<s>.
#include "bench_util.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace aurora;
  const auto options = bench::parse_figure_options(argc, argv);
  const auto rows = bench::run_comparison(options);
  bench::print_normalized_figure(
      "Figure 8 — on-chip communication latency (2-layer GCN)", rows,
      [](const core::RunMetrics& m) {
        return static_cast<double>(m.onchip_comm_cycles);
      });
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return aurora::guarded_main(argc, argv, run);
}
