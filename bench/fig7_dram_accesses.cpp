// Figure 7: normalized DRAM accesses of the five baseline accelerators and
// Aurora, per dataset, normalized to Aurora.
//
// Paper reference values (average DRAM-access reduction per dataset):
//   Cora 86 %, Citeseer 60 %, Pubmed 15 %, Nell 57 %, Reddit 65 %.
//
// Flags: --scale=<f> (global dataset scale), --paper-scale (32x32 array),
//        --hidden=<d>, --seed=<s>.
#include "bench_util.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace aurora;
  const auto options = bench::parse_figure_options(argc, argv);
  const auto rows = bench::run_comparison(options);
  bench::print_normalized_figure(
      "Figure 7 — normalized DRAM access volume (2-layer GCN)", rows,
      [](const core::RunMetrics& m) { return static_cast<double>(m.dram_bytes); });
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return aurora::guarded_main(argc, argv, run);
}
