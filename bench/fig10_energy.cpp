// Figure 10: normalized energy consumption of the baselines and Aurora.
//
// Paper reference values (average energy reduction per baseline):
//   HyGCN 89 %, AWB-GCN 77 %, GCNAX 42 %, ReGNN 69 %, FlowGNN 71 %;
//   reconfiguration energy < 3 % of Aurora's total.
//
// Flags: --scale=<f>, --paper-scale, --hidden=<d>, --seed=<s>.
#include <cstdio>

#include "bench_util.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace aurora;
  const auto options = bench::parse_figure_options(argc, argv);
  const auto rows = bench::run_comparison(options);
  bench::print_normalized_figure(
      "Figure 10 — normalized energy consumption (2-layer GCN)", rows,
      [](const core::RunMetrics& m) { return m.energy.total_pj(); });

  std::printf("Aurora reconfiguration energy share per dataset:\n");
  for (const auto& row : rows) {
    const double share =
        row.aurora.energy.reconfig_pj / row.aurora.energy.total_pj();
    std::printf("  %-9s %.3f %%  (paper: < 3 %%)\n",
                graph::dataset_name(row.dataset), 100.0 * share);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return aurora::guarded_main(argc, argv, run);
}
