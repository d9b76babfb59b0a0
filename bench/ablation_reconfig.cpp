// Reconfiguration-cost ablation (paper Sec VI-D/VI-E): latency 2K-1 cycles
// (63 for K = 32), heuristics ~100 cycles (both overlapped with compute),
// and reconfiguration energy < 3 % of total.
//
// Flags: --scale=<f>, --hidden=<d>, --seed=<s>.
#include <cstdio>

#include "bench_util.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace aurora;
  const auto options = bench::parse_figure_options(argc, argv);

  std::printf("Reconfiguration overhead\n\n");
  std::printf("latency model (2K-1 cycles per reconfiguration):\n");
  AsciiTable lat({"array", "latency (cycles)", "heuristics (cycles)"});
  for (std::uint32_t k : {8u, 16u, 32u, 64u}) {
    core::AuroraConfig cfg;
    cfg.array_dim = k;
    cfg.noc.k = k;
    lat.add_row({std::to_string(k) + "x" + std::to_string(k),
                 std::to_string(cfg.reconfiguration_cycles()),
                 std::to_string(core::AuroraConfig::kHeuristicCycles)});
  }
  lat.print();
  std::printf("paper reference: 63 cycles for the 32x32 array, ~100 cycles "
              "for mapping/partition, all overlapped with compute.\n\n");

  std::printf("per-dataset reconfiguration accounting (2-layer GCN):\n");
  AsciiTable table({"dataset", "reconfigs", "switch writes",
                    "exposed cycles", "share of time", "share of energy"});
  core::AuroraConfig cfg = bench::figure_config(options);
  core::AuroraAccelerator accel(cfg);
  for (graph::DatasetId id : graph::kAllDatasets) {
    const double scale =
        options.scale > 0.0 ? options.scale : bench::default_scale(id);
    const graph::Dataset ds = graph::make_dataset(id, scale, options.seed);
    const auto job = core::GnnJob::two_layer(gnn::GnnModel::kGcn, ds.spec,
                                             options.hidden_dim);
    const auto m = accel.run(ds, job);
    table.add_row(
        {graph::dataset_name(id), std::to_string(m.reconfigurations),
         std::to_string(m.switch_writes),
         std::to_string(m.reconfig_cycles),
         to_fixed(100.0 * static_cast<double>(m.reconfig_cycles) /
                      static_cast<double>(m.total_cycles),
                  2) + " %",
         to_fixed(100.0 * m.energy.reconfig_pj / m.energy.total_pj(), 3) +
             " %"});
  }
  table.print();
  std::printf("\npaper reference: reconfiguration energy < 3 %% of total.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return aurora::guarded_main(argc, argv, run);
}
