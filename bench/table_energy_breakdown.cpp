// Energy breakdown of Aurora's runs by component (the paper's Sec VI-E
// claim set: DRAM and on-chip communication dominate, reconfiguration is
// negligible). One row per dataset, shares of the total.
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
  core::AuroraAccelerator accel(bench::figure_config(options));

  std::printf("Aurora energy breakdown by component (2-layer GCN)\n\n");
  AsciiTable table({"dataset", "total (mJ)", "DRAM", "SRAM", "compute",
                    "NoC", "leakage", "reconfig"});
  for (graph::DatasetId id : graph::kAllDatasets) {
    const double scale =
        options.scale > 0.0 ? options.scale : bench::default_scale(id);
    const graph::Dataset ds = graph::make_dataset(id, scale, options.seed);
    const auto m = accel.run(
        ds, core::GnnJob::two_layer(gnn::GnnModel::kGcn, ds.spec,
                                    options.hidden_dim));
    const auto& e = m.energy;
    auto share = [&](double pj) {
      return to_fixed(100.0 * pj / e.total_pj(), 1) + " %";
    };
    table.add_row({graph::dataset_name(id), to_fixed(e.total_mj(), 3),
                   share(e.dram_pj), share(e.sram_pj), share(e.compute_pj),
                   share(e.noc_pj), share(e.leakage_pj),
                   share(e.reconfig_pj)});
  }
  table.print();
  std::printf("\npaper reference: savings driven by reduced DRAM accesses "
              "and on-chip\ncommunication; reconfiguration < 3 %% "
              "(Sec VI-E).\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return aurora::guarded_main(argc, argv, run);
}
