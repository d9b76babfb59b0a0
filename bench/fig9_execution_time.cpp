// Figure 9: normalized execution time per layer of the baselines and Aurora.
//
// Paper reference values (average execution-time reduction per baseline):
//   HyGCN 85 % (5.0-37.0x), AWB-GCN 66 % (1.6-3.0x), GCNAX 47 % (1.3-1.9x),
//   ReGNN 28 % (1.1-2.4x), FlowGNN 38 % (1.1-1.7x). Reddit shows the
//   smallest relative gain.
//
// Flags: --scale=<f>, --paper-scale, --hidden=<d>, --seed=<s>.
#include <cstdio>

#include "bench_util.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace aurora;
  const auto options = bench::parse_figure_options(argc, argv);
  const auto rows = bench::run_comparison(options);
  bench::print_normalized_figure(
      "Figure 9 — normalized execution time (2-layer GCN)", rows,
      [](const core::RunMetrics& m) {
        return static_cast<double>(m.total_cycles);
      });

  // Per-layer breakdown (the paper reports "each layer"): layer 0 reads the
  // sparse input features, layer 1 the dense hidden features.
  std::printf("Aurora per-layer breakdown:\n");
  AsciiTable per_layer({"dataset", "L0 cycles", "L1 cycles", "L0 DRAM",
                        "L1 DRAM", "L0 a:b", "L1 a:b"});
  core::AuroraAccelerator accel(bench::figure_config(options));
  for (graph::DatasetId id : graph::kAllDatasets) {
    const double scale =
        options.scale > 0.0 ? options.scale : bench::default_scale(id);
    const graph::Dataset ds = graph::make_dataset(id, scale, options.seed);
    const auto job = core::GnnJob::two_layer(gnn::GnnModel::kGcn, ds.spec,
                                             options.hidden_dim);
    const auto l0 = accel.run_layer(ds, job.model, job.layers[0], 0);
    const auto l1 = accel.run_layer(ds, job.model, job.layers[1], 1);
    per_layer.add_row(
        {graph::dataset_name(id), std::to_string(l0.total_cycles),
         std::to_string(l1.total_cycles), human_bytes(l0.dram_bytes),
         human_bytes(l1.dram_bytes),
         std::to_string(l0.partition_a) + ":" + std::to_string(l0.partition_b),
         std::to_string(l1.partition_a) + ":" +
             std::to_string(l1.partition_b)});
  }
  per_layer.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return aurora::guarded_main(argc, argv, run);
}
