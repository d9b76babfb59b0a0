// Precision ablation: the paper evaluates everything in double precision
// "to provide a fair comparison"; this sweep shows what single precision
// buys on the same workloads (traffic, time and energy all scale with the
// element width).
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

  std::printf("Precision ablation — fp64 (paper setting) vs fp32 (2-layer GCN)\n\n");
  AsciiTable table({"dataset", "fp64 cycles", "fp32 cycles", "speedup",
                    "fp64 DRAM", "fp32 DRAM", "energy ratio"});
  for (graph::DatasetId id : graph::kAllDatasets) {
    const double scale =
        options.scale > 0.0 ? options.scale : bench::default_scale(id);
    const graph::Dataset ds = graph::make_dataset(id, scale, options.seed);
    const auto job = core::GnnJob::two_layer(gnn::GnnModel::kGcn, ds.spec,
                                             options.hidden_dim);

    core::AuroraConfig cfg = bench::figure_config(options);
    core::AuroraAccelerator fp64(cfg);
    cfg.element_bytes = 4;
    core::AuroraAccelerator fp32(cfg);

    const auto m64 = fp64.run(ds, job);
    const auto m32 = fp32.run(ds, job);
    table.add_row(
        {graph::dataset_name(id), std::to_string(m64.total_cycles),
         std::to_string(m32.total_cycles),
         to_fixed(static_cast<double>(m64.total_cycles) /
                      static_cast<double>(m32.total_cycles),
                  2) + "x",
         human_bytes(m64.dram_bytes), human_bytes(m32.dram_bytes),
         to_fixed(m64.energy.total_pj() / m32.energy.total_pj(), 2) + "x"});
  }
  table.print();
  std::printf(
      "\nHalving the element width roughly halves feature traffic; time\n"
      "follows wherever the run is DRAM- or NoC-bound.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return aurora::guarded_main(argc, argv, run);
}
