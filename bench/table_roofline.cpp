// Roofline classification of the benchmark grid: arithmetic intensity,
// achieved throughput and the binding ceiling per dataset — showing where
// each workload sits on the chip's roofline and why the paper's gains come
// mostly from traffic reduction rather than raw FLOPs.
//
// Flags: --scale=<f>, --hidden=<d>, --seed=<s>.
#include <cstdio>

#include "bench_util.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/roofline.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace aurora;
  const auto options = bench::parse_figure_options(argc, argv);
  const core::AuroraConfig cfg = bench::figure_config(options);
  core::AuroraAccelerator accel(cfg);

  std::printf("Roofline classification — 2-layer GCN, %ux%u chip "
              "(peak %.0f ops/cycle, DRAM %.1f B/cycle)\n\n",
              cfg.array_dim, cfg.array_dim,
              static_cast<double>(cfg.num_pes()) * cfg.flops_per_pe,
              cfg.dram.peak_bytes_per_cycle());

  AsciiTable table({"dataset", "AI (ops/B)", "achieved ops/cyc", "roof",
                    "bound", "efficiency"});
  for (graph::DatasetId id : graph::kAllDatasets) {
    const double scale =
        options.scale > 0.0 ? options.scale : bench::default_scale(id);
    const graph::Dataset ds = graph::make_dataset(id, scale, options.seed);
    const auto m = accel.run(
        ds, core::GnnJob::two_layer(gnn::GnnModel::kGcn, ds.spec,
                                    options.hidden_dim));
    const auto r = core::analyze_roofline(m, cfg);
    table.add_row({graph::dataset_name(id),
                   to_fixed(r.arithmetic_intensity, 2),
                   to_fixed(r.achieved_ops_per_cycle, 1),
                   to_fixed(std::min(r.peak_ops_per_cycle,
                                     r.dram_ceiling_ops_per_cycle),
                            1),
                   core::bound_name(r.bound),
                   to_fixed(100.0 * r.efficiency, 1) + " %"});
  }
  table.print();
  std::printf(
      "\nGNN inference lives far left on the roofline (low arithmetic\n"
      "intensity): every win in Figs 7-10 is a traffic win, not a FLOP win.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return aurora::guarded_main(argc, argv, run);
}
