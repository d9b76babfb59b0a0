// Design-space exploration: PE-array dimension sweep. Shows how execution
// time, energy and area trade off as the chip scales from 8x8 to 64x64 at a
// fixed workload — and where Aurora's reconfiguration cost (2K-1) sits in
// that picture.
//
// Flags: --scale=<f>, --hidden=<d>, --seed=<s>.
#include <cstdio>

#include "bench_util.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "energy/area_model.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace aurora;
  const auto options = bench::parse_figure_options(argc, argv);
  const graph::Dataset ds = graph::make_dataset(
      graph::DatasetId::kPubmed,
      options.scale > 0.0 ? options.scale : 1.0, options.seed);
  std::printf("Array-size sweep — 2-layer GCN on %s (%u vertices)\n\n",
              ds.spec.name, ds.num_vertices());

  AsciiTable table({"array", "cycles", "speedup vs 8x8", "energy (mJ)",
                    "area (mm^2)", "reconfig (cyc)", "perf/area"});
  double base_cycles = 0.0;
  double base_perf_per_area = 0.0;
  for (std::uint32_t k : {8u, 16u, 32u, 64u}) {
    core::AuroraConfig cfg = core::AuroraConfig::paper();
    cfg.array_dim = k;
    cfg.noc.k = k;
    core::AuroraAccelerator accel(cfg);
    const auto m = accel.run(
        ds, core::GnnJob::two_layer(gnn::GnnModel::kGcn, ds.spec,
                                    options.hidden_dim));

    energy::AreaParams ap;
    ap.array_dim = k;
    const double area = energy::compute_area(ap).chip_total_mm2;
    const double cycles = static_cast<double>(m.total_cycles);
    const double perf_per_area = 1.0 / (cycles * area);
    if (base_cycles == 0.0) {
      base_cycles = cycles;
      base_perf_per_area = perf_per_area;
    }
    table.add_row({std::to_string(k) + "x" + std::to_string(k),
                   std::to_string(m.total_cycles),
                   to_fixed(base_cycles / cycles, 2) + "x",
                   to_fixed(m.energy.total_mj(), 3), to_fixed(area, 0),
                   std::to_string(cfg.reconfiguration_cycles()),
                   to_fixed(perf_per_area / base_perf_per_area, 2) + "x"});
  }
  table.print();
  std::printf(
      "\nOnce the run is DRAM-bound, more PEs stop helping; perf/area then\n"
      "favors the smaller arrays. Reconfiguration latency (2K-1) stays\n"
      "negligible at every size.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return aurora::guarded_main(argc, argv, run);
}
