// Quickstart: simulate one GCN layer on the Cora dataset and print what the
// accelerator decided and measured.
//
//   ./examples/quickstart [--scale=0.1] [--model=GCN] [--cycle|--analytic]
#include <cstdio>
#include <string>

#include "common/cli.hpp"
#include "common/strings.hpp"
#include "core/aurora.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace aurora;
  const CliArgs args(argc, argv, {"scale", "analytic"});

  // 1. A dataset. Datasets are synthesised deterministically to match the
  //    published statistics of the real graphs (see DESIGN.md §1).
  const double scale = args.get_double("scale", 0.1, 1e-6, 100.0);
  const graph::Dataset dataset =
      graph::make_dataset(graph::DatasetId::kCora, scale);
  std::printf("dataset: %s (scale %.3g): %u vertices, %llu directed edges, "
              "max degree %llu\n",
              dataset.spec.name, scale, dataset.num_vertices(),
              static_cast<unsigned long long>(dataset.num_edges()),
              static_cast<unsigned long long>(
                  dataset.degree_stats.max_degree));

  // 2. An accelerator. bench() is a 16x16 array the cycle-accurate engine
  //    handles comfortably; paper() is the 32x32 chip of the paper.
  core::AuroraConfig config = core::AuroraConfig::bench();
  if (args.get_bool("analytic", false)) {
    config.mode = core::SimMode::kAnalytic;
  }
  core::AuroraAccelerator accelerator(config);

  // 3. Run one hidden GCN layer (64 -> 16 features).
  const gnn::LayerConfig layer{64, 16};
  const core::RunMetrics m =
      accelerator.run_layer(dataset, gnn::GnnModel::kGcn, layer,
                            /*layer_index=*/1);

  // 4. Inspect the decisions and the measurements.
  std::printf("\npartition (Algorithm 2): %u PEs -> sub-accelerator A, "
              "%u PEs -> sub-accelerator B\n",
              m.partition_a, m.partition_b);
  std::printf("subgraphs (tiles):        %u\n", m.num_subgraphs);
  std::printf("reconfigurations:         %llu (%llu switch writes)\n",
              static_cast<unsigned long long>(m.reconfigurations),
              static_cast<unsigned long long>(m.switch_writes));
  std::printf("\nexecution time:           %llu cycles (%.2f us at %.0f MHz)\n",
              static_cast<unsigned long long>(m.total_cycles),
              1e6 * m.total_seconds(config.frequency_mhz),
              config.frequency_mhz);
  std::printf("  on-chip communication:  %llu cycles (avg %.2f hops/message)\n",
              static_cast<unsigned long long>(m.onchip_comm_cycles),
              m.avg_hops);
  std::printf("  DRAM time:              %llu cycles (%s moved)\n",
              static_cast<unsigned long long>(m.dram_cycles),
              human_bytes(m.dram_bytes).c_str());
  std::printf("energy:                   %.3f mJ (DRAM %.0f%%, compute %.0f%%, "
              "NoC %.0f%%)\n",
              m.energy.total_mj(),
              100.0 * m.energy.dram_pj / m.energy.total_pj(),
              100.0 * m.energy.compute_pj / m.energy.total_pj(),
              100.0 * m.energy.noc_pj / m.energy.total_pj());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return aurora::guarded_main(argc, argv, run);
}
