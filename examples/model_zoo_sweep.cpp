// Versatility demo: run every model in the zoo — C-GNNs, A-GNNs and
// MP-GNNs — through the same unified accelerator, showing how the adaptive
// workflow generator, partition algorithm and sub-accelerator formation
// adapt per model (the paper's core claim).
//
//   ./examples/model_zoo_sweep [--scale=0.1] [--hidden=32]
#include <cstdio>

#include "common/cli.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/aurora.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace aurora;
  const CliArgs args(argc, argv, {"scale", "hidden"});
  const double scale = args.get_double("scale", 0.1, 1e-6, 100.0);
  const auto hidden = args.get_uint("hidden", 32, 1);

  const graph::Dataset dataset =
      graph::make_dataset(graph::DatasetId::kCora, scale);
  std::printf("running all %zu GNN models on %s (scale %.3g), layer %u -> %u\n\n",
              gnn::kAllModels.size(), dataset.spec.name, scale, hidden,
              hidden / 2);

  core::AuroraConfig config = core::AuroraConfig::bench();
  core::AuroraAccelerator accelerator(config);

  AsciiTable table({"model", "category", "phases", "a:b split", "cycles",
                    "comm cycles", "energy (uJ)"});
  for (gnn::GnnModel model : gnn::kAllModels) {
    const gnn::LayerConfig layer{hidden, hidden / 2};
    const auto wf = gnn::generate_workflow(model, layer,
                                           dataset.num_vertices(),
                                           dataset.num_edges());
    std::string phases;
    if (wf.needs_edge_update()) phases += "EU+";
    phases += "AGG";
    if (wf.needs_vertex_update()) phases += "+VU";
    if (wf.update_first) phases += " (update-first)";

    const auto m = accelerator.run_layer(dataset, model, layer, 1);
    table.add_row({gnn::model_name(model),
                   gnn::category_name(gnn::model_category(model)), phases,
                   std::to_string(m.partition_a) + ":" +
                       std::to_string(m.partition_b),
                   std::to_string(m.total_cycles),
                   std::to_string(m.onchip_comm_cycles),
                   to_fixed(m.energy.total_pj() * 1e-6, 1)});
  }
  table.print();
  std::printf(
      "\nNote how EdgeConv models form a single sub-accelerator (no vertex\n"
      "update), edge-heavy MP-GNNs pull PEs into sub-accelerator A, and\n"
      "shrinking convolutional layers switch to the update-first dataflow.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return aurora::guarded_main(argc, argv, run);
}
