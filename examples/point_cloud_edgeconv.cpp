// Point-cloud processing with EdgeConv (one of the paper's motivating
// domains): a spatial k-NN-like graph runs EdgeConv-1 and EdgeConv-5, which
// have NO vertex-update phase — the partition algorithm forms a single
// sub-accelerator and the whole array works on edge updates (the scenario
// where fixed heterogeneous designs idle their combination engines).
//
//   ./examples/point_cloud_edgeconv [--points=1024] [--features=16]
#include <cmath>
#include <cstdio>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "core/aurora.hpp"
#include "graph/batch.hpp"
#include "graph/generators.hpp"

namespace {

/// A grid-plus-shortcuts graph: the 4-neighborhood models spatial k-NN
/// structure, sprinkled long-range edges model dynamic graph updates
/// (DGCNN recomputes neighborhoods in feature space each layer).
aurora::graph::Dataset make_point_cloud(std::uint32_t points,
                                        std::uint32_t feature_dim) {
  using namespace aurora;
  const auto side = static_cast<VertexId>(std::max(
      2.0, std::sqrt(static_cast<double>(points))));
  graph::CsrGraph grid = graph::generate_grid(side, side);
  Rng rng(11);
  graph::CsrBuilder b(grid.num_vertices());
  for (VertexId v = 0; v < grid.num_vertices(); ++v) {
    for (VertexId u : grid.neighbors(v)) {
      if (u > v) b.add_undirected_edge(v, u);
    }
  }
  for (VertexId i = 0; i < grid.num_vertices() / 8; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(grid.num_vertices()));
    const auto w = static_cast<VertexId>(rng.next_below(grid.num_vertices()));
    if (u != w) b.add_undirected_edge(u, w);
  }
  graph::Dataset ds;
  ds.spec.name = "PointCloud";
  ds.spec.feature_dim = feature_dim;
  ds.spec.feature_density = 1.0;  // xyz + normals are dense
  ds.graph = std::move(b).build();
  ds.degree_stats = graph::compute_degree_stats(ds.graph);
  return ds;
}

int run(int argc, char** argv) {
  using namespace aurora;
  const CliArgs args(argc, argv, {"points", "features"});
  const auto points = args.get_uint("points", 1024, 1);
  const auto features =
      args.get_uint("features", 16, 1);

  const graph::Dataset cloud = make_point_cloud(points, features);
  std::printf("point cloud: %u points, %llu neighbor edges, mean degree %.1f\n",
              cloud.num_vertices(),
              static_cast<unsigned long long>(cloud.num_edges()),
              cloud.degree_stats.mean_degree);

  core::AuroraConfig config = core::AuroraConfig::bench();
  core::AuroraAccelerator accel(config);

  for (gnn::GnnModel model :
       {gnn::GnnModel::kEdgeConv1, gnn::GnnModel::kEdgeConv5}) {
    const gnn::LayerConfig layer{features, 2 * features};
    const auto wf = gnn::generate_workflow(model, layer,
                                           cloud.num_vertices(),
                                           cloud.num_edges());
    const auto m = accel.run_layer(cloud, model, layer, 1);
    std::printf("\n%s (edge-MLP, max aggregation):\n", gnn::model_name(model));
    std::printf("  vertex update present: %s -> %s\n",
                wf.needs_vertex_update() ? "yes" : "no",
                m.partition_b == 0
                    ? "single sub-accelerator, whole array on edge updates"
                    : "two sub-accelerators");
    std::printf("  %llu cycles, %s DRAM, %.1f uJ, avg %.2f hops\n",
                static_cast<unsigned long long>(m.total_cycles),
                human_bytes(m.dram_bytes).c_str(),
                m.energy.total_pj() * 1e-6, m.avg_hops);
  }
  // Batched inference: many clouds merged block-diagonally, one mapping
  // pass for the whole batch (how graph-level workloads are actually fed).
  std::vector<graph::CsrGraph> clouds;
  for (int i = 0; i < 8; ++i) {
    clouds.push_back(make_point_cloud(points / 8, features).graph);
  }
  const graph::Batch batch = graph::make_batch(clouds);
  graph::Dataset batched;
  batched.spec.name = "PointCloudBatch";
  batched.spec.feature_dim = features;
  batched.spec.feature_density = 1.0;
  batched.graph = batch.graph;
  batched.degree_stats = graph::compute_degree_stats(batch.graph);
  const auto mb =
      accel.run_layer(batched, gnn::GnnModel::kEdgeConv1,
                      {features, 2 * features}, 1);
  std::printf("\nbatched inference (8 clouds, %u points total): %llu cycles "
              "(%0.2f per-cloud equivalent)\n",
              batch.graph.num_vertices(),
              static_cast<unsigned long long>(mb.total_cycles),
              static_cast<double>(mb.total_cycles) / 8.0);

  std::printf(
      "\nA fixed tandem design (e.g. HyGCN's 1:7 split) would idle 7/8 of\n"
      "its multipliers here; Aurora's partition gives them all to sub-A.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return aurora::guarded_main(argc, argv, run);
}
