// Bring your own graph: load an edge list from disk, wrap it as a dataset,
// run a GNN layer on Aurora, and dump a machine-readable JSON report.
//
//   ./examples/custom_graph [--graph=path/to/edges.txt] [--json=report.json]
//
// Without --graph, a demo edge list is generated first so the example is
// runnable out of the box.
#include <cstdio>
#include <string>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "core/aurora.hpp"
#include "core/report.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace aurora;
  const CliArgs args(argc, argv, {"graph", "json"});

  std::string path = args.get_string("graph", "");
  if (path.empty()) {
    // No input given: synthesise a small power-law graph and save it, so the
    // example demonstrates the full file round trip.
    path = "/tmp/aurora_demo_graph.txt";
    Rng rng(21);
    graph::PowerLawParams params;
    params.n = 500;
    params.undirected_edges = 2000;
    params.locality = 0.6;
    graph::save_edge_list(path, graph::generate_power_law(params, rng));
    std::printf("no --graph given; wrote a demo edge list to %s\n",
                path.c_str());
  }

  graph::Dataset ds;
  ds.spec.name = "custom";
  ds.spec.feature_dim = 64;
  ds.spec.feature_density = 1.0;
  ds.graph = graph::load_edge_list(path);
  ds.degree_stats = graph::compute_degree_stats(ds.graph);
  std::printf("loaded %s: %u vertices, %llu directed edges, "
              "mean degree %.1f, max %llu\n",
              path.c_str(), ds.num_vertices(),
              static_cast<unsigned long long>(ds.num_edges()),
              ds.degree_stats.mean_degree,
              static_cast<unsigned long long>(ds.degree_stats.max_degree));

  core::AuroraConfig config = core::AuroraConfig::bench();
  core::AuroraAccelerator accel(config);

  std::vector<core::NamedRun> runs;
  for (gnn::GnnModel model :
       {gnn::GnnModel::kGcn, gnn::GnnModel::kGin, gnn::GnnModel::kAgnn}) {
    const auto m = accel.run_layer(ds, model, {64, 16}, 1);
    std::printf("  %-18s %8llu cycles, %6.1f uJ, a:b = %u:%u\n",
                gnn::model_name(model),
                static_cast<unsigned long long>(m.total_cycles),
                m.energy.total_pj() * 1e-6, m.partition_a, m.partition_b);
    runs.push_back({gnn::model_name(model), ds.spec.name, m});
  }

  const std::string json_path =
      args.get_string("json", "/tmp/aurora_custom_graph.json");
  core::write_json_file(json_path, core::runs_to_json(runs));
  std::printf("JSON report written to %s\n", json_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return aurora::guarded_main(argc, argv, run);
}
