// Reordering ablation: Aurora's tiling (halo traffic) and sequential
// mapping (hop counts) both assume vertex ids are community-local. This
// bench quantifies that assumption on a raw R-MAT graph vs the same graph
// BFS-renumbered — the preprocessing every real deployment would apply.
//
// Flags: --rmat-scale=<s>, --edges=<m>, --hidden=<d>, --seed=<s>.
#include <cstdio>

#include "bench_util.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "graph/generators.hpp"
#include "graph/reorder.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace aurora;
  const CliArgs args(argc, argv, {"rmat-scale", "edges", "hidden", "seed"});
  const auto rmat_scale =
      args.get_uint("rmat-scale", 13, 1, 24);
  const auto edges = static_cast<EdgeId>(args.get_uint(
      "edges", static_cast<std::uint32_t>(8u * (1u << rmat_scale)), 1));
  const auto hidden = args.get_uint("hidden", 16, 1);

  Rng rng(args.get_uint("seed", 7));
  graph::RmatParams rp;
  rp.scale = rmat_scale;
  rp.undirected_edges = edges;
  const graph::CsrGraph raw = graph::generate_rmat(rp, rng);
  const graph::CsrGraph bfs =
      graph::apply_order(raw, graph::bfs_order(raw));

  const VertexId window = raw.num_vertices() / 25;
  std::printf("Reordering ablation — R-MAT scale %u (%u vertices, %llu "
              "directed edges)\n",
              rmat_scale, raw.num_vertices(),
              static_cast<unsigned long long>(raw.num_edges()));
  std::printf("locality score (±%u ids): raw %.3f -> BFS %.3f; "
              "mean id distance: %.0f -> %.0f\n\n",
              window, graph::locality_score(raw, window),
              graph::locality_score(bfs, window),
              graph::mean_id_distance(raw), graph::mean_id_distance(bfs));

  core::AuroraConfig cfg = core::AuroraConfig::paper();
  // Shrink the buffer so the graph needs several tiles — the regime where
  // halo traffic matters.
  cfg.pe.bank_buffer_bytes = 16 * 1024;
  core::AuroraAccelerator accel(cfg);

  AsciiTable table({"graph", "tiles", "DRAM", "avg hops", "comm cycles",
                    "total cycles"});
  auto run_one = [&](const char* name, const graph::CsrGraph& g) {
    graph::Dataset ds;
    ds.spec.name = name;
    ds.spec.feature_dim = 256;
    ds.spec.feature_density = 1.0;
    ds.graph = g;
    ds.degree_stats = graph::compute_degree_stats(g);
    const auto m = accel.run_layer(ds, gnn::GnnModel::kGcn, {256, hidden}, 1);
    table.add_row({name, std::to_string(m.num_subgraphs),
                   human_bytes(m.dram_bytes), to_fixed(m.avg_hops, 2),
                   std::to_string(m.onchip_comm_cycles),
                   std::to_string(m.total_cycles)});
    return m;
  };
  const auto raw_m = run_one("raw ids", raw);
  const auto bfs_m = run_one("BFS reordered", bfs);
  table.print();
  std::printf(
      "\nBFS renumbering: %.2fx shorter hops, %.2fx less DRAM, %.2fx "
      "faster.\nHub vertices are neighbors of most tiles, so halo traffic "
      "is less\nsensitive to ordering than hop counts are.\n",
      raw_m.avg_hops / bfs_m.avg_hops,
      static_cast<double>(raw_m.dram_bytes) /
          static_cast<double>(bfs_m.dram_bytes),
      static_cast<double>(raw_m.total_cycles) /
          static_cast<double>(bfs_m.total_cycles));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return aurora::guarded_main(argc, argv, run);
}
