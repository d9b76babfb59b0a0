// S_PE placement ablation (the N-Queen choice in Algorithm 1): placing the
// hotspot PEs like non-attacking queens keeps every row/column bypass wire
// serving exactly one hotspot. This bench compares the queen placement
// against same-row clustering and deterministic pseudo-random placements on
// row/column load balance of the aggregation traffic.
//
// Flags: --scale=<f>, --seed=<s>.
#include <cstdio>

#include "bench_util.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "mapping/nqueen.hpp"
#include "mapping/quality.hpp"

namespace {

using namespace aurora;

/// Replace a mapping's S_PE hosting with an arbitrary placement and remap
/// its high-degree vertices accordingly.
mapping::Mapping with_placement(const mapping::Mapping& base,
                                std::vector<noc::Coord> placement) {
  mapping::Mapping m = base;
  m.s_pes = std::move(placement);
  for (std::size_t i = 0; i < m.high_degree_vertices.size(); ++i) {
    const auto& coord = m.s_pes[i % m.s_pes.size()];
    m.vertex_to_pe[m.high_degree_vertices[i]] =
        noc::to_node(coord, m.region.mesh_k);
  }
  return m;
}

int run(int argc, char** argv) {
  const CliArgs args(argc, argv, {"scale", "seed"});
  const double scale = args.get_double("scale", 0.5, 1e-6, 100.0);
  const auto ds = graph::make_dataset(graph::DatasetId::kCora, scale,
                                      args.get_uint("seed", 7));

  mapping::MapperParams params = mapping::MapperParams::square(16);
  params.c_pe_slots = 4;
  params.pe_vertex_slots = 2 * ds.num_vertices() / 256 + 4;
  const auto base =
      mapping::degree_aware_map(ds.graph, 0, ds.num_vertices(), params);

  std::printf("S_PE placement ablation — %s (scale %.2f), 16x16 region, "
              "%zu high-degree vertices\n\n",
              ds.spec.name, scale, base.high_degree_vertices.size());

  AsciiTable table({"placement", "queen-valid", "max row load",
                    "row imbalance", "max PE load", "avg hops"});
  auto evaluate = [&](const char* name, const mapping::Mapping& m) {
    const auto q = mapping::evaluate_mapping(
        ds.graph, 0, ds.num_vertices(), m, mapping::make_bypass_config(m));
    table.add_row({name,
                   mapping::is_valid_queen_placement(m.s_pes) ? "yes" : "no",
                   std::to_string(q.max_row_load),
                   to_fixed(q.row_load_imbalance(), 2),
                   std::to_string(q.max_pe_load), to_fixed(q.avg_hops, 2)});
  };

  // 1. Algorithm 1's N-Queen placement (the baseline mapping already has it).
  evaluate("N-Queen (Alg. 1)", base);

  // 2. All hotspots clustered in one row — the failure mode the paper warns
  //    about ("multiple high-degree vertices on the same row").
  std::vector<noc::Coord> same_row;
  for (std::uint32_t c = 0; c < 16; ++c) same_row.push_back({0, c});
  evaluate("same row", with_placement(base, same_row));

  // 3. A deterministic scatter without the diagonal constraint.
  std::vector<noc::Coord> scatter;
  for (std::uint32_t i = 0; i < 16; ++i) {
    scatter.push_back({(i * 5) % 16, (i * 5) % 16});  // shared diagonals
  }
  evaluate("diagonal scatter", with_placement(base, scatter));

  table.print();
  std::printf(
      "\nThe queen placement matches the scatter on row balance but also\n"
      "keeps columns and diagonals distinct, so each bypass wire serves one\n"
      "hotspot; same-row clustering concentrates the aggregation traffic.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return aurora::guarded_main(argc, argv, run);
}
