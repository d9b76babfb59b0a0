// Tests for Algorithm 1: N-queen S_PE placement, high-degree classification,
// degree-aware vs hashing mapping, and the derived bypass configuration.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "mapping/mapper.hpp"
#include "mapping/nqueen.hpp"
#include "mapping/quality.hpp"

namespace aurora::mapping {
namespace {

using graph::generate_power_law;
using graph::generate_star;

class NQueenSizes : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(NQueenSizes, PlacementSatisfiesQueenConstraints) {
  const std::uint32_t k = GetParam();
  const auto placement = identify_s_pes(k);
  ASSERT_EQ(placement.size(), k);
  EXPECT_TRUE(is_valid_queen_placement(placement));
  // One per row and one per column.
  std::set<std::uint32_t> rows, cols;
  for (const auto& c : placement) {
    rows.insert(c.row);
    cols.insert(c.col);
    EXPECT_LT(c.row, k);
    EXPECT_LT(c.col, k);
  }
  EXPECT_EQ(rows.size(), k);
  EXPECT_EQ(cols.size(), k);
}

INSTANTIATE_TEST_SUITE_P(Sizes, NQueenSizes,
                         ::testing::Values(1u, 4u, 5u, 8u, 16u, 32u));

TEST(NQueen, SmallSizesFallBackToDistinctRowsCols) {
  for (std::uint32_t k : {2u, 3u}) {
    const auto placement = identify_s_pes(k);
    ASSERT_EQ(placement.size(), k);
    std::set<std::uint32_t> rows, cols;
    for (const auto& c : placement) {
      rows.insert(c.row);
      cols.insert(c.col);
    }
    EXPECT_EQ(rows.size(), k);
    EXPECT_EQ(cols.size(), k);
  }
}

/// Algorithm 1's backtracking as first written: every column of a row,
/// each checked against every earlier queen. The reference for the bitset
/// search behind identify_s_pes, which must find the same placement.
bool reference_queen(std::vector<std::uint32_t>& cols, std::uint32_t row,
                     std::uint32_t num_cols) {
  if (row == cols.size()) return true;
  for (std::uint32_t c = 0; c < num_cols; ++c) {
    bool free = true;
    for (std::uint32_t r = 0; r < row && free; ++r) {
      const std::uint32_t dc = cols[r] > c ? cols[r] - c : c - cols[r];
      free = cols[r] != c && dc != row - r;
    }
    if (!free) continue;
    cols[row] = c;
    if (reference_queen(cols, row + 1, num_cols)) return true;
  }
  return false;
}

/// identify_s_pes on a band of `rows` full-width rows of a `cols`-wide mesh
/// must match the reference (or its stagger fallback, when unsolvable).
void expect_matches_reference(std::uint32_t rows, std::uint32_t cols) {
  std::vector<std::uint32_t> expected(rows, 0);
  if (!reference_queen(expected, 0, cols)) {
    for (std::uint32_t r = 0; r < rows; ++r) expected[r] = r % cols;
  }
  const auto placement = identify_s_pes(PeRegion{cols, 0, rows});
  ASSERT_EQ(placement.size(), rows);
  for (std::uint32_t r = 0; r < rows; ++r) {
    EXPECT_EQ(placement[r].row, r);
    EXPECT_EQ(placement[r].col, expected[r]) << rows << "x" << cols;
  }
}

TEST(NQueen, BitsetSearchMatchesReferenceScan) {
  for (std::uint32_t cols = 1; cols <= 20; ++cols) {
    for (std::uint32_t rows = 1; rows <= cols; ++rows) {
      expect_matches_reference(rows, cols);
    }
  }
  // Widths around 64-column words: one word, several, a partial last one.
  for (std::uint32_t cols : {63u, 64u, 65u, 127u, 128u, 129u, 200u}) {
    for (std::uint32_t rows = 1; rows <= 8; ++rows) {
      expect_matches_reference(rows, cols);
    }
  }
  // These first solutions put queens on both sides of column 64 and
  // backtrack across it, so the diagonals carry between words: dropping
  // either carry changes some of these placements.
  for (std::uint32_t cols : {65u, 66u}) {
    for (std::uint32_t rows = 41; rows <= 47; ++rows) {
      expect_matches_reference(rows, cols);
      const auto placement = identify_s_pes(PeRegion{cols, 0, rows});
      EXPECT_TRUE(std::any_of(placement.begin(), placement.end(),
                              [](const auto& c) { return c.col >= 64; }))
          << rows << "x" << cols;
    }
  }
}

TEST(NQueen, PlacementOn32x32IsPinned) {
  // The reference scan's first solution (it takes tens of seconds there).
  const std::vector<std::uint32_t> expected = {
      0,  2,  4,  1,  3,  8,  10, 12, 14, 5,  17, 23, 25, 29, 24, 30,
      27, 31, 26, 28, 15, 18, 9,  7,  16, 11, 20, 6,  13, 22, 19, 21};
  const auto placement = identify_s_pes(32);
  ASSERT_EQ(placement.size(), expected.size());
  for (std::size_t r = 0; r < expected.size(); ++r) {
    EXPECT_EQ(placement[r].col, expected[r]) << "row " << r;
  }
}

TEST(NQueen, ValidatorCatchesAttacks) {
  EXPECT_FALSE(is_valid_queen_placement({{0, 0}, {0, 3}}));  // same row
  EXPECT_FALSE(is_valid_queen_placement({{0, 1}, {4, 1}}));  // same col
  EXPECT_FALSE(is_valid_queen_placement({{0, 0}, {2, 2}}));  // diagonal
  EXPECT_TRUE(is_valid_queen_placement({{0, 1}, {1, 3}}));
}

MapperParams small_params() {
  MapperParams p = MapperParams::square(4);
  p.c_pe_slots = 2;
  p.pe_vertex_slots = 64;
  return p;
}

TEST(DegreeAwareMap, HighDegreeVerticesLandOnSPEs) {
  const auto g = generate_star(100);  // vertex 0 is the hub
  const auto params = small_params();
  const Mapping m = degree_aware_map(g, 0, g.num_vertices(), params);

  ASSERT_FALSE(m.high_degree_vertices.empty());
  EXPECT_EQ(m.high_degree_vertices.front(), 0u);  // hub ranked first
  std::set<noc::NodeId> s_pe_nodes;
  for (const auto& c : m.s_pes) {
    s_pe_nodes.insert(noc::to_node(c, params.region.mesh_k));
  }
  for (VertexId hv : m.high_degree_vertices) {
    EXPECT_TRUE(s_pe_nodes.count(m.vertex_to_pe[hv]) > 0)
        << "high-degree vertex " << hv << " not on an S_PE";
  }
}

TEST(DegreeAwareMap, HighDegreeCountFollowsCapacity) {
  Rng rng(3);
  graph::PowerLawParams gp;
  gp.n = 300;
  gp.undirected_edges = 1200;
  const auto g = generate_power_law(gp, rng);
  const auto params = small_params();  // 4 S_PEs x 2 slots = 8
  const Mapping m = degree_aware_map(g, 0, g.num_vertices(), params);
  EXPECT_EQ(m.high_degree_vertices.size(), 8u);
  // They really are the top-degree vertices.
  const auto by_degree = graph::vertices_by_degree(g, 8);
  const std::set<VertexId> expect(by_degree.begin(), by_degree.end());
  for (VertexId hv : m.high_degree_vertices) {
    EXPECT_TRUE(expect.count(hv) > 0);
  }
}

TEST(DegreeAwareMap, SPEsAreSpreadByRoundRobin) {
  const auto g = generate_star(200);
  MapperParams params = small_params();
  const Mapping m = degree_aware_map(g, 0, g.num_vertices(), params);
  // 8 high-degree vertices over 4 S_PEs -> every S_PE hosts exactly 2.
  std::map<noc::NodeId, int> count;
  for (VertexId hv : m.high_degree_vertices) ++count[m.vertex_to_pe[hv]];
  EXPECT_EQ(count.size(), 4u);
  for (const auto& [pe, c] : count) {
    (void)pe;
    EXPECT_EQ(c, 2);
  }
}

TEST(DegreeAwareMap, AllVerticesAssignedWithinSlots) {
  Rng rng(7);
  graph::PowerLawParams gp;
  gp.n = 500;
  gp.undirected_edges = 2000;
  const auto g = generate_power_law(gp, rng);
  MapperParams params = MapperParams::square(4);
  params.c_pe_slots = 4;
  params.pe_vertex_slots = 40;
  const Mapping m = degree_aware_map(g, 0, g.num_vertices(), params);
  ASSERT_EQ(m.vertex_to_pe.size(), 500u);
  std::map<noc::NodeId, std::uint32_t> load;
  for (auto pe : m.vertex_to_pe) {
    EXPECT_LT(pe, 16u);
    ++load[pe];
  }
  for (const auto& [pe, l] : load) {
    (void)pe;
    EXPECT_LE(l, params.pe_vertex_slots + params.c_pe_slots);
  }
}

TEST(DegreeAwareMap, SubgraphRangeUsesLocalIndices) {
  const auto g = generate_star(64);
  MapperParams params = small_params();
  const Mapping m = degree_aware_map(g, 32, 64, params);
  EXPECT_EQ(m.vertex_to_pe.size(), 32u);
  // Local ids must stay within the range size.
  for (VertexId hv : m.high_degree_vertices) EXPECT_LT(hv, 32u);
}

TEST(DegreeAwareMap, RejectsOversizedSubgraph) {
  const auto g = generate_star(2000);
  MapperParams params = MapperParams::square(2);
  params.c_pe_slots = 1;
  params.pe_vertex_slots = 8;  // capacity 32 < 2000
  EXPECT_THROW(degree_aware_map(g, 0, g.num_vertices(), params), Error);
}

TEST(HashingMap, RoundRobinAssignment) {
  const auto g = generate_star(40);
  MapperParams params = small_params();
  const Mapping m = hashing_map(g, 0, 40, params);
  for (VertexId v = 0; v < 40; ++v) EXPECT_EQ(m.vertex_to_pe[v], v % 16);
  EXPECT_TRUE(m.s_pes.empty());
}

TEST(BypassConfig, OneSegmentPerSpeRowAndColumn) {
  const auto g = generate_star(100);
  MapperParams params = MapperParams::square(8);
  params.c_pe_slots = 2;
  const Mapping m = degree_aware_map(g, 0, g.num_vertices(), params);
  const noc::NocConfig cfg = make_bypass_config(m);
  EXPECT_EQ(cfg.row_segments().size(), 8u);
  EXPECT_EQ(cfg.col_segments().size(), 8u);
  for (const auto& s : cfg.row_segments()) {
    EXPECT_EQ(s.from, 0u);
    EXPECT_EQ(s.to, 7u);
  }
}

// ------------------------------------------------------------ quality model

TEST(MappingQuality, DegreeAwareBeatsHashingOnSkewedGraphs) {
  Rng rng(11);
  graph::PowerLawParams gp;
  gp.n = 600;
  gp.undirected_edges = 3000;
  gp.alpha = 2.0;
  const auto g = generate_power_law(gp, rng);

  MapperParams params = MapperParams::square(8);
  params.c_pe_slots = 2;
  params.pe_vertex_slots = 16;

  const Mapping aware = degree_aware_map(g, 0, g.num_vertices(), params);
  const Mapping hashed = hashing_map(g, 0, g.num_vertices(), params);

  const auto q_aware = evaluate_mapping(g, 0, g.num_vertices(), aware,
                                        make_bypass_config(aware));
  const auto q_hash =
      evaluate_mapping(g, 0, g.num_vertices(), hashed, noc::NocConfig(8));

  // The bypass links cut the average hop count...
  EXPECT_LT(q_aware.avg_hops, q_hash.avg_hops);
  EXPECT_GT(q_aware.bypass_messages, 0u);
  // ...and the row-load imbalance cannot be worse than hashing's hotspots by
  // more than a smidge (high-degree rows are deliberately separated).
  EXPECT_LT(q_aware.row_load_imbalance(), q_hash.row_load_imbalance() * 1.5);
}

TEST(MappingQuality, LocalEdgesAreFree) {
  // All vertices on one PE: no cross-PE messages.
  const auto g = generate_star(16);
  Mapping all_local;
  all_local.region = PeRegion::full(2);
  all_local.vertex_to_pe.assign(16, 0);
  const auto q =
      evaluate_mapping(g, 0, 16, all_local, noc::NocConfig(2));
  EXPECT_EQ(q.cross_pe_messages, 0u);
  EXPECT_EQ(q.local_edges, g.num_edges());
  EXPECT_EQ(q.total_hops, 0u);
}

TEST(MappingQuality, DeterministicMapping) {
  Rng rng(13);
  graph::PowerLawParams gp;
  gp.n = 200;
  gp.undirected_edges = 800;
  const auto g = generate_power_law(gp, rng);
  const auto params = small_params();
  const Mapping a = degree_aware_map(g, 0, g.num_vertices(), params);
  const Mapping b = degree_aware_map(g, 0, g.num_vertices(), params);
  EXPECT_EQ(a.vertex_to_pe, b.vertex_to_pe);
  EXPECT_EQ(a.high_degree_vertices, b.high_degree_vertices);
}

}  // namespace
}  // namespace aurora::mapping
