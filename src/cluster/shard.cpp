#include "cluster/shard.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "graph/degree.hpp"
#include "graph/tiling.hpp"

namespace aurora::cluster {
namespace {

constexpr VertexId kUnmapped = std::numeric_limits<VertexId>::max();

/// Owner chip per vertex for the chosen strategy.
std::vector<std::uint32_t> assign_owners(const graph::CsrGraph& g,
                                         std::uint32_t num_chips,
                                         ShardStrategy strategy) {
  const VertexId n = g.num_vertices();
  std::vector<std::uint32_t> owner(n, 0);
  if (strategy == ShardStrategy::kHash) {
    for (VertexId v = 0; v < n; ++v) owner[v] = v % num_chips;
    return owner;
  }
  const std::vector<VertexId> bounds =
      graph::balanced_edge_ranges(g, num_chips);
  for (std::uint32_t c = 0; c < num_chips; ++c) {
    for (VertexId v = bounds[c]; v < bounds[c + 1]; ++v) owner[v] = c;
  }
  return owner;
}

}  // namespace

const char* shard_strategy_name(ShardStrategy s) {
  switch (s) {
    case ShardStrategy::kRange:
      return "range";
    case ShardStrategy::kHash:
      return "hash";
  }
  throw Error("invalid ShardStrategy");
}

Bytes ShardPlan::halo_bytes(std::uint32_t src, std::uint32_t dst,
                            std::uint32_t feature_dim,
                            Bytes element_bytes) const {
  AURORA_CHECK(src < num_chips && dst < num_chips);
  return static_cast<Bytes>(shards[dst].ghosts_from[src]) * feature_dim *
         element_bytes;
}

ShardPlan make_shard_plan(const graph::Dataset& dataset,
                          std::uint32_t num_chips, ShardStrategy strategy) {
  AURORA_CHECK_MSG(num_chips >= 1, "a cluster needs at least one chip");
  const graph::CsrGraph& g = dataset.graph;
  const VertexId n = g.num_vertices();
  AURORA_CHECK_MSG(num_chips <= std::max<VertexId>(n, 1),
                   "more chips (" << num_chips << ") than vertices (" << n
                                  << ")");

  ShardPlan plan;
  plan.strategy = strategy;
  plan.num_chips = num_chips;
  plan.shards.resize(num_chips);

  const std::vector<std::uint32_t> owner =
      assign_owners(g, num_chips, strategy);

  // Owned vertices per chip, ascending global id.
  std::vector<std::vector<VertexId>> owned(num_chips);
  for (VertexId v = 0; v < n; ++v) owned[owner[v]].push_back(v);

  std::vector<VertexId> global_to_local(n, kUnmapped);
  for (std::uint32_t c = 0; c < num_chips; ++c) {
    Shard& shard = plan.shards[c];
    shard.chip = c;
    shard.num_owned = static_cast<VertexId>(owned[c].size());
    shard.ghosts_from.assign(num_chips, 0);

    // Ghosts: remote-owned aggregation sources of this chip's vertices.
    std::vector<VertexId> ghosts;
    for (const VertexId v : owned[c]) {
      for (const VertexId u : g.neighbors(v)) {
        if (owner[u] != c) {
          ghosts.push_back(u);
          ++shard.cut_edges;
        }
      }
    }
    std::sort(ghosts.begin(), ghosts.end());
    ghosts.erase(std::unique(ghosts.begin(), ghosts.end()), ghosts.end());
    shard.num_ghosts = static_cast<VertexId>(ghosts.size());

    shard.global_ids = owned[c];
    shard.global_ids.insert(shard.global_ids.end(), ghosts.begin(),
                            ghosts.end());
    for (VertexId local = 0; local < shard.global_ids.size(); ++local) {
      global_to_local[shard.global_ids[local]] = local;
    }
    for (const VertexId ghost : ghosts) ++shard.ghosts_from[owner[ghost]];

    // Local CSR: owned rows carry the remapped neighbor list (re-sorted —
    // ghost local ids sit above owned ids, so remapping can unsort a row);
    // ghost rows mirror the cut edges back into their owned neighbors, so
    // the shard stays symmetric (the engine's undirected-CSR dataflow fans
    // contributions out along a vertex's own row). For num_chips == 1 the
    // remap is the identity and the vectors come out bit-identical to the
    // input's.
    std::vector<std::vector<VertexId>> ghost_rows(shard.num_ghosts);
    std::vector<EdgeId> row_ptr;
    std::vector<VertexId> col_idx;
    row_ptr.reserve(shard.global_ids.size() + 1);
    row_ptr.push_back(0);
    for (const VertexId v : owned[c]) {
      const auto row_begin = static_cast<std::ptrdiff_t>(col_idx.size());
      for (const VertexId u : g.neighbors(v)) {
        const VertexId ul = global_to_local[u];
        col_idx.push_back(ul);
        if (ul >= shard.num_owned) {
          ghost_rows[ul - shard.num_owned].push_back(global_to_local[v]);
        }
      }
      std::sort(col_idx.begin() + row_begin, col_idx.end());
      row_ptr.push_back(static_cast<EdgeId>(col_idx.size()));
    }
    for (auto& row : ghost_rows) {
      std::sort(row.begin(), row.end());
      col_idx.insert(col_idx.end(), row.begin(), row.end());
      row_ptr.push_back(static_cast<EdgeId>(col_idx.size()));
    }

    shard.dataset.spec = dataset.spec;
    shard.dataset.scale = dataset.scale;
    shard.dataset.graph =
        graph::CsrGraph(std::move(row_ptr), std::move(col_idx));
    shard.dataset.degree_stats =
        graph::compute_degree_stats(shard.dataset.graph);

    // Reset only the slots this shard used; the map is shared across shards.
    for (const VertexId v : shard.global_ids) global_to_local[v] = kUnmapped;

    plan.cut_edges += shard.cut_edges;
    plan.total_ghosts += shard.num_ghosts;
  }

  plan.replication_factor =
      n == 0 ? 1.0
             : static_cast<double>(n + plan.total_ghosts) /
                   static_cast<double>(n);
  return plan;
}

}  // namespace aurora::cluster
