// Seed-reproducible fuzzer for the dynamic-graph workload subsystem.
//
// Each seed deterministically generates a random base graph and a random
// stream of edge/vertex insert/delete operations, mirrors every op in a
// slow reference model (a plain sorted adjacency-set per vertex), and
// continuously cross-checks the DynamicGraph against it:
//
//   * after every op: logical edge count and a sampled has_edge probe;
//   * at random checkpoints and at the end: snapshot() (the from-scratch
//     CsrBuilder rebuild) versus the reference model's CSR, then compact()
//     versus that snapshot — row_ptr and col_idx must be bit-identical
//     (the acceptance invariant: compaction == from-scratch rebuild);
//   * around each compaction checkpoint: the neighbor sampler is run before
//     and after compact() with the same seed — the logical graph did not
//     change, so the sampled batch (content hash) must not either, and
//     re-sampling must reproduce it exactly.
//
// Any divergence prints the seed and a one-command replay line.
//
//   ./build/bench/fuzz_workload --seeds=25        # CI smoke
//   ./build/bench/fuzz_workload --seeds=200 --start-seed=1000
//   ./build/bench/fuzz_workload --seed=42         # replay one seed
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <set>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "workload/dynamic_graph.hpp"
#include "workload/sampler.hpp"

namespace {

using namespace aurora;

/// Slow reference model: per-vertex sorted neighbor sets.
struct RefGraph {
  std::vector<std::set<VertexId>> adj;

  [[nodiscard]] bool add(VertexId u, VertexId v) {
    if (u == v) return false;
    return adj[u].insert(v).second;
  }
  [[nodiscard]] bool remove(VertexId u, VertexId v) {
    if (u == v) return false;
    return adj[u].erase(v) > 0;
  }
  [[nodiscard]] EdgeId edges() const {
    EdgeId m = 0;
    for (const auto& row : adj) m += row.size();
    return m;
  }
  [[nodiscard]] graph::CsrGraph to_csr() const {
    std::vector<EdgeId> row_ptr(adj.size() + 1, 0);
    std::vector<VertexId> col_idx;
    for (std::size_t v = 0; v < adj.size(); ++v) {
      col_idx.insert(col_idx.end(), adj[v].begin(), adj[v].end());
      row_ptr[v + 1] = col_idx.size();
    }
    return {std::move(row_ptr), std::move(col_idx)};
  }
};

bool same_csr(const graph::CsrGraph& a, const graph::CsrGraph& b,
              const char* what) {
  if (a.row_ptr() == b.row_ptr() && a.col_idx() == b.col_idx()) return true;
  std::printf("  %s: CSR mismatch (%u/%llu vs %u/%llu vertices/edges)\n",
              what, a.num_vertices(),
              static_cast<unsigned long long>(a.num_edges()), b.num_vertices(),
              static_cast<unsigned long long>(b.num_edges()));
  return false;
}

bool fuzz_one(std::uint64_t seed, bool verbose) {
  Rng rng(seed);

  // Random base graph: modest sizes keep a fuzz round fast while covering
  // degree skew, near-empty and dense-ish regimes.
  const VertexId n = 8 + static_cast<VertexId>(rng.next_below(120));
  const EdgeId base_edges = 1 + rng.next_below(4 * n);
  graph::CsrGraph base = graph::generate_erdos_renyi(n, base_edges, rng);

  // Random compaction policy; sometimes disabled so explicit compact() paths
  // and giant overlays both get exercised.
  workload::CompactionPolicy policy;
  policy.threshold_fraction = rng.next_bool(0.3) ? 0.0 : rng.next_double(0.05, 0.6);
  policy.min_overlay_edges = rng.next_below(64);
  workload::DynamicGraph dyn(base, policy);

  RefGraph ref;
  ref.adj.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    for (const VertexId u : base.neighbors(v)) ref.adj[v].insert(u);
  }

  workload::SamplerParams sp;
  sp.fanouts = {1 + static_cast<std::uint32_t>(rng.next_below(8)),
                1 + static_cast<std::uint32_t>(rng.next_below(4))};
  sp.with_replacement = rng.next_bool(0.5);
  sp.seed = seed * 31 + 7;
  const workload::NeighborSampler sampler(sp);

  const auto sample_hash = [&](std::uint64_t salt) {
    std::vector<VertexId> seeds;
    const std::uint32_t k =
        1 + static_cast<std::uint32_t>(salt % 4);
    for (std::uint32_t i = 0; i < k; ++i) {
      seeds.push_back(static_cast<VertexId>((salt * 131 + i * 37) %
                                            dyn.num_vertices()));
    }
    return sampler.sample(dyn, seeds, salt).content_hash;
  };

  const std::uint64_t num_ops = 200 + rng.next_below(600);
  for (std::uint64_t op = 0; op < num_ops; ++op) {
    const VertexId cur_n = dyn.num_vertices();
    const double roll = rng.next_double();
    if (roll < 0.04) {
      const VertexId id = dyn.add_vertex();
      ref.adj.emplace_back();
      if (id + 1 != ref.adj.size()) {
        std::printf("  vertex id drift at op %llu\n",
                    static_cast<unsigned long long>(op));
        return false;
      }
    } else if (roll < 0.08) {
      const VertexId v = static_cast<VertexId>(rng.next_below(cur_n));
      std::vector<VertexId> nbrs;
      dyn.append_neighbors(v, nbrs);
      const EdgeId dropped = dyn.remove_vertex(v);
      EdgeId expect = 0;
      for (const VertexId u : nbrs) {
        expect += ref.remove(v, u);
        expect += ref.remove(u, v);
      }
      if (dropped != expect) {
        std::printf("  remove_vertex(%u) dropped %llu, reference %llu\n", v,
                    static_cast<unsigned long long>(dropped),
                    static_cast<unsigned long long>(expect));
        return false;
      }
    } else {
      const VertexId u = static_cast<VertexId>(rng.next_below(cur_n));
      const VertexId v = static_cast<VertexId>(rng.next_below(cur_n));
      // Bias toward inserts so the graph does not decay to empty; exercise
      // directed and undirected mutators alike.
      const bool insert = rng.next_bool(0.6);
      const bool undirected = rng.next_bool(0.5);
      bool got = false;
      bool expect = false;
      if (insert && undirected) {
        got = dyn.add_undirected_edge(u, v);
        const bool a = ref.add(u, v);
        const bool b = ref.add(v, u);
        expect = a || b;
      } else if (insert) {
        got = dyn.add_edge(u, v);
        expect = ref.add(u, v);
      } else if (undirected) {
        got = dyn.remove_undirected_edge(u, v);
        const bool a = ref.remove(u, v);
        const bool b = ref.remove(v, u);
        expect = a || b;
      } else {
        got = dyn.remove_edge(u, v);
        expect = ref.remove(u, v);
      }
      if (got != expect) {
        std::printf("  op %llu: mutator returned %d, reference %d\n",
                    static_cast<unsigned long long>(op), got, expect);
        return false;
      }
    }

    if (dyn.num_edges() != ref.edges()) {
      std::printf("  op %llu: edge count %llu, reference %llu\n",
                  static_cast<unsigned long long>(op),
                  static_cast<unsigned long long>(dyn.num_edges()),
                  static_cast<unsigned long long>(ref.edges()));
      return false;
    }
    {
      const VertexId u = static_cast<VertexId>(rng.next_below(dyn.num_vertices()));
      const VertexId v = static_cast<VertexId>(rng.next_below(dyn.num_vertices()));
      const bool expect = u != v && ref.adj[u].count(v) > 0;
      if (dyn.has_edge(u, v) != expect) {
        std::printf("  op %llu: has_edge(%u, %u) diverged\n",
                    static_cast<unsigned long long>(op), u, v);
        return false;
      }
    }

    // Checkpoint: full structural cross-check plus the compaction
    // bit-identity and sampler-stability invariants.
    if (rng.next_bool(0.03) || op + 1 == num_ops) {
      const graph::CsrGraph snap = dyn.snapshot();
      if (!same_csr(snap, ref.to_csr(), "snapshot vs reference")) return false;
      const std::uint64_t pre_hash =
          dyn.num_edges() > 0 ? sample_hash(op) : 0;
      dyn.compact();
      if (!same_csr(dyn.base(), snap, "compact vs snapshot")) return false;
      if (dyn.overlay_edges() != 0) {
        std::printf("  overlay not empty after compact\n");
        return false;
      }
      if (dyn.num_edges() > 0) {
        const std::uint64_t post_hash = sample_hash(op);
        if (pre_hash != post_hash) {
          std::printf("  sampler hash changed across compaction: %llx vs "
                      "%llx\n",
                      static_cast<unsigned long long>(pre_hash),
                      static_cast<unsigned long long>(post_hash));
          return false;
        }
        if (sample_hash(op) != post_hash) {
          std::printf("  sampler not deterministic on re-sample\n");
          return false;
        }
      }
      if (verbose) {
        std::printf("  op %llu: checkpoint ok (%u vertices, %llu edges)\n",
                    static_cast<unsigned long long>(op), dyn.num_vertices(),
                    static_cast<unsigned long long>(dyn.num_edges()));
      }
    }
  }
  return true;
}

int run(int argc, char** argv) {
  const CliArgs args(argc, argv, {"seeds", "start-seed", "seed", "verbose"});
  const bool verbose = args.has("verbose") || args.has("seed");
  const std::uint64_t start =
      args.has("seed") ? args.get_uint("seed", 0) : args.get_uint("start-seed", 0);
  const std::uint64_t count = args.has("seed") ? 1 : args.get_uint("seeds", 25, 1);

  std::uint64_t failures = 0;
  for (std::uint64_t seed = start; seed < start + count; ++seed) {
    bool ok = false;
    try {
      ok = fuzz_one(seed, verbose);
    } catch (const std::exception& e) {
      std::printf("  exception: %s\n", e.what());
      ok = false;
    }
    if (!ok) {
      ++failures;
      std::printf("FUZZ FAILURE seed=%llu\n",
                  static_cast<unsigned long long>(seed));
      std::printf("replay: ./build/bench/fuzz_workload --seed=%llu\n",
                  static_cast<unsigned long long>(seed));
    }
  }
  if (failures == 0) {
    std::printf("fuzz_workload: %llu seed(s) ok\n",
                static_cast<unsigned long long>(count));
    return EXIT_SUCCESS;
  }
  std::printf("fuzz_workload: %llu/%llu seed(s) FAILED\n",
              static_cast<unsigned long long>(failures),
              static_cast<unsigned long long>(count));
  return EXIT_FAILURE;
}

}  // namespace

int main(int argc, char** argv) {
  return aurora::guarded_main(argc, argv, run);
}
