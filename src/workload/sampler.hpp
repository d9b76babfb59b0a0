// Seed-deterministic GraphSAGE-style neighbor sampling.
//
// Full-graph inference reads every vertex's multi-hop neighborhood; serving
// systems instead answer per-request queries over small sampled subgraphs.
// NeighborSampler expands a seed set hop by hop under per-layer fanout caps
// (with or without replacement), dedups the frontier, and materialises the
// induced subgraph as a self-contained CSR over compact local ids — ready to
// wrap into a graph::Dataset and serve through serving::ServingEngine as an
// ordinary job. All randomness flows through aurora::Rng seeded from
// (params.seed, salt), so a fixed seed reproduces a batch bit-for-bit across
// serial/parallel and lockstep/fast-forward simulation modes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "graph/datasets.hpp"
#include "workload/dynamic_graph.hpp"

namespace aurora::workload {

struct SamplerParams {
  /// Per-hop neighbor caps, outermost hop first (GraphSAGE convention:
  /// fanouts.size() == number of GNN layers). 0 means "all neighbors".
  std::vector<std::uint32_t> fanouts = {10, 5};
  /// Sample with replacement (duplicates collapse in the induced subgraph,
  /// mirroring how GraphSAGE batches dedup on materialisation).
  bool with_replacement = false;
  std::uint64_t seed = 7;
};

/// One sampled mini-batch: the induced subgraph over compact local ids plus
/// the local -> global vertex mapping.
struct SampledBatch {
  /// Induced symmetric subgraph; local id i corresponds to global_ids[i].
  graph::CsrGraph subgraph;
  /// Seeds first (in request order), then sampled vertices in discovery
  /// order — the layout aggregation kernels expect for seed rows.
  std::vector<VertexId> global_ids;
  std::uint32_t num_seeds = 0;
  /// Frontier size after each hop (diagnostics; frontier_sizes.size() ==
  /// fanouts.size()).
  std::vector<std::uint32_t> frontier_sizes;
  /// Directed edges visited during expansion (pre-dedup traffic proxy).
  EdgeId sampled_edges = 0;
  /// FNV-1a over global_ids and the subgraph arrays; equal hashes <=> equal
  /// batches. The determinism tests compare these across simulation modes.
  std::uint64_t content_hash = 0;
};

class NeighborSampler {
 public:
  explicit NeighborSampler(SamplerParams params);

  /// Expand `seeds` over `source`. `salt` decorrelates batches drawn from
  /// the same sampler (callers pass the query id); the result depends only
  /// on (params, source contents, seeds, salt).
  [[nodiscard]] SampledBatch sample(const GraphSource& source,
                                    const std::vector<VertexId>& seeds,
                                    std::uint64_t salt = 0) const;

  [[nodiscard]] const SamplerParams& params() const { return params_; }

 private:
  SamplerParams params_;
};

/// Wrap a sampled batch into a self-contained Dataset carrying the parent's
/// feature spec and scale (the Shard idiom), so schedulers treat it like any
/// other graph.
[[nodiscard]] std::shared_ptr<const graph::Dataset> make_batch_dataset(
    const graph::Dataset& parent, SampledBatch batch);

}  // namespace aurora::workload
