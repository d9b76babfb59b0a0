// Off-package traffic accounting for the Aurora dataflow.
//
// Aurora's DRAM advantage (paper Sec VI-B) comes from three decisions this
// model makes explicit:
//   * weights live only in sub-accelerator B — never duplicated per PE;
//   * sub-A output streams over the NoC straight to sub-B's PEs (the
//     paper's reuse FIFOs) — aggregated features are never spilled to DRAM
//     between phases;
//   * tiles sized to the distributed buffer bound halo re-reads.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "gnn/workflow.hpp"
#include "graph/datasets.hpp"
#include "graph/tiling.hpp"

namespace aurora::core {

/// Per-layer DRAM traffic, by source.
struct DramTraffic {
  Bytes input_features = 0;   // owned vertex features, read once
  Bytes halo_features = 0;    // remote endpoints re-read per tile
  Bytes adjacency = 0;        // CSR metadata
  Bytes edge_embeddings = 0;  // models with edge state: read + write
  Bytes weights = 0;          // loaded once per layer into sub-B
  Bytes intermediate_spill = 0;  // always 0 for Aurora (fused phases)
  Bytes output_features = 0;  // written once

  [[nodiscard]] Bytes total() const {
    return input_features + halo_features + adjacency + edge_embeddings +
           weights + intermediate_spill + output_features;
  }
};

struct DramTrafficParams {
  Bytes element_bytes = 8;
  /// True for the first layer, whose input feature matrix is sparse on disk;
  /// hidden layers are dense.
  bool sparse_input_features = false;
  /// Nonzero density of the sparse input features (dataset metadata).
  double input_feature_density = 1.0;
};

/// Aurora's per-layer traffic given the tiling actually used.
[[nodiscard]] DramTraffic aurora_dram_traffic(const graph::Dataset& dataset,
                                              const gnn::Workflow& workflow,
                                              const graph::Tiling& tiling,
                                              const DramTrafficParams& params);

/// Bytes of one vertex's input feature vector under the storage format
/// (sparse CSR-of-features for layer 0, dense otherwise).
[[nodiscard]] Bytes feature_vector_bytes(std::uint32_t feature_dim,
                                         const DramTrafficParams& params);

}  // namespace aurora::core
