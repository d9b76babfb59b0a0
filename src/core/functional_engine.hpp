// Functional execution of a GNN layer through the MAPPED, DISTRIBUTED
// dataflow.
//
// Where the cycle engine models *time* and abstracts values, this engine
// models *values* and abstracts time: it executes the same layer plan
// (core::plan_layer: Algorithm 2 partition, sub-accelerators, tiling) and
// the real arithmetic the dataflow implies:
//   * per-edge updates run through the structural PE datapath (scalar,
//     dot-product, gate, MLP wirings) at the source vertex's PE;
//   * aggregation accumulates (or max-reduces) at the owner PE in the
//     adders-only wiring;
//   * the vertex update is computed weight-stationary: the weight matrix is
//     column-sliced across the ring PEs, each computes its partial on its
//     m_v slice, and the H-wide partial accumulates stage by stage around
//     the ring, finishing in the last PE's PPU (activation / concat).
//
// Tests require its output to match the dense golden executor to
// double-precision round-off for every model in the zoo — the paper's
// "unified architecture supports all these models" claim, checked on values
// rather than asserted.
#pragma once

#include "core/config.hpp"
#include "gnn/reference.hpp"
#include "gnn/sparse.hpp"
#include "gnn/tensor.hpp"
#include "graph/datasets.hpp"

namespace aurora::core {

/// Per-run statistics proving the distributed path was actually exercised.
struct FunctionalStats {
  std::uint64_t edge_tasks = 0;       // per-edge datapath executions
  std::uint64_t accumulations = 0;    // owner-PE reduce steps
  std::uint64_t ring_stages = 0;      // weight-stationary partial products
  std::uint64_t ppu_activations = 0;  // PPU invocations
  std::uint32_t tiles = 0;
  std::uint32_t sub_a_pes = 0;
  std::uint32_t sub_b_pes = 0;
};

class FunctionalEngine {
 public:
  explicit FunctionalEngine(const AuroraConfig& config);

  /// Execute one layer of `model` over `dataset.graph` with input features
  /// `x` and parameters `params` (same structures the golden executor
  /// takes). Returns the output feature matrix.
  [[nodiscard]] gnn::Matrix run_layer(const graph::Dataset& dataset,
                                      gnn::GnnModel model,
                                      const gnn::Matrix& x,
                                      const gnn::ReferenceParams& params);

  /// Layer-0 variant: input features arrive in their stored sparse format
  /// and every edge/aggregation kernel operates on compressed rows — the
  /// value-level counterpart of the traffic models' sparse accounting.
  /// Supported for the convolutional models (whose aggregation is linear);
  /// the result must equal run_layer on the densified input.
  [[nodiscard]] gnn::Matrix run_layer_sparse(
      const graph::Dataset& dataset, gnn::GnnModel model,
      const gnn::SparseMatrix& x, const gnn::ReferenceParams& params);

  [[nodiscard]] const FunctionalStats& stats() const { return stats_; }

 private:
  AuroraConfig config_;
  FunctionalStats stats_;
};

}  // namespace aurora::core
