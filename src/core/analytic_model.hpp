// The analytic performance/energy model.
//
// Executes the same layer plan as the cycle engine (core::plan_layer:
// Algorithm 2 partition, tiling, DRAM traffic, Algorithm 1 parameters) and
// replaces only the flit/task simulation with closed-form estimates driven
// by the mapping-quality statistics of sampled tiles. Sampled tiles map
// under config.mapping_policy; the hashing policy is evaluated on a plain
// mesh. Contention constants are calibrated against the cycle engine (see
// tests/test_core.cpp's cross-validation test and bench/ablation_mapping).
//
// Use it where the cycle engine is impractical: full-scale datasets
// (Fig 7-10 at paper sizes) and wide parameter sweeps.
#pragma once

#include "core/config.hpp"
#include "core/dram_traffic.hpp"
#include "core/metrics.hpp"
#include "gnn/workflow.hpp"
#include "graph/datasets.hpp"

namespace aurora::core {

/// Calibration constants of the analytic model.
struct AnalyticCalibration {
  /// Fraction of peak DRAM bandwidth sustained on streaming loads.
  double dram_efficiency = 0.85;
  /// Sustained flit-hops per cycle per PE under steady pipelined traffic
  /// (~20 % utilisation of the ~4 directed links per node). The cycle
  /// engine's small bursty runs drain far below this because dependency
  /// stalls dominate there — and those stalls are charged to the compute
  /// term, not to transport.
  double flit_hops_per_cycle_per_pe = 0.8;
  /// Fraction of a hotspot PE's incident messages that serialise at its
  /// ejection port (the rest overlaps with transport).
  double hotspot_serialization = 0.35;
  /// Extra cycles per PE task (queueing + reconfiguration churn).
  double per_task_overhead = 3.0;
  /// How many tiles to map/evaluate exactly before extrapolating.
  std::uint32_t sampled_tiles = 8;
};

class AnalyticModel {
 public:
  AnalyticModel(const AuroraConfig& config,
                const AnalyticCalibration& calibration = {});

  [[nodiscard]] RunMetrics run_layer(const graph::Dataset& dataset,
                                     const gnn::Workflow& workflow,
                                     const DramTrafficParams& traffic) const;

 private:
  AuroraConfig config_;
  AnalyticCalibration cal_;
};

}  // namespace aurora::core
