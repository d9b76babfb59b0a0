// The cycle-accurate execution engine: simulates one GNN layer at
// flit/task granularity over the PE array, the reconfigurable NoC and the
// DRAM model, executing the layer's plan (core::plan_layer).
//
// Execution of one tile (subgraph), mirroring Fig 2:
//   1. degree-aware mapping of the tile onto sub-accelerator A;
//   2. NoC reconfiguration (bypass segments + sub-B rings);
//   3. DRAM load of the tile's working set (overlapped with the previous
//      tile's compute via the pipeline composition in run_layer);
//   4. edge update at each source PE -> message per cross-PE edge ->
//      accumulation at the owner PE -> aggregated vector streams into a
//      weight-stationary ring of sub-accelerator B -> activation ->
//      writeback.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/config.hpp"
#include "core/dram_traffic.hpp"
#include "core/metrics.hpp"
#include "graph/datasets.hpp"
#include "gnn/workflow.hpp"
#include "sim/trace.hpp"

namespace aurora::sim {
class Sampler;
}  // namespace aurora::sim

namespace aurora::core {

class CycleEngine {
 public:
  explicit CycleEngine(const AuroraConfig& config);
  ~CycleEngine();

  CycleEngine(const CycleEngine&) = delete;
  CycleEngine& operator=(const CycleEngine&) = delete;

  /// Simulate one layer end to end. Deterministic.
  [[nodiscard]] RunMetrics run_layer(const graph::Dataset& dataset,
                                     const gnn::Workflow& workflow,
                                     const DramTrafficParams& traffic);

  /// Attach an event tracer (may be null). The engine records tile starts,
  /// reconfigurations, DRAM streams, packet injection/delivery and PE task
  /// completions when the tracer is enabled.
  void set_tracer(sim::Tracer* tracer) { tracer_ = tracer; }

  /// Attach a time-series sampler (may be null). Each run points the
  /// sampler's probes at the NoC's and DRAM's counters and gauges and at
  /// three PE-pool aggregates, and detaches them again before returning (the
  /// components are run-local). Without a sampler none of this is built.
  /// Sampling never changes simulated behaviour: the sampler is a read-only
  /// component whose ticks are no-ops for everything else.
  void set_sampler(sim::Sampler* sampler) { sampler_ = sampler; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  AuroraConfig config_;
  sim::Tracer* tracer_ = nullptr;
  sim::Sampler* sampler_ = nullptr;
};

}  // namespace aurora::core
