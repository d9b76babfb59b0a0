// Cluster-level dispatch: place GNN requests, one at a time, over N Aurora
// chips. Applies the core/scheduler.hpp DRAM/compute overlap model under two
// dispatch policies:
//
//   * data-parallel — the dataset is replicated on every chip; each request
//     runs whole on the least-loaded chip. Maximises throughput: requests
//     proceed concurrently and each chip reuses its accelerator's partition
//     state across the requests it serves.
//   * shard-parallel — every request runs on all chips at once over the
//     sharded graph (ClusterEngine). Minimises per-request latency at the
//     cost of halo traffic and barrier waits.
//
// serve() places one request against persistent chip timelines; the
// serving engine drives it for open-loop arrivals (requests arrive while
// chips are busy, batched followers skip reconfiguration, and a request can
// be pinned to its batch head's chip) and for closed-loop replays.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster_engine.hpp"
#include "core/scheduler.hpp"
#include "fault/fault.hpp"

namespace aurora::cluster {

enum class DispatchMode : std::uint8_t {
  kDataParallel,
  kShardParallel,
};

[[nodiscard]] const char* dispatch_mode_name(DispatchMode m);
/// Parses a dispatch_mode_name() or its CLI short form (`data`, `shard`);
/// anything else throws Error naming `what` (e.g. `--mode`).
[[nodiscard]] DispatchMode dispatch_mode_by_name(const std::string& name,
                                                 const std::string& what);

struct ClusterOutcome {
  /// Data-parallel: the serving chip's metrics. Shard-parallel: all chips'
  /// metrics accumulated, with total_cycles overridden to the cluster
  /// makespan of the request.
  core::RunMetrics metrics;
  /// Serving chip (data-parallel); 0 for shard-parallel (all chips serve).
  std::uint32_t chip = 0;
  Cycle start_cycle = 0;
  Cycle finish_cycle = 0;
  /// DRAM-under-compute overlap window claimed against the predecessor.
  Cycle overlap_hidden = 0;
  /// Reconfiguration cycles skipped as a batched follower.
  Cycle reconfig_saved = 0;
  /// The serving chip (or, shard-parallel, any gang member) fail-stopped
  /// mid-request: the attempt's work is lost, finish_cycle collapses to the
  /// failure instant and the caller must re-dispatch (the serving engine's
  /// retry path). Only set when a fault plan is attached.
  bool failed = false;
  Cycle failed_at = 0;
  /// Shard-parallel dispatch found a gang chip down at the probed start and
  /// re-routed the request through a data-parallel placement on a survivor.
  bool shard_fallback = false;
  /// Every chip is permanently down — the request can never be served.
  /// Implies `failed`; no simulation was attempted.
  bool no_capacity = false;
};

class ClusterScheduler {
 public:
  ClusterScheduler(const core::AuroraConfig& config,
                   const ClusterParams& params);

  /// Place one request running `job` over `dataset`. Data-parallel: on the
  /// least-loaded chip (or `pin_chip`, used to keep a batch on its head's
  /// chip); shard-parallel: on the whole cluster. The request starts no
  /// earlier than `not_before` (its arrival) and no earlier than the chip
  /// frees up minus the overlap window. `share_configuration` marks a
  /// batched follower that skips its exposed reconfiguration cycles.
  /// `dataset_key` names `dataset` when it is not the engine's ambient one
  /// (dynamic workloads dispatch per-request sampled mini-batches; empty
  /// otherwise) and is folded into the service-cache key, so equal-shaped
  /// jobs over different subgraphs never alias. Chip pools / the cluster
  /// engine persist across calls.
  [[nodiscard]] ClusterOutcome serve(
      const graph::Dataset& dataset, const core::GnnJob& job,
      const std::string& dataset_key, DispatchMode mode,
      Cycle not_before = 0, bool share_configuration = false,
      std::optional<std::uint32_t> pin_chip = std::nullopt);

  /// Earliest cycle at which any serving unit frees up (0 before the first
  /// serve call): min over chip timelines (data-parallel) or the cluster
  /// timeline (shard-parallel).
  [[nodiscard]] Cycle next_free(DispatchMode mode) const;

  /// Attach a fault plan: chip down windows (on the serving clock) steer
  /// dispatch away from dead chips, push starts past repair windows, and
  /// fail requests whose window a failure begins inside. Null or empty
  /// plans are fully inert — placements are bit-identical to a scheduler
  /// without one. The plan is configuration, not serving state: reset()
  /// keeps it.
  void set_fault_plan(std::shared_ptr<const fault::FaultPlan> plan) {
    fault_plan_ = std::move(plan);
  }

  /// Trace every request's execution into `tracer` (enable it first).
  /// Shard-parallel: the cluster-clock trace (segments, halos, run
  /// delimiters). Data-parallel: every chip engine records into the shared
  /// tracer — requests are dispatched one at a time, so records do not
  /// interleave. Tracing disables the service-metrics cache (a cache hit
  /// would record nothing), so traced runs re-simulate every request.
  void set_tracer(sim::Tracer* tracer) {
    tracer_ = tracer;
    reset();
  }

 private:
  /// One request's measured service and the spans placement needs.
  struct Service {
    core::RunMetrics metrics;
    /// Leading DRAM span that can hide under the predecessor's compute
    /// tail, and the trailing compute span left for the successor.
    /// Shard-parallel: the minimum over chips, since every chip must be
    /// free before the next request's barriers can line up.
    Cycle lead = 0;
    Cycle tail = 0;
    /// Reconfiguration a batched follower skips. Shard-parallel: the
    /// smallest per-chip span — every chip skips at least this much, so the
    /// cluster makespan conservatively shrinks by it.
    Cycle reconfig_discount = 0;
  };

  /// Drop all serving state: chip pools, the cluster engine, timelines and
  /// the service-metrics cache.
  void reset();
  void ensure_chips();
  void ensure_engine();
  [[nodiscard]] ClusterOutcome serve_data_parallel(
      const graph::Dataset& dataset, const core::GnnJob& job,
      const std::string& dataset_key, Cycle not_before,
      bool share_configuration, std::optional<std::uint32_t> pin_chip);
  [[nodiscard]] ClusterOutcome serve_shard_parallel(
      const graph::Dataset& dataset, const core::GnnJob& job,
      const std::string& dataset_key, Cycle not_before,
      bool share_configuration);
  /// The one placement step of both dispatch modes: start `service` on
  /// `timeline` no earlier than `not_before`, hiding its lead under the
  /// previous tail; a follower (`share_configuration`) skips the
  /// reconfiguration discount. Under a fault plan, any chip in
  /// [first_chip, end_chip) going down inside the window fails the attempt.
  [[nodiscard]] ClusterOutcome place(core::ChipTimeline& timeline,
                                     const Service& service, Cycle not_before,
                                     bool share_configuration,
                                     std::uint32_t first_chip,
                                     std::uint32_t end_chip) const;
  /// Deterministic engines make identical jobs yield identical metrics, so
  /// serving caches service measurements by job signature. Disabled while a
  /// tracer is attached. Returns nullptr on miss.
  [[nodiscard]] const Service* cache_lookup(const std::string& key) const;
  /// Caches a freshly measured service (unless tracing) and returns the
  /// copy to place from.
  [[nodiscard]] const Service& remember(std::string key, Service& fresh);
  /// The attached fault plan when it has any events; nullptr otherwise.
  [[nodiscard]] const fault::FaultPlan* active_fault_plan() const {
    return fault_plan_ != nullptr && !fault_plan_->empty() ? fault_plan_.get()
                                                           : nullptr;
  }

  core::AuroraConfig config_;
  ClusterParams params_;
  sim::Tracer* tracer_ = nullptr;
  std::shared_ptr<const fault::FaultPlan> fault_plan_;

  // Serving state (persists across serve() calls, dropped by reset()).
  std::vector<std::unique_ptr<core::AuroraAccelerator>> chips_;
  std::vector<core::ChipTimeline> chip_timelines_;
  std::unique_ptr<ClusterEngine> engine_;
  core::ChipTimeline shard_timeline_;
  std::map<std::string, Service> service_cache_;
};

}  // namespace aurora::cluster
