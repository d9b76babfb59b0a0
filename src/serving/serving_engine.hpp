// Serving engine: arrival process -> admission queue -> dynamic batching ->
// cluster dispatch. The one code path that serves a request queue.
//
// Drives cluster::ClusterScheduler (both data-parallel and shard-parallel,
// serial or parallel per-chip simulation) with requests that arrive on
// their own clock, and reports what a deployment actually tunes against:
// goodput under SLO, shed rate, and the queue-wait vs service-time split
// behind each latency percentile. Fully deterministic for a fixed seed.
//
// The event loop is intentionally simple: advance to the earliest cycle a
// serving unit frees up, admit everything that has arrived by then, pop a
// batch (EDF within priority classes, per-tenant fairness; followers share
// the head's partition/NoC configuration and skip reconfiguration), and
// dispatch it. A closed-loop queue is a replay() with every arrival at
// cycle 0, max_batch = 1 and an unbounded queue: requests then run back to
// back in submission order, each hiding its DRAM prefetch under its
// predecessor's compute tail.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_scheduler.hpp"
#include "fault/fault.hpp"
#include "serving/arrival.hpp"
#include "serving/request_queue.hpp"

namespace aurora::serving {

/// One entry of the served model mix; requests draw from the mix with
/// probability proportional to `weight`.
struct ModelMixEntry {
  core::GnnJob job;
  std::string label;
  double weight = 1.0;
  /// Priority class for every request of this entry (lower = more urgent).
  std::uint32_t priority = 0;
};

struct ServingParams {
  ArrivalParams arrival;
  /// Seeds the arrival process and the mix/tenant draws.
  std::uint64_t seed = 1;
  /// Number of requests to generate for an open-loop run().
  std::uint64_t num_requests = 64;
  /// Admission cap on waiting requests (0 = unbounded, never sheds).
  std::size_t queue_depth = 64;
  /// Largest batch of configuration-compatible requests dispatched
  /// together; <= 1 disables batching.
  std::uint32_t max_batch = 4;
  /// Requests are attributed round-robin-free to this many tenants
  /// (uniform random draw); the queue balances service across them.
  std::uint32_t num_tenants = 1;
  /// Latency SLO in cycles; 0 means no deadline (everything is goodput).
  Cycle slo_cycles = 0;
  cluster::DispatchMode mode = cluster::DispatchMode::kDataParallel;
  /// Chip fault injection: when enabled() (horizon > 0 and a chip MTBF is
  /// set), serve_all generates a seed-deterministic fault::FaultPlan over
  /// the serving clock and attaches it to the cluster scheduler — dispatch
  /// avoids down chips, mid-flight failures trigger the retry path below.
  /// Disabled (the default) leaves serving bit-identical to a faultless
  /// engine. Link/DRAM fault windows act on the cluster-run / chip-local
  /// clocks and are wired by the caller (ClusterParams::fault_plan,
  /// DramConfig::stall_windows), not here.
  fault::FaultParams faults;
  /// Failed dispatch attempts allowed per request beyond the first; a
  /// request that fails max_retries + 1 times counts failed_permanently.
  std::uint32_t max_retries = 3;
  /// Capped exponential backoff before a failed request re-enters the
  /// queue: base * 2^retries cycles after the failure, at most the cap.
  Cycle retry_backoff_base = 256;
  Cycle retry_backoff_cap = Cycle{1} << 16;
  /// Proactive SLO shedding: drop waiting requests whose deadline already
  /// passed when a dispatch slot opens (see RequestQueue), counted as
  /// shed_expired rather than served late.
  bool proactive_shedding = false;
};

struct ServedRequest {
  std::uint64_t id = 0;
  std::uint32_t tenant = 0;
  std::uint32_t priority = 0;
  std::string label;
  /// Serving chip (data-parallel; 0 under shard-parallel).
  std::uint32_t chip = 0;
  Cycle arrival = 0;
  Cycle start = 0;
  Cycle finish = 0;
  Cycle deadline = kNoDeadline;
  /// Whether the request rode a batch head's configuration.
  bool batched_follower = false;
  Cycle overlap_hidden = 0;
  Cycle reconfig_saved = 0;
  /// Dispatch attempts that failed before this one completed.
  std::uint32_t retries = 0;
  /// Completed after at least one failed attempt (re-dispatched onto
  /// whatever chip the fault-aware scheduler picked next).
  bool failed_over = false;
  core::RunMetrics metrics;

  [[nodiscard]] Cycle queue_wait() const { return start - arrival; }
  [[nodiscard]] Cycle service_time() const { return finish - start; }
  [[nodiscard]] Cycle latency() const { return finish - arrival; }
  [[nodiscard]] bool met_slo() const { return finish <= deadline; }
};

struct ServingReport {
  /// Completed requests in dispatch order.
  std::vector<ServedRequest> served;
  std::uint64_t generated = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  /// Dispatched batches and how many requests rode as followers.
  std::uint64_t batches = 0;
  std::uint64_t batched_followers = 0;
  // Availability accounting (all zero without a fault plan). Conservation:
  // admitted == served.size() + shed_expired + failed_permanently.
  /// Dispatch attempts that ended in a mid-flight chip failure.
  std::uint64_t failed_attempts = 0;
  /// Re-dispatches scheduled by the retry/backoff path.
  std::uint64_t retries = 0;
  /// Requests that completed after at least one failed attempt.
  std::uint64_t failed_over = 0;
  /// Requests dropped after exhausting retries (or when every chip was
  /// permanently down).
  std::uint64_t failed_permanently = 0;
  /// Admitted requests dropped by proactive SLO shedding.
  std::uint64_t shed_expired = 0;
  /// Shard-parallel dispatches re-routed through a data-parallel placement
  /// because a gang chip was down.
  std::uint64_t shard_fallbacks = 0;
  Cycle overlap_savings = 0;
  Cycle reconfig_savings = 0;
  /// Last finish cycle (the serving horizon).
  Cycle horizon = 0;
  Cycle slo_cycles = 0;
  double frequency_mhz = 0.0;
  ArrivalKind arrival_kind = ArrivalKind::kPoisson;
  cluster::DispatchMode mode = cluster::DispatchMode::kDataParallel;
  std::uint32_t num_chips = 1;

  [[nodiscard]] double shed_rate() const;
  [[nodiscard]] std::uint64_t met_slo_count() const;
  /// Requests completed within their SLO per second of serving horizon.
  [[nodiscard]] double goodput_rps() const;
  /// Exact nearest-rank percentiles over the served requests.
  [[nodiscard]] double latency_percentile(double q) const;
  [[nodiscard]] double queue_wait_percentile(double q) const;
  [[nodiscard]] double service_percentile(double q) const;
  /// The report's scalars as "serving.*" counters, for merging into a run's
  /// CounterSet so the --metrics-out report carries them.
  [[nodiscard]] CounterSet counters() const;
};

/// The report as a JSON object (schema "aurora.serving.v1").
[[nodiscard]] std::string serving_report_json(const ServingReport& report);

/// Field-by-field comparison of two serving reports: every scalar
/// (admission, batching, availability and savings counters, horizon) and
/// every served request's identity, placement, timing and retry fields.
/// Returns human-readable mismatch lines; empty means bit-identical.
/// Shared by the differential fuzzer and the bit-identity tests.
[[nodiscard]] std::vector<std::string> diff_serving_reports(
    const ServingReport& a, const ServingReport& b);

class ServingEngine {
 public:
  ServingEngine(const core::AuroraConfig& config,
                const cluster::ClusterParams& cluster_params,
                const ServingParams& params);

  /// Generate `params.num_requests` open-loop arrivals over `mix` (seed-
  /// deterministic) and serve them. Exposed separately so tests can pin the
  /// generated stream itself.
  [[nodiscard]] std::vector<ServingRequest> generate(
      const std::vector<ModelMixEntry>& mix) const;
  [[nodiscard]] ServingReport run(const graph::Dataset& dataset,
                                  const std::vector<ModelMixEntry>& mix);

  /// Serve a pre-built request list (closed-loop queues, dynamic
  /// workloads and tests). Requests must be sorted by arrival; compat_key
  /// may be left empty and is filled from the job.
  [[nodiscard]] ServingReport replay(const graph::Dataset& dataset,
                                     std::vector<ServingRequest> requests);

  /// Trace every request's execution (see ClusterScheduler::set_tracer).
  void set_tracer(sim::Tracer* tracer) { tracer_ = tracer; }

  /// Override the fault plan instead of generating one from
  /// params.faults — lets tests and benchmarks serve against a plan they
  /// have already inspected. Null reverts to params.faults.
  void set_fault_plan(std::shared_ptr<const fault::FaultPlan> plan) {
    fault_plan_ = std::move(plan);
  }

 private:
  [[nodiscard]] ServingReport serve_all(const graph::Dataset& dataset,
                                        std::vector<ServingRequest> requests);

  core::AuroraConfig config_;
  cluster::ClusterParams cluster_params_;
  ServingParams params_;
  sim::Tracer* tracer_ = nullptr;
  std::shared_ptr<const fault::FaultPlan> fault_plan_;
};

}  // namespace aurora::serving
