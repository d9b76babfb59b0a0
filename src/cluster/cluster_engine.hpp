// Multi-chip cluster execution: N Aurora chips cooperate on one inference
// over a sharded graph, exchanging halo features through the cycle-level
// InterChipLink under one shared clock.
//
// Execution model. Each chip first runs its shard's layers through its own
// cycle-accurate (or analytic) engine — that fixes the chip-local timing
// exactly, including the replicated ghost compute the shard carries. The
// cluster timeline then replays every chip as a ChipProxy component on a
// shared Simulator together with the link. Per layer a chip contributes two
// timed segments split at the halo-exchange point:
//
//   compute-pre  — DRAM streaming, edge-update and aggregation
//                  (total_cycles minus the vertex-update span);
//   [halo barrier: ship aggregates for remote ghosts, wait for own ghosts]
//   compute-post — the vertex-update span.
//
// At the end of compute-pre the owner ships one feature vector per remote
// ghost (edge_feature_dim wide — the width that actually flows into
// vertex-update, honouring the update-first dataflow), chunked to the
// link's max_message_bytes; a chip enters compute-post only after every
// expected chunk for that layer has arrived. The exchange is the only
// synchronisation point per layer, so chips drift apart in between and
// per-layer arrivals are tagged to keep early senders and lagging receivers
// consistent. With one chip the plan is the identity, nothing is exchanged,
// and the cluster run reproduces the plain engine's metrics bit for bit in
// both scheduler modes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/interchip.hpp"
#include "cluster/shard.hpp"
#include "core/aurora.hpp"
#include "sim/trace.hpp"

namespace aurora::cluster {

struct ClusterParams {
  std::uint32_t num_chips = 2;
  ShardStrategy strategy = ShardStrategy::kRange;
  LinkParams link;
  /// Fan the per-chip engine runs (Phase A) out over worker threads. The
  /// timeline replay (Phase C) always runs on one serial Simulator, so
  /// results are bit-identical either way.
  bool parallel = false;
  /// Worker threads for the Phase A fan-out (0 = hardware concurrency;
  /// capped at the hardware threads either way).
  unsigned parallel_jobs = 0;
  /// Optional fault plan: its link degradation windows stretch wire
  /// serialisation on the cluster-run clock. Null is fully inert.
  std::shared_ptr<const fault::FaultPlan> fault_plan;
};

/// One chip's per-layer replay plan on the cluster clock.
struct ChipLayerPlan {
  Cycle seg_pre = 0;
  Cycle seg_post = 0;
  /// Chip-local engine breakdown of the layer (DRAM stream cycles, NoC busy
  /// cycles, reconfiguration cycles) — carried into the enriched
  /// compute-pre kClusterSegment record for the critical-path profiler.
  Cycle dram_cycles = 0;
  Cycle noc_busy_cycles = 0;
  Cycle reconfig_cycles = 0;
  /// Halo chunks this chip ships at the exchange point (dst/bytes/layer
  /// filled in; timing stamped at send).
  std::vector<LinkMessage> outgoing;
  /// Halo chunks this chip must receive before compute-post may start.
  std::uint32_t expected_chunks = 0;
};

/// Replays one chip's timed segments on the shared cluster clock,
/// participating in both lockstep and fast-forward scheduling. All state
/// transitions are pinned to arrival-plus-one boundaries, so results are
/// independent of component registration order.
class ChipProxy final : public sim::Component {
 public:
  /// Sends halos through `link`; records segments and sends into `tracer`
  /// (may be null).
  ChipProxy(std::uint32_t chip, std::vector<ChipLayerPlan> layers,
            InterChipLink* link, sim::Tracer* tracer);

  /// Arrival of one halo chunk (called from the link's delivery path).
  void on_halo(const LinkMessage& msg, Cycle now);

  [[nodiscard]] bool done() const { return state_ == State::kDone; }
  [[nodiscard]] Cycle finish_cycle() const { return finish_cycle_; }
  /// Cycles spent blocked at halo barriers, summed over layers.
  [[nodiscard]] Cycle halo_wait_cycles() const { return halo_wait_cycles_; }
  [[nodiscard]] Bytes halo_bytes_sent() const { return halo_bytes_sent_; }
  [[nodiscard]] Bytes halo_bytes_received() const {
    return halo_bytes_received_;
  }

  void tick(Cycle now) override;
  [[nodiscard]] bool idle() const override { return state_ == State::kDone; }
  [[nodiscard]] Cycle next_event_cycle(Cycle now) const override;
  /// Per-layer arrivals never exceed expectations; after drain every layer's
  /// barrier was fully satisfied and the chip finished its plan.
  void verify_invariants(sim::InvariantReport& report) const override;

 private:
  enum class State : std::uint8_t { kPre, kWaitHalo, kPost, kDone };

  void trace_segment(std::uint32_t kind, Cycle start, Cycle end) const;

  std::uint32_t chip_;
  std::vector<ChipLayerPlan> layers_;
  InterChipLink* link_;
  sim::Tracer* tracer_;

  State state_ = State::kPre;
  std::size_t layer_ = 0;
  Cycle seg_start_ = 0;
  Cycle seg_end_ = 0;
  Cycle wait_start_ = 0;
  Cycle finish_cycle_ = 0;
  Cycle halo_wait_cycles_ = 0;
  Bytes halo_bytes_sent_ = 0;
  Bytes halo_bytes_received_ = 0;
  std::vector<std::uint32_t> arrived_;
  std::vector<Cycle> last_arrival_;
};

/// One chip's outcome of a cluster run.
struct ChipRun {
  /// Chip-local engine metrics accumulated over layers — for a 1-chip
  /// cluster, bit-identical to a plain AuroraAccelerator::run.
  core::RunMetrics metrics;
  /// When the chip finished its last layer on the shared cluster clock.
  Cycle finish_cycle = 0;
  Cycle halo_wait_cycles = 0;
  Bytes halo_bytes_sent = 0;
  Bytes halo_bytes_received = 0;
};

struct ClusterRunMetrics {
  /// Cluster makespan on the shared clock (latest chip finish).
  Cycle total_cycles = 0;
  std::vector<ChipRun> chips;
  /// Final link statistics of the run.
  LinkStats link;
  /// Cluster-level counters (halo traffic, link stalls, barrier waits,
  /// shard metadata), mirroring the per-chip RunMetrics::counters idiom.
  CounterSet counters;
  EdgeId cut_edges = 0;
  VertexId ghost_vertices = 0;
  double replication_factor = 1.0;

  [[nodiscard]] Cycle max_halo_wait_cycles() const;
};

class ClusterEngine {
 public:
  ClusterEngine(const core::AuroraConfig& config, const ClusterParams& params);

  /// Shard `dataset`, run every chip's layers, then replay the cluster
  /// timeline. Honours config.fast_forward (both the per-chip engines and
  /// the shared cluster clock) and config.check_invariants (an
  /// InvariantChecker watches the link and every proxy).
  [[nodiscard]] ClusterRunMetrics run(const graph::Dataset& dataset,
                                      const core::GnnJob& job);

  /// Cluster-clock tracer: chip segments (kClusterSegment) and halo
  /// send/delivery events. Enable before running.
  void set_tracer(sim::Tracer* tracer) { tracer_ = tracer; }
  /// Per-chip engine tracer, forwarded to that chip's accelerator.
  void set_chip_tracer(std::uint32_t chip, sim::Tracer* tracer);

  [[nodiscard]] const ClusterParams& params() const { return params_; }

 private:
  /// Phase C: replay every chip's plan on one shared-clock Simulator, then
  /// record the link statistics, each chip's finish and halo fields and the
  /// makespan into `out`. The link and proxies live only for the replay.
  void run_timeline(std::vector<std::vector<ChipLayerPlan>>&& chip_plans,
                    Cycle bound, ClusterRunMetrics& out);

  core::AuroraConfig config_;
  ClusterParams params_;
  sim::Tracer* tracer_ = nullptr;
  std::vector<sim::Tracer*> chip_tracers_;
};

/// Field-by-field comparison of two cluster runs: total cycles, shard
/// metadata, per-chip engine metrics and halo fields, link stats including
/// every latency histogram bucket, and the counter sets. Returns
/// human-readable mismatch lines; empty means bit-identical. Shared by the
/// differential fuzzer, the bit-identity tests and the perf harness.
[[nodiscard]] std::vector<std::string> diff_cluster_run_metrics(
    const ClusterRunMetrics& a, const ClusterRunMetrics& b);

}  // namespace aurora::cluster
