// Execution tracing for the cycle engine: a low-overhead event recorder and
// an ASCII timeline renderer, so a run's phase structure (DRAM loads,
// message waves, PE task bursts, reconfigurations) is inspectable without a
// waveform viewer.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>

#include "common/types.hpp"

namespace aurora::sim {

enum class TraceEvent : std::uint8_t {
  kPacketInjected,
  kPacketDelivered,
  kTaskComplete,
  kDramRequest,
  kReconfigure,
  kTileStart,
  /// A span of GNN-phase activity: `at` is the span's first active cycle,
  /// arg0 the phase index (0 edge-update, 1 aggregation, 2 vertex-update),
  /// arg1 the span length in cycles.
  kPhaseSpan,
  /// A DRAM bulk stream: `at` is the stream's start cycle, arg0 the byte
  /// count, arg1 the cycles until the stream drained. Enriched for the
  /// critical-path profiler: arg2 carries the row-hit count of the stream,
  /// arg3 packs (row misses << 32 | row conflicts), both saturating.
  kDramSpan,
  /// One tile's compute window (everything between the tile's DRAM load and
  /// its writeback): `at` is the window's start cycle, arg0 the tile index,
  /// arg1 the window length in cycles, arg2 the NoC busy cycles inside the
  /// window, arg3 the summed PE busy cycles inside the window.
  kComputeSpan,
  /// Cluster scale-out events (recorded by the ClusterEngine on the shared
  /// cluster clock). A chip execution segment: `at` is the segment's start
  /// cycle, arg0 encodes chip * 4 + kind (0 compute-pre, 1 halo-wait,
  /// 2 compute-post), arg1 the duration in cycles. Compute-pre segments are
  /// enriched with the chip-local engine's breakdown of the segment: arg2 =
  /// DRAM cycles, arg3 packs (NoC busy cycles << 32 | reconfig cycles),
  /// both saturating. Zero-length segments are recorded too, so the
  /// profiler can rely on the strict per-chip pre/wait/post layer cadence.
  kClusterSegment,
  /// A halo message entering the inter-chip link: arg0 =
  /// pack_u32_pair(src_chip, dst_chip), arg1 the payload bytes, arg2 the
  /// GNN layer the halo belongs to.
  kHaloSent,
  /// A halo message delivered at its destination chip (same encoding).
  kHaloDelivered,
  /// Run delimiters bracketing one engine run so a tracer shared across
  /// layers/requests can be segmented (each run's cycle axis restarts at
  /// 0). kRunBegin: arg0 = run kind (0 single-chip layer, 1 cluster run),
  /// arg1 = tile count (chip runs) or chip count (cluster runs). kRunEnd:
  /// `at` and arg0 = the run's total cycles, arg1 = the non-overlapped
  /// reconfiguration tail (chip runs; 0 for cluster runs).
  kRunBegin,
  kRunEnd,
  /// Fault-plan annotations (src/fault). Chip transitions are recorded on
  /// the control-plane (serving) clock: arg0 = chip index. Link transitions
  /// on the cluster-run clock: arg0 = pack_u32_pair(src_chip, dst_chip),
  /// arg1 = the degradation multiplier in permille (1500 = 1.5x; 1000 on
  /// restore).
  kChipDown,
  kChipUp,
  kLinkDegraded,
  kLinkRestored,
  /// Dynamic-graph workload annotations (src/workload), recorded on the
  /// control-plane (serving/arrival) clock. A streaming graph mutation:
  /// arg0 = mutation kind (0 edge-add, 1 edge-remove, 2 vertex-add,
  /// 3 vertex-remove), arg1 = pack_u32_pair(u, v) (v = 0 for vertex ops),
  /// arg2 = the logical directed edge count after the mutation.
  kGraphMutation,
  /// The shard churn tracker crossed its drift threshold and the planner
  /// recut the graph: arg0 = chip count, arg1 = the fresh plan's cut edges,
  /// arg2 = the drifted cut-edge count that triggered the recut, arg3 = the
  /// mutations absorbed since the previous plan.
  kReshard,
};

/// Run kinds carried in kRunBegin's arg0.
inline constexpr std::uint64_t kRunKindChip = 0;
inline constexpr std::uint64_t kRunKindCluster = 1;

/// Saturating (hi << 32 | lo) packing for enriched trace args carrying two
/// counts in one 64-bit payload.
[[nodiscard]] constexpr std::uint64_t pack_u32_pair(std::uint64_t hi,
                                                    std::uint64_t lo) {
  constexpr std::uint64_t kMax = 0xffffffffull;
  return ((hi < kMax ? hi : kMax) << 32) | (lo < kMax ? lo : kMax);
}
[[nodiscard]] constexpr std::uint64_t unpack_u32_hi(std::uint64_t packed) {
  return packed >> 32;
}
[[nodiscard]] constexpr std::uint64_t unpack_u32_lo(std::uint64_t packed) {
  return packed & 0xffffffffull;
}

[[nodiscard]] const char* trace_event_name(TraceEvent e);

struct TraceRecord {
  Cycle at = 0;
  TraceEvent kind{};
  /// Event-specific payloads (node id, byte count, tile index, ...).
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
  /// Enrichment payloads carrying the dependency/attribution detail the
  /// critical-path profiler consumes (see the event docs above); zero for
  /// events that don't use them.
  std::uint64_t arg2 = 0;
  std::uint64_t arg3 = 0;
};

/// Event recorder. Disabled tracers drop events with a single branch, so a
/// tracer can always be plumbed through and only pay when switched on.
/// Memory is bounded: past `capacity()` records the oldest are evicted
/// (ring-buffer style) and `dropped()` counts what was lost, so tracing a
/// long run degrades to a suffix trace instead of exhausting memory.
class Tracer {
 public:
  /// ~96 MiB of records at the default — far beyond any test workload, yet
  /// a hard ceiling for production-scale runs.
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 21;

  void enable(bool on = true) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  void record(Cycle at, TraceEvent kind, std::uint64_t arg0 = 0,
              std::uint64_t arg1 = 0, std::uint64_t arg2 = 0,
              std::uint64_t arg3 = 0) {
    if (!enabled_) return;
    if (records_.size() >= capacity_) {
      records_.pop_front();
      ++dropped_;
    }
    records_.push_back({at, kind, arg0, arg1, arg2, arg3});
  }

  /// Maximum records retained; older records are evicted beyond it.
  void set_capacity(std::size_t capacity);
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Records evicted since the last clear().
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  void clear() {
    records_.clear();
    dropped_ = 0;
  }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] const std::deque<TraceRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::uint64_t count(TraceEvent kind) const;

  /// ASCII timeline: one row per event kind, `buckets` columns over the
  /// run's cycle span, glyph darkness ~ event density.
  [[nodiscard]] std::string render_timeline(std::size_t buckets = 64) const;

  /// "cycle,event,arg0,arg1,arg2,arg3" rows with a header.
  void write_csv(std::ostream& out) const;

 private:
  bool enabled_ = false;
  std::size_t capacity_ = kDefaultCapacity;
  std::deque<TraceRecord> records_;
  std::uint64_t dropped_ = 0;
};

}  // namespace aurora::sim
