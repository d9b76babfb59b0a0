// Cycle-level DRAM model.
//
// Substitution note (DESIGN.md §1): the paper obtains off-package time from
// DRAMSim2. This module is a from-scratch reimplementation of the relevant
// behaviour: banked DDR devices with open-row policy, FR-FCFS scheduling,
// per-channel data buses, and the classic tRCD/tRP/tCL/tBL timing state
// machine. All timing parameters are expressed in *accelerator* clock cycles
// (700 MHz) so the whole simulation runs in one clock domain.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "sim/component.hpp"

namespace aurora::sim {
class Sampler;
}

namespace aurora::dram {

/// DDR timing in accelerator cycles (defaults approximate DDR3-1600 timings
/// converted to a 700 MHz controller clock).
struct DramTiming {
  Cycle t_rcd = 10;  // ACTIVATE -> column command
  Cycle t_rp = 10;   // PRECHARGE -> ACTIVATE
  Cycle t_cl = 10;   // column command -> first data beat
  Cycle t_burst = 4; // data-bus beats per 64-byte burst
  /// Refresh cadence: every t_refi cycles each channel blocks for t_rfc and
  /// all its row buffers close. t_refi = 0 disables refresh.
  Cycle t_refi = 5460;  // ~7.8 us at 700 MHz
  Cycle t_rfc = 180;
  /// Bus turnaround penalty when the data bus switches between reads and
  /// writes (tWTR/tRTW combined).
  Cycle t_turnaround = 4;
};

/// Fault-injected controller stall: during [begin, end) the addressed
/// channel issues no new column commands (already-scheduled data beats
/// finish, refresh bookkeeping proceeds — the stall models a controller
/// back-off, not a power loss). channel == kAllChannels stalls every
/// channel. Windows come from a fault::FaultPlan; an empty list is inert.
struct DramStallWindow {
  static constexpr std::uint32_t kAllChannels = 0xFFFFFFFFu;
  std::uint32_t channel = kAllChannels;
  Cycle begin = 0;
  Cycle end = 0;
};

struct DramConfig {
  std::uint32_t num_channels = 4;
  std::uint32_t banks_per_channel = 8;
  Bytes row_bytes = 2048;       // row-buffer size
  Bytes burst_bytes = 64;       // bytes delivered per burst
  std::uint32_t queue_depth = 64;  // per-channel scheduler window
  DramTiming timing;
  /// Sorted-by-begin fault stall windows (see DramStallWindow).
  std::vector<DramStallWindow> stall_windows;

  /// Peak bandwidth in bytes per accelerator cycle (for reporting only).
  [[nodiscard]] double peak_bytes_per_cycle() const {
    return static_cast<double>(num_channels) *
           static_cast<double>(burst_bytes) /
           static_cast<double>(timing.t_burst);
  }
};

/// One memory request. Requests larger than one burst are split internally;
/// the callback fires when the last burst completes.
struct DramRequest {
  Bytes addr = 0;
  Bytes bytes = 0;
  bool is_write = false;
  std::function<void(Cycle completion)> on_complete;
};

struct DramStats {
  std::uint64_t requests = 0;
  std::uint64_t bursts = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;     // bank idle, row activate needed
  std::uint64_t row_conflicts = 0;  // different row open, precharge needed
  /// Refresh commands accounted. A channel with pending work or open rows
  /// counts every tREFI deadline as it passes; a fully idle channel (empty
  /// queue, all rows closed) accounts its no-op refreshes lazily, in one
  /// catch-up step, when activity resumes — so the counter is identical
  /// under lockstep and fast-forward at every observable cycle.
  std::uint64_t refreshes = 0;
  std::uint64_t bus_turnarounds = 0;  // read<->write direction switches
  Bytes bytes_read = 0;
  Bytes bytes_written = 0;
  RunningStat request_latency;
  /// Enqueue-to-completion latency distribution of whole requests
  /// (canonical layout, so it merges into RunMetrics::dram_request_latency).
  Histogram request_latency_hist{kDramLatencyBucketCycles, kDramLatencyBuckets};

  [[nodiscard]] Bytes total_bytes() const { return bytes_read + bytes_written; }
  [[nodiscard]] double row_hit_rate() const {
    const auto denom = row_hits + row_misses + row_conflicts;
    return denom == 0 ? 0.0
                      : static_cast<double>(row_hits) /
                            static_cast<double>(denom);
  }
};

/// The memory controller + devices. Tick once per accelerator cycle.
class DramModel final : public sim::Component {
 public:
  explicit DramModel(const DramConfig& config);

  /// Enqueue a request at the current cycle. Unlimited ingress queue; the
  /// per-channel scheduling window is bounded by config.queue_depth.
  void enqueue(DramRequest request, Cycle now);

  void tick(Cycle now) override;
  [[nodiscard]] bool idle() const override;
  /// Exact next-work cycle from the timing state machine: the earliest of
  /// any channel's refresh deadline, refresh completion, command-booking
  /// horizon opening, or queued burst whose bank becomes ready
  /// (tRCD/tRP/tCL/tBL all yield exact readiness cycles). A refresh
  /// deadline is an event only while the channel has pending work or open
  /// rows; on a fully idle channel the refresh is a state no-op, so the
  /// wakeup is skipped and the accounting catches up (try_issue's tREFI
  /// catch-up loop) when activity resumes.
  [[nodiscard]] Cycle next_event_cycle(Cycle now) const override;

  /// Conservation checks: bursts enqueued == completed + queued, completed
  /// request bytes match the byte counters after drain, and each channel's
  /// refresh count stays on the tREFI grid (see docs/architecture.md,
  /// "Invariants").
  void verify_invariants(sim::InvariantReport& report) const override;

  [[nodiscard]] const DramStats& stats() const { return stats_; }
  [[nodiscard]] const DramConfig& config() const { return config_; }

  /// Merge this component's event counts into `out` (prefixed "dram.").
  void export_counters(CounterSet& out) const;

  /// Watch the "dram." traffic counters and the pending-burst gauge on
  /// `sampler`, in name order. The probes point into this model, so the
  /// caller detaches them before the model is destroyed.
  void watch_series(sim::Sampler& sampler) const;

 private:
  struct Burst {
    Bytes addr = 0;
    bool is_write = false;
    std::uint32_t parent = 0;  // index into inflight_ requests
  };
  struct Inflight {
    DramRequest request;
    std::uint32_t bursts_remaining = 0;
    Cycle enqueued_at = 0;
    bool done = false;
  };
  struct BankState {
    bool row_open = false;
    Bytes open_row = 0;
    Cycle ready_at = 0;  // bank available for a new column command
  };
  struct Channel {
    std::deque<Burst> queue;
    std::vector<BankState> banks;
    Cycle bus_free_at = 0;
    Cycle next_refresh_at = 0;
    Cycle refresh_until = 0;
    /// Banks with an open row (cached so the refresh no-op test in
    /// next_event_cycle and try_issue is O(1)).
    std::uint32_t open_rows = 0;
    /// Refresh commands accounted on this channel (tREFI deadlines
    /// processed); feeds the per-channel refresh-cadence invariant.
    std::uint64_t refreshes = 0;
    bool last_was_write = false;
    bool bus_used = false;
  };

  [[nodiscard]] std::uint32_t channel_of(Bytes addr) const;
  [[nodiscard]] std::uint32_t bank_of(Bytes addr) const;
  [[nodiscard]] Bytes row_of(Bytes addr) const;
  /// End of the fault stall window covering `now` on `channel` (0 if none).
  [[nodiscard]] Cycle stall_until(std::uint32_t channel, Cycle now) const;
  void try_issue(Channel& ch, std::uint32_t index, Cycle now);
  void complete_burst(const Burst& burst, Cycle completion);

  DramConfig config_;
  std::vector<Channel> channels_;
  std::vector<Inflight> inflight_;
  std::uint64_t pending_bursts_ = 0;
  /// Conservation counters for verify_invariants: bursts retired and the
  /// byte totals of fully completed requests (stats_.bytes_* count at
  /// enqueue; after drain the two views must agree).
  std::uint64_t completed_bursts_ = 0;
  Bytes completed_bytes_read_ = 0;
  Bytes completed_bytes_written_ = 0;
  Cycle last_completion_ = 0;
  bool busy_ = false;
  DramStats stats_;
};

}  // namespace aurora::dram
