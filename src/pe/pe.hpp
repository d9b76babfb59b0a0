// The processing-element timing component: a serial execution engine that
// drains a queue of micro-op tasks through the reconfigurable datapath,
// the PPU and the bank buffer, accounting cycles and energy events.
#pragma once

#include <deque>
#include <functional>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "energy/energy_model.hpp"
#include "pe/buffers.hpp"
#include "pe/datapath.hpp"
#include "pe/ppu.hpp"
#include "sim/component.hpp"

namespace aurora::pe {

/// One unit of work for a PE: a datapath micro-op plus optional
/// post-processing and the bank-buffer traffic it implies.
struct PeTask {
  MicroOp op;
  Activation post_activation = Activation::kNone;
  /// Bank-buffer bytes read as operands / written as results.
  Bytes buffer_read_bytes = 0;
  Bytes buffer_write_bytes = 0;
  /// Opaque handle returned in the completion callback.
  std::uint64_t tag = 0;
};

struct PeStats {
  std::uint64_t tasks_submitted = 0;
  std::uint64_t tasks_completed = 0;
  Cycle busy_cycles = 0;
  Cycle reconfig_cycles = 0;
  energy::EnergyEvents energy;
};

struct PeModelParams {
  PeParams datapath;
  PpuParams ppu;
  Bytes bank_buffer_bytes = 100 * 1024;
  std::uint32_t bank_count = 8;
};

/// Timing model of one PE. Tasks run one at a time in FIFO order; the
/// completion callback fires on the cycle the result is written back.
class PeModel final : public sim::Component {
 public:
  using CompletionCallback = std::function<void(std::uint64_t tag, Cycle now)>;

  PeModel(std::string name, const PeModelParams& params);

  void submit(PeTask task);
  void set_completion_callback(CompletionCallback cb) {
    on_complete_ = std::move(cb);
  }

  /// Return the PE to its just-constructed state (stats, queue, datapath
  /// wiring, buffer counters) so one pool of PEs can be reused across
  /// layer runs without per-run heap churn.
  void reset();

  void tick(Cycle now) override;
  [[nodiscard]] bool idle() const override;
  /// A PE's only event is the completion of the in-flight micro-op; while
  /// one is running every earlier tick is a no-op.
  [[nodiscard]] Cycle next_event_cycle(Cycle now) const override;

  /// Task conservation: submitted == completed + queued + running; after
  /// drain nothing may remain queued or running.
  void verify_invariants(sim::InvariantReport& report) const override;

  [[nodiscard]] const PeStats& stats() const { return stats_; }

  /// Merge this PE's event counts into `out` (prefixed "pe.", summed across
  /// PEs by the caller).
  void export_counters(CounterSet& out) const;

  [[nodiscard]] const PeModelParams& params() const { return params_; }
  [[nodiscard]] BankBuffer& bank_buffer() { return buffer_; }
  [[nodiscard]] const BankBuffer& bank_buffer() const { return buffer_; }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }

  /// Cycle cost of a task on this PE (static — used by the partitioner's
  /// time estimates as well).
  [[nodiscard]] static Cycle task_cycles(const PeTask& task,
                                         const PeModelParams& params,
                                         PeConfigKind current_config);

 private:
  PeModelParams params_;
  PeDatapath datapath_;
  Ppu ppu_;
  BankBuffer buffer_;
  std::deque<PeTask> queue_;
  CompletionCallback on_complete_;
  bool running_ = false;
  Cycle finish_at_ = 0;
  std::uint64_t running_tag_ = 0;
  PeStats stats_;
};

}  // namespace aurora::pe
