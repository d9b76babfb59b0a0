#include "pe/pe.hpp"

#include <string>

#include "common/error.hpp"
#include "sim/invariants.hpp"

namespace aurora::pe {

PeModel::PeModel(std::string name, const PeModelParams& params)
    : sim::Component(std::move(name)),
      params_(params),
      datapath_(params.datapath),
      ppu_(params.ppu),
      buffer_(params.bank_buffer_bytes, params.bank_count) {}

void PeModel::submit(PeTask task) {
  AURORA_CHECK(task.op.length > 0 || task.op.kind == PeConfigKind::kBypass);
  queue_.push_back(std::move(task));
  ++stats_.tasks_submitted;
  wake();
}

void PeModel::reset() {
  datapath_ = PeDatapath(params_.datapath);
  buffer_ = BankBuffer(params_.bank_buffer_bytes, params_.bank_count);
  queue_.clear();
  on_complete_ = nullptr;
  running_ = false;
  finish_at_ = 0;
  running_tag_ = 0;
  stats_ = PeStats{};
}

Cycle PeModel::next_event_cycle(Cycle now) const {
  // While a micro-op is in flight nothing can happen before it completes;
  // a non-empty queue with nothing running starts a task on the very next
  // tick; a drained PE has no event at all until the next submit().
  if (running_) return finish_at_;
  if (!queue_.empty()) return now;
  return sim::kNoEvent;
}

Cycle PeModel::task_cycles(const PeTask& task, const PeModelParams& params,
                           PeConfigKind current_config) {
  Cycle cycles = 0;
  if (task.op.kind != current_config) {
    cycles += params.datapath.reconfig_cycles;
  }
  cycles += micro_op_cycles(task.op, params.datapath);
  const Ppu ppu(params.ppu);
  cycles += ppu.activation_cycles(task.post_activation, task.op.length);
  // Bank-buffer traffic overlaps with compute except for the tail writeback.
  const Bytes per_cycle = BankBuffer::kBankWidth * params.bank_count;
  const Cycle write_tail =
      (task.buffer_write_bytes + per_cycle - 1) / per_cycle;
  return cycles + write_tail / 2;
}

void PeModel::tick(Cycle now) {
  if (running_ && now >= finish_at_) {
    running_ = false;
    ++stats_.tasks_completed;
    if (on_complete_) on_complete_(running_tag_, now);
  }
  if (!running_ && !queue_.empty()) {
    const PeTask task = queue_.front();
    queue_.pop_front();

    Cycle cycles = 0;
    const Cycle reconfig = datapath_.configure(task.op.kind);
    cycles += reconfig;
    stats_.reconfig_cycles += reconfig;
    cycles += micro_op_cycles(task.op, params_.datapath);
    cycles += ppu_.activation_cycles(task.post_activation, task.op.length);
    if (task.buffer_read_bytes > 0) {
      // Operand reads overlap with compute; charge energy only.
      (void)buffer_.access(task.buffer_read_bytes, /*is_write=*/false);
    }
    if (task.buffer_write_bytes > 0) {
      const Cycle wr = buffer_.access(task.buffer_write_bytes, true);
      cycles += wr / 2;  // half the writeback drains after the last op
    }
    cycles = std::max<Cycle>(cycles, 1);

    stats_.busy_cycles += cycles;
    stats_.energy += micro_op_events(task.op);
    stats_.energy.fp_adds +=
        Ppu::activation_ops(task.post_activation, task.op.length);
    stats_.energy.sram_large_bytes +=
        task.buffer_read_bytes + task.buffer_write_bytes;

    running_ = true;
    finish_at_ = now + cycles;
    running_tag_ = task.tag;
  }
}

bool PeModel::idle() const { return !running_ && queue_.empty(); }

void PeModel::verify_invariants(sim::InvariantReport& report) const {
  const std::uint64_t accounted =
      stats_.tasks_completed + queue_.size() + (running_ ? 1 : 0);
  report.require(stats_.tasks_submitted == accounted,
                 "tasks submitted == completed + queued + running",
                 std::to_string(stats_.tasks_submitted) + " != " +
                     std::to_string(accounted));
  if (report.drained()) {
    report.require(!running_ && queue_.empty(),
                   "drained: no queued or running task",
                   std::to_string(queue_.size()) + " queued" +
                       (running_ ? ", one running" : ""));
    report.require(stats_.tasks_submitted == stats_.tasks_completed,
                   "drained: tasks submitted == completed",
                   std::to_string(stats_.tasks_submitted) + " != " +
                       std::to_string(stats_.tasks_completed));
  }
}

void PeModel::export_counters(CounterSet& out) const {
  out.inc("pe.tasks", stats_.tasks_completed);
  out.inc("pe.busy_cycles", stats_.busy_cycles);
  out.inc("pe.reconfig_cycles", stats_.reconfig_cycles);
  out.inc("pe.buffer_bytes_read", buffer_.bytes_read());
  out.inc("pe.buffer_bytes_written", buffer_.bytes_written());
}

}  // namespace aurora::pe
