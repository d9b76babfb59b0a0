#include "dram/dram.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "sim/invariants.hpp"
#include "sim/sampler.hpp"

namespace aurora::dram {

DramModel::DramModel(const DramConfig& config)
    : sim::Component("dram"), config_(config) {
  AURORA_CHECK(config.num_channels > 0);
  AURORA_CHECK(config.banks_per_channel > 0);
  AURORA_CHECK(config.burst_bytes > 0);
  AURORA_CHECK(config.row_bytes % config.burst_bytes == 0);
  channels_.resize(config.num_channels);
  for (auto& ch : channels_) {
    ch.banks.resize(config.banks_per_channel);
    ch.next_refresh_at = config.timing.t_refi;
  }
  for (const DramStallWindow& w : config.stall_windows) {
    AURORA_CHECK_MSG(w.channel == DramStallWindow::kAllChannels ||
                         w.channel < config.num_channels,
                     "stall window addresses a missing channel");
    AURORA_CHECK_MSG(w.end > w.begin, "stall window must be non-empty");
  }
}

Cycle DramModel::stall_until(std::uint32_t channel, Cycle now) const {
  // Latest end among windows covering `now` for this channel (windows may
  // overlap when per-channel and all-channel faults coincide). The list is
  // tiny (fault plans schedule a handful of windows), so a linear scan at
  // event points only is cheap.
  Cycle until = 0;
  for (const DramStallWindow& w : config_.stall_windows) {
    if (w.channel != DramStallWindow::kAllChannels && w.channel != channel) {
      continue;
    }
    if (w.begin <= now && now < w.end) until = std::max(until, w.end);
  }
  return until;
}

std::uint32_t DramModel::channel_of(Bytes addr) const {
  // Burst-interleaved channel mapping spreads sequential streams across all
  // channels, the common high-bandwidth accelerator configuration.
  return static_cast<std::uint32_t>((addr / config_.burst_bytes) %
                                    config_.num_channels);
}

std::uint32_t DramModel::bank_of(Bytes addr) const {
  // Row-granular bank mapping: a sequential stream fills a whole row in one
  // bank before moving on, preserving row-buffer locality.
  return static_cast<std::uint32_t>(
      (addr / (config_.row_bytes * config_.num_channels)) %
      config_.banks_per_channel);
}

Bytes DramModel::row_of(Bytes addr) const {
  return addr / (config_.row_bytes * config_.num_channels *
                 config_.banks_per_channel);
}

void DramModel::enqueue(DramRequest request, Cycle now) {
  AURORA_CHECK(request.bytes > 0);
  const Bytes first = request.addr / config_.burst_bytes;
  const Bytes last = (request.addr + request.bytes - 1) / config_.burst_bytes;
  const auto num_bursts = static_cast<std::uint32_t>(last - first + 1);

  Inflight inf;
  inf.request = std::move(request);
  inf.bursts_remaining = num_bursts;
  inf.enqueued_at = now;
  const auto parent = static_cast<std::uint32_t>(inflight_.size());
  const bool is_write = inf.request.is_write;
  inflight_.push_back(std::move(inf));

  for (std::uint32_t i = 0; i < num_bursts; ++i) {
    Burst b;
    b.addr = (first + i) * config_.burst_bytes;
    b.is_write = is_write;
    b.parent = parent;
    channels_[channel_of(b.addr)].queue.push_back(b);
    ++pending_bursts_;
  }
  wake();
  ++stats_.requests;
  stats_.bursts += num_bursts;
  if (is_write) {
    stats_.bytes_written += inflight_[parent].request.bytes;
  } else {
    stats_.bytes_read += inflight_[parent].request.bytes;
  }
}

void DramModel::try_issue(Channel& ch, std::uint32_t index, Cycle now) {
  // Refresh: at each t_refi boundary the channel blocks for t_rfc and every
  // row buffer closes. A refresh on a fully idle channel (no queued work,
  // all rows closed) changes no observable state, so it is neither counted
  // nor scheduled (see next_event_cycle); the catch-up loop below re-syncs
  // the deadline — stepping t_refi at a time so it stays on the tREFI grid —
  // and accounts every missed interval once activity resumes. Lockstep and
  // fast-forward therefore agree on stats_.refreshes at every cycle.
  const DramTiming& timing = config_.timing;
  if (timing.t_refi > 0 && now >= ch.next_refresh_at &&
      (!ch.queue.empty() || ch.open_rows > 0)) {
    Cycle deadline = ch.next_refresh_at;
    while (deadline <= now) {
      ch.refresh_until = deadline + timing.t_rfc;
      ++ch.refreshes;
      ++stats_.refreshes;
      deadline += timing.t_refi;
    }
    ch.next_refresh_at = deadline;
    for (auto& bank : ch.banks) {
      bank.row_open = false;
      bank.ready_at = std::max(bank.ready_at, ch.refresh_until);
    }
    ch.open_rows = 0;
  }
  if (now < ch.refresh_until) return;
  // Fault stall: no new column commands during the window. Checked after
  // the refresh block above so refresh bookkeeping (row closes, counters)
  // stays on the tREFI grid through a stall — the refresh invariants hold
  // under fault injection too.
  if (now < stall_until(index, now)) return;
  if (ch.queue.empty()) return;
  // Column commands pipeline ahead of the data bus, but only within a short
  // booking horizon — deep command queues ahead of data would be optimistic.
  // The horizon must cover CAS latency plus one burst or the bus can never
  // be fully saturated.
  if (ch.bus_free_at >
      now + config_.timing.t_cl + 2 * config_.timing.t_burst) {
    return;
  }

  const std::size_t window = std::min<std::size_t>(ch.queue.size(),
                                                   config_.queue_depth);
  // FR-FCFS: oldest row-hit burst first; if none is ready, oldest burst whose
  // bank can accept a command.
  std::size_t pick = window;  // sentinel: nothing issuable
  for (std::size_t i = 0; i < window; ++i) {
    const Burst& b = ch.queue[i];
    const BankState& bank = ch.banks[bank_of(b.addr)];
    if (bank.ready_at > now) continue;
    if (bank.row_open && bank.open_row == row_of(b.addr)) {
      pick = i;
      break;  // first ready row hit wins
    }
    if (pick == window) pick = i;  // remember oldest ready as fallback
  }
  if (pick == window) return;

  const Burst burst = ch.queue[pick];
  ch.queue.erase(ch.queue.begin() + static_cast<std::ptrdiff_t>(pick));

  BankState& bank = ch.banks[bank_of(burst.addr)];
  const Bytes row = row_of(burst.addr);
  const DramTiming& t = config_.timing;
  Cycle access_delay;
  if (bank.row_open && bank.open_row == row) {
    access_delay = t.t_cl;
    ++stats_.row_hits;
  } else if (!bank.row_open) {
    access_delay = t.t_rcd + t.t_cl;
    ++stats_.row_misses;
  } else {
    access_delay = t.t_rp + t.t_rcd + t.t_cl;
    ++stats_.row_conflicts;
  }
  if (!bank.row_open) ++ch.open_rows;
  bank.row_open = true;
  bank.open_row = row;

  // Read<->write switches pay the bus turnaround penalty.
  Cycle turnaround = 0;
  if (ch.bus_used && ch.last_was_write != burst.is_write) {
    turnaround = t.t_turnaround;
    ++stats_.bus_turnarounds;
  }
  ch.last_was_write = burst.is_write;
  ch.bus_used = true;

  const Cycle data_start =
      std::max(now + access_delay, ch.bus_free_at + turnaround);
  const Cycle completion = data_start + t.t_burst;
  ch.bus_free_at = completion;
  // Column commands to an open row pipeline at the burst rate (tCCD); only
  // the activate/precharge portion of the access serialises the bank.
  bank.ready_at = now + (access_delay - t.t_cl) + t.t_burst;
  last_completion_ = std::max(last_completion_, completion);

  complete_burst(burst, completion);
}

void DramModel::complete_burst(const Burst& burst, Cycle completion) {
  --pending_bursts_;
  ++completed_bursts_;
  Inflight& inf = inflight_[burst.parent];
  AURORA_CHECK(inf.bursts_remaining > 0);
  if (--inf.bursts_remaining == 0) {
    inf.done = true;
    if (inf.request.is_write) {
      completed_bytes_written_ += inf.request.bytes;
    } else {
      completed_bytes_read_ += inf.request.bytes;
    }
    stats_.request_latency.add(static_cast<double>(completion - inf.enqueued_at));
    stats_.request_latency_hist.add(
        static_cast<double>(completion - inf.enqueued_at));
    if (inf.request.on_complete) inf.request.on_complete(completion);
    inf.request.on_complete = nullptr;  // release captured state
  }
}

void DramModel::tick(Cycle now) {
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    try_issue(channels_[i], static_cast<std::uint32_t>(i), now);
  }
  // The model stays busy until the last scheduled data beat has returned,
  // even though completions are computed at issue time.
  busy_ = pending_bursts_ > 0 || now + 1 < last_completion_;
  // Compact the inflight table opportunistically once everything drained,
  // keeping long simulations from growing without bound.
  if (pending_bursts_ == 0 && inflight_.size() > 4096) inflight_.clear();
}

bool DramModel::idle() const { return !busy_ && pending_bursts_ == 0; }

Cycle DramModel::next_event_cycle(Cycle now) const {
  const DramTiming& t = config_.timing;
  Cycle next = sim::kNoEvent;
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    const Channel& ch = channels_[i];
    // A refresh deadline is an event only while it can change observable
    // state: queued work to delay, or open rows to close. On a fully idle
    // channel refresh is a no-op (try_issue's liveness guard matches), so
    // the model can go quiescent instead of waking every tREFI.
    if (t.t_refi > 0 && (!ch.queue.empty() || ch.open_rows > 0)) {
      next = std::min(next, ch.next_refresh_at);
    }
    if (ch.queue.empty()) continue;
    if (now < ch.refresh_until) {
      next = std::min(next, ch.refresh_until);
      continue;
    }
    // Fault stall mirror of try_issue: the channel can do nothing but
    // refresh bookkeeping until the window ends.
    const Cycle stall = stall_until(static_cast<std::uint32_t>(i), now);
    if (now < stall) {
      next = std::min(next, stall);
      continue;
    }
    // Command booking horizon: no column command issues while the data bus
    // is booked too far ahead; it reopens at a known cycle.
    const Cycle horizon = t.t_cl + 2 * t.t_burst;
    if (ch.bus_free_at > now + horizon) {
      next = std::min(next, ch.bus_free_at - horizon);
      continue;
    }
    // FR-FCFS window: a burst whose bank is ready issues on the next tick;
    // otherwise the earliest bank-ready cycle is exact from tRCD/tRP/tCL.
    const std::size_t window =
        std::min<std::size_t>(ch.queue.size(), config_.queue_depth);
    for (std::size_t q = 0; q < window; ++q) {
      const Cycle ready = ch.banks[bank_of(ch.queue[q].addr)].ready_at;
      if (ready <= now) return now;
      next = std::min(next, ready);
    }
  }
  // The busy flag clears on the tick after the last scheduled data beat;
  // everything in between is a no-op.
  if (pending_bursts_ == 0 && busy_ && last_completion_ > 0) {
    next = std::min(next, last_completion_ - 1);
  }
  return next;
}

void DramModel::verify_invariants(sim::InvariantReport& report) const {
  const DramTiming& t = config_.timing;
  const Cycle now = report.now();

  std::uint64_t queued = 0;
  for (const auto& ch : channels_) queued += ch.queue.size();
  report.require(stats_.bursts == completed_bursts_ + pending_bursts_,
                 "bursts enqueued == completed + pending",
                 std::to_string(stats_.bursts) + " != " +
                     std::to_string(completed_bursts_) + " + " +
                     std::to_string(pending_bursts_));
  report.require(pending_bursts_ == queued,
                 "pending bursts == sum of channel queues",
                 std::to_string(pending_bursts_) + " != " +
                     std::to_string(queued));
  report.require(completed_bytes_read_ <= stats_.bytes_read &&
                     completed_bytes_written_ <= stats_.bytes_written,
                 "completed request bytes <= enqueued bytes");

  std::uint64_t channel_refreshes = 0;
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    const Channel& ch = channels_[i];
    const std::string tag = "channel " + std::to_string(i) + ": ";
    channel_refreshes += ch.refreshes;
    std::uint32_t rows = 0;
    for (const auto& bank : ch.banks) rows += bank.row_open ? 1 : 0;
    report.require(ch.open_rows == rows,
                   "open-row cache matches bank state",
                   tag + std::to_string(ch.open_rows) + " != " +
                       std::to_string(rows));
    if (t.t_refi == 0) {
      report.require(ch.refreshes == 0, "no refreshes with tREFI disabled",
                     tag + std::to_string(ch.refreshes));
      continue;
    }
    // The drift bug this guards against: rescheduling as now + tREFI walks
    // the deadline off the grid of tREFI multiples.
    report.require(
        ch.next_refresh_at > 0 && ch.next_refresh_at % t.t_refi == 0,
        "refresh deadline stays on the tREFI grid",
        tag + "next_refresh_at=" + std::to_string(ch.next_refresh_at) +
            " tREFI=" + std::to_string(t.t_refi));
    report.require(ch.refreshes + 1 == ch.next_refresh_at / t.t_refi,
                   "refresh count consistent with next deadline",
                   tag + std::to_string(ch.refreshes) + " + 1 != " +
                       std::to_string(ch.next_refresh_at / t.t_refi));
    report.require(ch.refreshes <= now / t.t_refi,
                   "refresh count bounded by elapsed/tREFI",
                   tag + std::to_string(ch.refreshes) + " > " +
                       std::to_string(now / t.t_refi));
    // A channel with open rows has a refresh event pending, so it has been
    // ticked through every deadline it has reached and must be exactly
    // caught up. Which deadlines it has reached depends on context: an
    // interval check runs inside the tick at `now` (after this model's own
    // tick), so deadlines <= now are counted; a drain check runs after
    // run_until_idle, whose ticks cover cycles < now, so a deadline landing
    // exactly on the drain cycle is legitimately still pending.
    if (ch.open_rows > 0) {
      const Cycle ticked_through = report.drained() && now > 0 ? now - 1 : now;
      report.require(ch.refreshes == ticked_through / t.t_refi,
                     "open-row channel refresh count == elapsed/tREFI",
                     tag + std::to_string(ch.refreshes) + " != " +
                         std::to_string(ticked_through / t.t_refi));
    }
  }
  report.require(channel_refreshes == stats_.refreshes,
                 "per-channel refresh counts sum to the stats counter",
                 std::to_string(channel_refreshes) + " != " +
                     std::to_string(stats_.refreshes));

  if (report.drained()) {
    report.require(pending_bursts_ == 0 && queued == 0,
                   "drained: no pending bursts",
                   std::to_string(pending_bursts_) + " pending, " +
                       std::to_string(queued) + " queued");
    report.require(completed_bytes_read_ == stats_.bytes_read,
                   "drained: bytes read == completed request bytes",
                   std::to_string(completed_bytes_read_) + " != " +
                       std::to_string(stats_.bytes_read));
    report.require(completed_bytes_written_ == stats_.bytes_written,
                   "drained: bytes written == completed request bytes",
                   std::to_string(completed_bytes_written_) + " != " +
                       std::to_string(stats_.bytes_written));
  }
}

void DramModel::export_counters(CounterSet& out) const {
  out.inc("dram.requests", stats_.requests);
  out.inc("dram.bursts", stats_.bursts);
  out.inc("dram.row_hits", stats_.row_hits);
  out.inc("dram.row_misses", stats_.row_misses);
  out.inc("dram.row_conflicts", stats_.row_conflicts);
  out.inc("dram.refreshes", stats_.refreshes);
  out.inc("dram.bus_turnarounds", stats_.bus_turnarounds);
  out.inc("dram.bytes_read", stats_.bytes_read);
  out.inc("dram.bytes_written", stats_.bytes_written);
}

void DramModel::watch_series(sim::Sampler& sampler) const {
  sampler.watch("dram.bursts", &stats_.bursts);
  sampler.watch("dram.bursts_pending",
                [this] { return static_cast<double>(pending_bursts_); });
  sampler.watch("dram.bytes_read", &stats_.bytes_read);
  sampler.watch("dram.bytes_written", &stats_.bytes_written);
  sampler.watch("dram.refreshes", &stats_.refreshes);
  sampler.watch("dram.requests", &stats_.requests);
  sampler.watch("dram.row_conflicts", &stats_.row_conflicts);
  sampler.watch("dram.row_hits", &stats_.row_hits);
  sampler.watch("dram.row_misses", &stats_.row_misses);
}

}  // namespace aurora::dram
