#include "cluster/cluster_scheduler.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/error.hpp"

namespace aurora::cluster {

namespace {

/// First cycle a request whose leading DRAM span is `lead` can start on
/// `timeline`: the lead hides under the previous request's compute tail,
/// and nothing starts before `not_before`.
Cycle start_on(const core::ChipTimeline& timeline, Cycle lead,
               Cycle not_before) {
  const Cycle overlap = std::min(timeline.prev_compute_tail, lead);
  const Cycle earliest =
      timeline.busy_until >= overlap ? timeline.busy_until - overlap : 0;
  return std::max(not_before, earliest);
}

}  // namespace

const char* dispatch_mode_name(DispatchMode m) {
  switch (m) {
    case DispatchMode::kDataParallel:
      return "data-parallel";
    case DispatchMode::kShardParallel:
      return "shard-parallel";
  }
  throw Error("invalid DispatchMode");
}

DispatchMode dispatch_mode_by_name(const std::string& name,
                                   const std::string& what) {
  for (DispatchMode mode :
       {DispatchMode::kDataParallel, DispatchMode::kShardParallel}) {
    const std::string full = dispatch_mode_name(mode);
    if (name == full || name + "-parallel" == full) return mode;
  }
  throw Error("unknown " + what + "=" + name +
              " (accepted: data, shard, data-parallel, shard-parallel)");
}

ClusterScheduler::ClusterScheduler(const core::AuroraConfig& config,
                                   const ClusterParams& params)
    : config_(config), params_(params) {
  AURORA_CHECK(params.num_chips >= 1);
}

void ClusterScheduler::reset() {
  chips_.clear();
  chip_timelines_.clear();
  engine_.reset();
  shard_timeline_ = core::ChipTimeline{};
  service_cache_.clear();
}

void ClusterScheduler::ensure_chips() {
  if (!chips_.empty()) return;
  const std::uint32_t n = params_.num_chips;
  // One accelerator per chip, reused across the requests it serves, so
  // partition/mapping state carries over exactly as on a single chip.
  chips_.reserve(n);
  for (std::uint32_t c = 0; c < n; ++c) {
    chips_.push_back(std::make_unique<core::AuroraAccelerator>(config_));
    if (tracer_ != nullptr) chips_.back()->set_tracer(tracer_);
  }
  chip_timelines_.assign(n, core::ChipTimeline{});
}

void ClusterScheduler::ensure_engine() {
  if (engine_ != nullptr) return;
  engine_ = std::make_unique<ClusterEngine>(config_, params_);
  if (tracer_ != nullptr) engine_->set_tracer(tracer_);
}

const ClusterScheduler::Service* ClusterScheduler::cache_lookup(
    const std::string& key) const {
  if (tracer_ != nullptr) return nullptr;
  const auto it = service_cache_.find(key);
  return it == service_cache_.end() ? nullptr : &it->second;
}

const ClusterScheduler::Service& ClusterScheduler::remember(std::string key,
                                                            Service& fresh) {
  if (tracer_ != nullptr) return fresh;
  return service_cache_[std::move(key)] = std::move(fresh);
}

Cycle ClusterScheduler::next_free(DispatchMode mode) const {
  if (mode == DispatchMode::kShardParallel) {
    // Dispatch-time fallback covers gang chips that are down when the next
    // request probes its start, so the shard timeline needs no adjustment.
    return shard_timeline_.busy_until;
  }
  if (chips_.empty()) return 0;
  const fault::FaultPlan* plan = active_fault_plan();
  Cycle free = fault::kNever;
  for (std::size_t c = 0; c < chip_timelines_.size(); ++c) {
    Cycle f = chip_timelines_[c].busy_until;
    if (plan != nullptr) {
      f = plan->chip_up_after(static_cast<std::uint32_t>(c), f);
      if (f == fault::kNever) continue;
    }
    free = std::min(free, f);
  }
  if (free == fault::kNever) {
    // Every chip is permanently down. Keep the clock finite — dispatches
    // will report no_capacity and the queue drains as permanent failures.
    free = chip_timelines_[0].busy_until;
    for (const core::ChipTimeline& t : chip_timelines_) {
      free = std::min(free, t.busy_until);
    }
  }
  return free;
}

ClusterOutcome ClusterScheduler::serve(const graph::Dataset& dataset,
                                       const core::GnnJob& job,
                                       const std::string& dataset_key,
                                       DispatchMode mode, Cycle not_before,
                                       bool share_configuration,
                                       std::optional<std::uint32_t> pin_chip) {
  return mode == DispatchMode::kDataParallel
             ? serve_data_parallel(dataset, job, dataset_key, not_before,
                                   share_configuration, pin_chip)
             : serve_shard_parallel(dataset, job, dataset_key, not_before,
                                    share_configuration);
}

ClusterOutcome ClusterScheduler::serve_data_parallel(
    const graph::Dataset& dataset, const core::GnnJob& job,
    const std::string& dataset_key, Cycle not_before,
    bool share_configuration, std::optional<std::uint32_t> pin_chip) {
  ensure_chips();
  const fault::FaultPlan* plan = active_fault_plan();
  // Least-loaded dispatch, ties to the lowest chip index; a pinned chip
  // (batch follower) overrides. Under a fault plan the load is
  // fault-adjusted: a chip's cost is the cycle it is both free and up, and
  // permanently dead chips are never selected.
  std::uint32_t chip = 0;
  bool have_chip = false;
  if (pin_chip.has_value()) {
    AURORA_CHECK(*pin_chip < chips_.size());
    chip = *pin_chip;
    have_chip = true;
    if (plan != nullptr &&
        plan->chip_up_after(chip, std::max(chip_timelines_[chip].busy_until,
                                           not_before)) == fault::kNever) {
      // The batch head's chip died for good: break the pin, and the
      // configuration share with it — the replacement chip never applied
      // the head's configuration.
      have_chip = false;
      share_configuration = false;
    }
  }
  if (!have_chip && plan == nullptr) {
    for (std::uint32_t c = 1; c < chips_.size(); ++c) {
      if (chip_timelines_[c].busy_until < chip_timelines_[chip].busy_until) {
        chip = c;
      }
    }
    have_chip = true;
  }
  if (!have_chip) {
    Cycle best = fault::kNever;
    for (std::uint32_t c = 0; c < chips_.size(); ++c) {
      const Cycle eff = plan->chip_up_after(
          c, std::max(chip_timelines_[c].busy_until, not_before));
      if (eff < best) {
        best = eff;
        chip = c;
        have_chip = true;
      }
    }
    if (!have_chip) {
      // Every chip is permanently down: nothing can serve this request, now
      // or ever. Report the capacity loss without simulating.
      ClusterOutcome outcome;
      outcome.start_cycle = not_before;
      outcome.finish_cycle = not_before;
      outcome.failed = true;
      outcome.failed_at = not_before;
      outcome.no_capacity = true;
      return outcome;
    }
  }

  const std::string key =
      "data:" + dataset_key + ":" + core::job_signature(job);
  Service fresh;
  const Service* service = cache_lookup(key);
  if (service == nullptr) {
    fresh.metrics = chips_[chip]->run(dataset, job);
    fresh.lead = core::lead_dram_cycles(fresh.metrics);
    fresh.tail = core::tail_compute_cycles(fresh.metrics);
    fresh.reconfig_discount = fresh.metrics.reconfig_cycles;
    service = &remember(key, fresh);
  }

  Cycle start_after = not_before;
  if (plan != nullptr) {
    // If the chip is down at the tentative start, push the start to the
    // repair cycle. A window's end never falls inside another window, so
    // one push suffices.
    const Cycle up = plan->chip_up_after(
        chip, start_on(chip_timelines_[chip], service->lead, not_before));
    AURORA_CHECK(up != fault::kNever);
    start_after = std::max(not_before, up);
  }
  ClusterOutcome outcome = place(chip_timelines_[chip], *service, start_after,
                                 share_configuration, chip, chip + 1);
  outcome.chip = chip;
  return outcome;
}

ClusterOutcome ClusterScheduler::serve_shard_parallel(
    const graph::Dataset& dataset, const core::GnnJob& job,
    const std::string& dataset_key, Cycle not_before,
    bool share_configuration) {
  ensure_engine();
  const std::string key =
      "shard:" + dataset_key + ":" + core::job_signature(job);
  Service fresh;
  const Service* service = cache_lookup(key);
  if (service == nullptr) {
    const ClusterRunMetrics cluster = engine_->run(dataset, job);
    for (const ChipRun& chip : cluster.chips) fresh.metrics += chip.metrics;
    fresh.metrics.total_cycles = cluster.total_cycles;
    fresh.metrics.counters.merge(cluster.counters);
    const Cycle unset = cluster.chips.empty() ? 0 : sim::kNoEvent;
    fresh.lead = fresh.tail = fresh.reconfig_discount = unset;
    for (const ChipRun& chip : cluster.chips) {
      fresh.lead = std::min(fresh.lead, core::lead_dram_cycles(chip.metrics));
      fresh.tail =
          std::min(fresh.tail, core::tail_compute_cycles(chip.metrics));
      fresh.reconfig_discount =
          std::min(fresh.reconfig_discount, chip.metrics.reconfig_cycles);
    }
    service = &remember(key, fresh);
  }

  if (const fault::FaultPlan* plan = active_fault_plan()) {
    const Cycle start = start_on(shard_timeline_, service->lead, not_before);
    for (std::uint32_t c = 0; c < params_.num_chips; ++c) {
      if (plan->chip_up_after(c, start) != start) {
        // A gang chip is down (possibly forever) at the cycle the gang
        // would start, and a shard-parallel request needs every chip:
        // fail over to a data-parallel placement on a surviving chip. The
        // configuration share does not carry — the chip pool never applied
        // the gang's configuration.
        ClusterOutcome outcome = serve_data_parallel(
            dataset, job, dataset_key, not_before,
            /*share_configuration=*/false, std::nullopt);
        outcome.shard_fallback = true;
        return outcome;
      }
    }
  }
  return place(shard_timeline_, *service, not_before, share_configuration, 0,
               params_.num_chips);
}

ClusterOutcome ClusterScheduler::place(core::ChipTimeline& timeline,
                                       const Service& service,
                                       Cycle not_before,
                                       bool share_configuration,
                                       std::uint32_t first_chip,
                                       std::uint32_t end_chip) const {
  ClusterOutcome outcome;
  outcome.metrics = service.metrics;
  if (share_configuration) {
    const Cycle saved =
        std::min(service.reconfig_discount, outcome.metrics.total_cycles);
    outcome.reconfig_saved = saved;
    outcome.metrics.total_cycles -= saved;
    outcome.metrics.reconfig_cycles -= saved;
  }
  // The leading DRAM phase hides under the previous request's trailing
  // compute (the PE array is still busy while the DRAM channels idle out).
  outcome.overlap_hidden = std::min(timeline.prev_compute_tail, service.lead);
  outcome.start_cycle = start_on(timeline, service.lead, not_before);
  outcome.finish_cycle = outcome.start_cycle + outcome.metrics.total_cycles;
  timeline.busy_until = outcome.finish_cycle;
  timeline.prev_compute_tail = service.tail;
  if (const fault::FaultPlan* plan = active_fault_plan()) {
    Cycle down = fault::kNever;
    for (std::uint32_t c = first_chip; c < end_chip; ++c) {
      down = std::min(down, plan->chip_down_in(c, outcome.start_cycle,
                                               outcome.finish_cycle));
    }
    if (down != fault::kNever) {
      // A serving chip (any gang member, shard-parallel) fail-stopped
      // mid-request: the attempt's work is lost, the timeline collapses to
      // the failure instant, and no compute tail is left for a successor to
      // hide its DRAM streaming under.
      outcome.failed = true;
      outcome.failed_at = down;
      outcome.finish_cycle = down;
      timeline.busy_until = down;
      timeline.prev_compute_tail = 0;
    }
  }
  return outcome;
}

}  // namespace aurora::cluster
