// Cycle-driven time-series sampler: a sim::Component that snapshots a set
// of metric probes every `interval` cycles, turning end-of-run aggregates
// into time-resolved series (NoC occupancy over a run, DRAM traffic per
// window, PE queue depths) without touching any component's hot path.
// Nothing feeds it unless an engine attaches one: the cycle engine then
// watches the NoC's and DRAM's counters and occupancy gauges (each model's
// watch_series()) and three PE-pool aggregates, in name order.
//
// Fast-forward awareness: the sampler's next_event_cycle() names the next
// sample boundary, so the scheduler's clock jumps land exactly on sample
// points instead of being disabled — between boundaries the sampler's ticks
// are no-ops, satisfying the fast-forward contract. Because every other
// component's ticks in the jumped span were provably no-ops too, the state
// observed at each boundary is bit-identical to a lockstep run, and a run
// with the sampler attached reports the same RunMetrics as one without
// (asserted by the observability equivalence tests).
//
// The sampler never prolongs a run: it reports idle() always, so
// run_until_idle() stops when the real components drain, mid-interval or
// not.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/component.hpp"

namespace aurora::sim {

class Sampler final : public Component {
 public:
  using Probe = std::function<double()>;

  struct Series {
    std::string name;
    std::vector<double> values;  // parallel to sample_cycles()
  };

  explicit Sampler(Cycle interval);

  [[nodiscard]] Cycle interval() const { return interval_; }

  /// Add a series fed by `probe` at every sample point. Re-watching an
  /// existing name rebinds its probe and keeps the recorded values (used
  /// when components are rebuilt between layer runs).
  void watch(const std::string& name, Probe probe);
  /// Watch a counter held in a plain integer that outlives the probe.
  void watch(const std::string& name, const std::uint64_t* counter);
  /// Drop all probes but keep the recorded series. Call when the observed
  /// components are about to be destroyed (probes point into them).
  void detach();
  /// Drop probes, series and samples; restart the sample clock at 0.
  void clear();

  [[nodiscard]] const std::vector<Cycle>& sample_cycles() const {
    return cycles_;
  }
  [[nodiscard]] const std::vector<Series>& series() const { return series_; }
  [[nodiscard]] std::size_t num_samples() const { return cycles_.size(); }

  void tick(Cycle now) override;
  /// Never keeps the simulation alive: sampling happens only while real
  /// components still have work.
  [[nodiscard]] bool idle() const override { return true; }
  /// Pins fast-forward jumps to the next sample boundary; ticks strictly
  /// inside an interval are no-ops, so the jump contract holds.
  [[nodiscard]] Cycle next_event_cycle(Cycle now) const override;

 private:
  Cycle interval_;
  Cycle next_sample_at_ = 0;
  std::vector<Probe> probes_;  // parallel to series_
  std::vector<Series> series_;
  std::vector<Cycle> cycles_;
};

}  // namespace aurora::sim
