// Cycle-driven component interface.
//
// Every hardware block (router, PE, DRAM channel, dispatcher) implements
// Component. The Simulator advances all components one clock edge at a time;
// within a cycle, components communicate through explicit queues so
// evaluation order does not change behaviour (two-phase update: components
// read inputs enqueued in cycle N-1 and enqueue outputs visible in N+1).
//
// Event-driven fast-forwarding: a component may additionally implement
// next_event_cycle() to tell the scheduler the earliest future cycle at
// which its tick() could do anything. When every registered component agrees
// that nothing can happen before cycle T, the Simulator jumps the clock
// straight to T instead of ticking through the dead cycles. The default
// implementation returns `now` ("tick me every cycle"), so components that
// do not opt in remain lockstep-correct unmodified.
//
// Statistics are not part of this interface. Each model reports its event
// counts once, through its own export_counters() into RunMetrics::counters;
// an engine that attaches a time-series Sampler (sim/sampler.hpp) points it
// at the components it owns for that run.
#pragma once

#include <limits>
#include <string>

#include "common/types.hpp"

namespace aurora::sim {

class InvariantReport;

/// Sentinel returned by next_event_cycle() when a component is fully
/// drained: no internal event is pending and ticks are no-ops until new
/// external stimulus arrives.
inline constexpr Cycle kNoEvent = std::numeric_limits<Cycle>::max();

class Component {
 public:
  explicit Component(std::string name) : name_(std::move(name)) {}
  virtual ~Component() = default;

  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  /// Advance one clock cycle. `now` is the cycle being executed.
  virtual void tick(Cycle now) = 0;

  /// True when the component has no pending work; the Simulator stops when
  /// every component is idle and no external stimulus remains.
  [[nodiscard]] virtual bool idle() const = 0;

  /// The earliest cycle >= `now` at which tick() may change this
  /// component's state or produce an externally visible effect, assuming no
  /// new external stimulus (send/submit/enqueue) arrives before then.
  ///
  /// Contract (the fast-forward invariant): for every cycle c in
  /// [now, next_event_cycle(now)), tick(c) must be a no-op — no state
  /// change, no callback, no stats. The scheduler is then free to skip
  /// those ticks entirely; skip_cycles() is the hook for accounting that
  /// still wants to observe the skipped span (e.g. busy-cycle counters).
  /// The returned cycle need not itself be an event: a conservative
  /// "recheck point" (the earliest cycle at which the answer could change)
  /// is legal — the scheduler re-probes there and jumps again. Only the
  /// no-op guarantee for the skipped span is load-bearing.
  /// Return kNoEvent when fully drained (requires idle() == true); the
  /// scheduler may then stop ticking this component altogether until an
  /// external stimulus calls wake().
  ///
  /// The default keeps legacy components in pure lockstep.
  [[nodiscard]] virtual Cycle next_event_cycle(Cycle now) const {
    return now;
  }

  /// Notification that the scheduler skipped the ticks in [from, to) —
  /// every one of them guaranteed a no-op by next_event_cycle(). Override
  /// to keep per-cycle accounting (busy-cycle counters) identical to a
  /// lockstep run. Must not change behaviourally relevant state.
  virtual void skip_cycles(Cycle from, Cycle to) {
    (void)from;
    (void)to;
  }

  /// Self-check the component's conservation laws (flit/packet/burst
  /// accounting, credit balances, refresh cadence, ...) and record any
  /// violation in `report` (sim/invariants.hpp). Called by an attached
  /// InvariantChecker at configurable intervals and at drain points;
  /// `report.drained()` distinguishes always-true laws from those that only
  /// hold once the component has no work in flight (empty FIFOs, restored
  /// credits). Must be read-only. Default: checks nothing.
  virtual void verify_invariants(InvariantReport& report) const {
    (void)report;
  }

  [[nodiscard]] const std::string& name() const { return name_; }

 protected:
  /// Components call this when external stimulus arrives (a packet send, a
  /// task submit, a request enqueue) so a quiescent component re-enters the
  /// scheduler's tick loop. Cheap and non-virtual: safe on every hot path.
  void wake() noexcept { quiescent_ = false; }

 private:
  friend class Simulator;
  std::string name_;
  /// Managed by the Simulator: set once the component reports idle() with
  /// no pending event, cleared by wake(). A quiescent component is skipped
  /// by the scheduler without even a virtual call per cycle.
  bool quiescent_ = false;
};

}  // namespace aurora::sim
