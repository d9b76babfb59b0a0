// The cycle-driven simulation scheduler.
//
// Two execution modes share one code path:
//   * lockstep — every component ticks every cycle (the original engine);
//   * event-driven fast-forward (default) — after each step the scheduler
//     asks every active component for its next event cycle and, when all of
//     them agree nothing can happen in between, jumps the clock straight
//     there. Components whose hooks keep the lockstep default ("tick me
//     every cycle") pin the clock, so mixing legacy and event-aware
//     components stays correct.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "sim/component.hpp"

namespace aurora::sim {

/// Runs a set of Components in lockstep. Ownership of components stays with
/// the caller (they are typically members of an accelerator object); the
/// simulator only sequences them.
class Simulator {
 public:
  /// Register a component. Components tick in registration order each cycle;
  /// correctness must not depend on that order (enforced by the two-phase
  /// queue discipline in each component).
  void add(Component* c);

  /// Enable/disable idle-cycle fast-forwarding (enabled by default).
  /// Disabling reproduces the pure lockstep engine tick for tick; with the
  /// component hooks implemented correctly both modes yield bit-identical
  /// results (asserted by the equivalence tests).
  void set_fast_forward(bool enabled) { fast_forward_ = enabled; }
  [[nodiscard]] bool fast_forward() const { return fast_forward_; }

  /// Run until all components are idle or `max_cycles` elapse.
  /// Returns the cycle count at stop. Throws if the deadline is hit while
  /// work remains (deadlock / livelock guard).
  Cycle run_until_idle(Cycle max_cycles);

  /// Run exactly `n` cycles regardless of idleness (always lockstep: a
  /// caller asking for N ticks gets N ticks).
  void run_cycles(Cycle n);

  /// Step a single cycle.
  void step();

  [[nodiscard]] Cycle now() const { return now_; }
  [[nodiscard]] bool all_idle() const;

  /// Cycles skipped by fast-forward jumps since construction (diagnostic).
  [[nodiscard]] Cycle cycles_skipped() const { return cycles_skipped_; }

 private:
  /// Minimum next-event cycle over all active components, clamped to
  /// >= now_; kNoEvent when every active component is drained.
  [[nodiscard]] Cycle earliest_event();

  std::vector<Component*> components_;
  Cycle now_ = 0;
  Cycle cycles_skipped_ = 0;
  bool fast_forward_ = true;
};

}  // namespace aurora::sim
