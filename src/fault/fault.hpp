// Seed-deterministic fault injection.
//
// A FaultPlan is a precomputed, immutable schedule of component faults:
// chip fail-stop / fail-recover windows (MTBF/MTTR), inter-chip link
// degradation windows (a >= 1 multiplier on serialisation and hop flight),
// and DRAM channel stall windows. Plans are generated once from common/rng
// and then only *queried* during simulation, so every engine flavour
// (lockstep, fast-forward, serial or parallel chip runs) observes the exact
// same fault timeline — determinism lives in the plan, not in the engines.
//
// Clock domains: chip up/down windows are queried on the serving clock by
// the cluster scheduler's control plane; link windows on the cluster-run
// clock by InterChipLink; DRAM windows on the chip-local clock
// by DramModel (plumbed as DramConfig::stall_windows). An empty plan (or a
// null plan pointer) is fully inert: no query changes any behaviour.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace aurora::fault {

/// Sentinel for "never happens" (permanent fail-stop, no next recovery).
inline constexpr Cycle kNever = std::numeric_limits<Cycle>::max();

enum class FaultKind : std::uint8_t {
  kChipDown,
  kChipUp,
  kLinkDegraded,
  kLinkRestored,
  kDramStallBegin,
  kDramStallEnd,
};

[[nodiscard]] const char* fault_kind_name(FaultKind k);

/// One scheduled fault transition. `chip` is the affected chip; for link
/// events it is the wire's source and `peer` the destination. `multiplier`
/// carries the link degradation factor (>= 1) on kLinkDegraded.
struct FaultEvent {
  Cycle at = 0;
  FaultKind kind{};
  std::uint32_t chip = 0;
  std::uint32_t peer = 0;
  double multiplier = 1.0;
};

/// Generation knobs. All means are in cycles; a fault class is disabled
/// when its MTBF is zero. `horizon` bounds the cycle range faults *begin*
/// in; zero disables the whole plan.
struct FaultParams {
  std::uint64_t seed = 1;
  Cycle horizon = 0;
  double chip_mtbf = 0.0;
  /// Mean repair time; zero with chip_mtbf > 0 means fail-stop forever.
  double chip_mttr = 0.0;
  double link_mtbf = 0.0;
  double link_mttr = 0.0;
  double link_multiplier_min = 2.0;
  double link_multiplier_max = 8.0;
  double dram_mtbf = 0.0;
  double dram_mttr = 0.0;

  [[nodiscard]] bool enabled() const {
    return horizon > 0 &&
           (chip_mtbf > 0.0 || link_mtbf > 0.0 || dram_mtbf > 0.0);
  }
};

/// Half-open interval [begin, end) during which a component is unavailable.
struct DownWindow {
  Cycle begin = 0;
  Cycle end = kNever;
};

/// Half-open interval during which a wire runs `multiplier`x slower.
struct DegradeWindow {
  Cycle begin = 0;
  Cycle end = kNever;
  double multiplier = 1.0;
};

class FaultPlan {
 public:
  /// Empty plan: every query reports "healthy"; empty() is true.
  FaultPlan() = default;

  /// Build a plan for `num_chips` chips. Each entity (chip, directed wire,
  /// per-chip DRAM) draws from its own decorrelated sub-stream, so adding
  /// chips never perturbs the schedules of existing ones. Up/down
  /// alternation uses exponential draws around MTBF/MTTR, clamped to at
  /// least one cycle.
  [[nodiscard]] static FaultPlan generate(const FaultParams& params,
                                          std::uint32_t num_chips);

  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::uint32_t num_chips() const { return num_chips_; }
  /// All transitions sorted by (at, kind, chip, peer).
  [[nodiscard]] const std::vector<FaultEvent>& events() const {
    return events_;
  }

  // -- Chip health (control-plane clock) --
  [[nodiscard]] bool chip_down_at(std::uint32_t chip, Cycle at) const;
  /// Earliest cycle >= `at` with the chip up; kNever if it never recovers.
  [[nodiscard]] Cycle chip_up_after(std::uint32_t chip, Cycle at) const;
  /// First failure strictly inside (after, before); kNever if none. Used to
  /// decide whether a request dispatched at `after` and finishing at
  /// `before` dies mid-flight (a failure exactly at `before` spares it).
  [[nodiscard]] Cycle chip_down_in(std::uint32_t chip, Cycle after,
                                   Cycle before) const;
  [[nodiscard]] const std::vector<DownWindow>& chip_windows(
      std::uint32_t chip) const;

  // -- Link degradation (cluster-run clock) --
  /// Serialisation/flight multiplier for the directed wire from -> to at
  /// `at`; 1.0 when healthy. Always >= 1, so degradation only ever
  /// lengthens transmissions.
  [[nodiscard]] double wire_multiplier_at(std::uint32_t from,
                                          std::uint32_t to, Cycle at) const;
  [[nodiscard]] const std::vector<DegradeWindow>& wire_windows(
      std::uint32_t from, std::uint32_t to) const;
  /// Largest multiplier anywhere in the plan (1.0 if none): scales worst-
  /// case transmission bounds such as the cluster deadlock guard.
  [[nodiscard]] double max_link_multiplier() const;

  // -- DRAM stalls (chip-local clock) --
  [[nodiscard]] const std::vector<DownWindow>& dram_windows(
      std::uint32_t chip) const;

  /// Canonical one-line-per-event text form; two plans are behaviourally
  /// identical iff their timelines match (fuzzer diff + debugging aid).
  [[nodiscard]] std::string timeline() const;

 private:
  std::uint32_t num_chips_ = 0;
  std::vector<FaultEvent> events_;
  std::vector<std::vector<DownWindow>> chip_windows_;
  /// Indexed from * num_chips_ + to.
  std::vector<std::vector<DegradeWindow>> wire_windows_;
  std::vector<std::vector<DownWindow>> dram_windows_;
};

}  // namespace aurora::fault
