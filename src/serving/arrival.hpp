// Open-loop arrival processes for the serving engine.
//
// Open-loop means requests arrive on their own clock — millions of users do
// not wait for the accelerator to free up — so queueing delay, shed rate
// and goodput-under-SLO become visible, which a closed-loop replay of a
// fixed request list structurally cannot show. Three processes cover the
// paper's recommendation-serving story: Poisson (steady independent users),
// bursty (a two-state modulated Poisson: flash crowds over a quiet
// baseline), and diurnal (sinusoidal rate over a day-like period). All
// draw from common/rng, so a fixed seed reproduces the arrival trace
// bit-for-bit.
#pragma once

#include <string>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace aurora::serving {

enum class ArrivalKind : std::uint8_t {
  kPoisson,
  kBursty,
  kDiurnal,
};

[[nodiscard]] const char* arrival_kind_name(ArrivalKind kind);
/// Parses an arrival_kind_name(); anything else throws Error naming `what`
/// (e.g. `--arrival`).
[[nodiscard]] ArrivalKind arrival_kind_by_name(const std::string& name,
                                               const std::string& what);

struct ArrivalParams {
  ArrivalKind kind = ArrivalKind::kPoisson;
  /// Long-run mean arrival rate in requests per million cycles. All three
  /// processes honour it: bursty and diurnal modulate around this mean.
  double rate_per_mcycle = 50.0;

  /// Bursty: rate multiplier while a burst is on. The off-state rate is
  /// derived so the long-run mean stays `rate_per_mcycle`.
  double burst_rate_multiplier = 8.0;
  /// Long-run fraction of time spent inside bursts, in (0, 1).
  double burst_fraction = 0.1;
  /// Mean burst duration in million cycles (exponential sojourns).
  double mean_burst_mcycles = 0.05;

  /// Diurnal: modulation period in million cycles ("one day").
  double period_mcycles = 2.0;
  /// Modulation depth in [0, 1): rate swings between (1-a) and (1+a) times
  /// the mean.
  double amplitude = 0.8;
};

/// Generates a strictly non-decreasing stream of arrival cycles.
class ArrivalProcess {
 public:
  ArrivalProcess(const ArrivalParams& params, std::uint64_t seed);

  /// The next arrival's cycle.
  [[nodiscard]] Cycle next();

 private:
  [[nodiscard]] double next_poisson_gap(double rate_per_cycle);
  [[nodiscard]] double next_bursty();
  [[nodiscard]] double next_diurnal();

  ArrivalParams params_;
  Rng rng_;
  /// Continuous simulation time in cycles (kept in double so sub-cycle
  /// arrival spacing at high rates does not collapse to zero gaps).
  double now_ = 0.0;
  bool in_burst_ = false;
  /// End of the current bursty-state sojourn.
  double state_until_ = 0.0;
};

}  // namespace aurora::serving
