#include "serving/arrival.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace aurora::serving {

namespace {

constexpr double kPi = 3.14159265358979323846;

}  // namespace

const char* arrival_kind_name(ArrivalKind kind) {
  switch (kind) {
    case ArrivalKind::kPoisson:
      return "poisson";
    case ArrivalKind::kBursty:
      return "bursty";
    case ArrivalKind::kDiurnal:
      return "diurnal";
  }
  throw Error("invalid ArrivalKind");
}

ArrivalKind arrival_kind_by_name(const std::string& name,
                                 const std::string& what) {
  for (ArrivalKind kind : {ArrivalKind::kPoisson, ArrivalKind::kBursty,
                           ArrivalKind::kDiurnal}) {
    if (name == arrival_kind_name(kind)) return kind;
  }
  throw Error("unknown " + what + "=" + name +
              " (accepted: poisson, bursty, diurnal)");
}

ArrivalProcess::ArrivalProcess(const ArrivalParams& params, std::uint64_t seed)
    : params_(params), rng_(seed) {
  AURORA_CHECK_MSG(params.rate_per_mcycle > 0.0,
                   "arrival rate must be positive");
  AURORA_CHECK_MSG(params.burst_fraction > 0.0 && params.burst_fraction < 1.0,
                   "burst_fraction must be in (0, 1)");
  AURORA_CHECK_MSG(params.burst_rate_multiplier >= 1.0,
                   "burst_rate_multiplier must be >= 1");
  AURORA_CHECK_MSG(params.mean_burst_mcycles > 0.0,
                   "mean_burst_mcycles must be positive");
  AURORA_CHECK_MSG(params.period_mcycles > 0.0,
                   "period_mcycles must be positive");
  AURORA_CHECK_MSG(params.amplitude >= 0.0 && params.amplitude < 1.0,
                   "amplitude must be in [0, 1)");
}

double ArrivalProcess::next_poisson_gap(double rate_per_cycle) {
  // Inverse-CDF exponential; 1 - u in (0, 1] avoids log(0).
  const double u = rng_.next_double();
  return -std::log(1.0 - u) / rate_per_cycle;
}

double ArrivalProcess::next_bursty() {
  // Two-state Markov-modulated Poisson. The off-state rate is derived so
  // the long-run mean equals rate_per_mcycle:
  //   f * mult * base_on + (1 - f) * base_off = rate  with base_on = mult * r0.
  const double f = params_.burst_fraction;
  const double mult = params_.burst_rate_multiplier;
  const double mean = params_.rate_per_mcycle / 1e6;
  // Solve r_off from mean = f * mult * r_off_base ... simpler: pick the
  // off rate r_off and on rate r_on = mult * r_off with
  // f*r_on + (1-f)*r_off = mean  =>  r_off = mean / (f*mult + 1 - f).
  const double r_off = mean / (f * mult + 1.0 - f);
  const double r_on = mult * r_off;
  const double mean_burst = params_.mean_burst_mcycles * 1e6;
  // Off sojourn mean chosen so the time fraction in bursts is f.
  const double mean_off = mean_burst * (1.0 - f) / f;

  while (true) {
    if (now_ >= state_until_) {
      // Enter the next sojourn (memoryless, so drawing at the boundary is
      // exact).
      in_burst_ = state_until_ > 0.0 ? !in_burst_ : false;
      const double sojourn =
          next_poisson_gap(1.0 / (in_burst_ ? mean_burst : mean_off));
      state_until_ = now_ + sojourn;
    }
    const double gap = next_poisson_gap(in_burst_ ? r_on : r_off);
    if (now_ + gap <= state_until_) {
      now_ += gap;
      return now_;
    }
    // The candidate arrival crosses the state boundary: advance to the
    // boundary and redraw under the new state's rate (exponentials are
    // memoryless, so discarding the overshoot keeps the process exact).
    now_ = state_until_;
  }
}

double ArrivalProcess::next_diurnal() {
  // Lewis thinning for the nonhomogeneous rate
  //   lambda(t) = mean * (1 + amplitude * sin(2*pi*t / period)).
  const double mean = params_.rate_per_mcycle / 1e6;
  const double period = params_.period_mcycles * 1e6;
  const double lambda_max = mean * (1.0 + params_.amplitude);
  while (true) {
    now_ += next_poisson_gap(lambda_max);
    const double lambda_now =
        mean * (1.0 + params_.amplitude * std::sin(2.0 * kPi * now_ / period));
    if (rng_.next_double() * lambda_max <= lambda_now) return now_;
  }
}

Cycle ArrivalProcess::next() {
  double at = 0.0;
  switch (params_.kind) {
    case ArrivalKind::kPoisson:
      now_ += next_poisson_gap(params_.rate_per_mcycle / 1e6);
      at = now_;
      break;
    case ArrivalKind::kBursty:
      at = next_bursty();
      break;
    case ArrivalKind::kDiurnal:
      at = next_diurnal();
      break;
  }
  return static_cast<Cycle>(at);
}

}  // namespace aurora::serving
