#include "sim/sampler.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace aurora::sim {

Sampler::Sampler(Cycle interval)
    : Component("sampler"), interval_(interval) {
  AURORA_CHECK_MSG(interval > 0, "sampler interval must be positive");
}

void Sampler::watch(const std::string& name, Probe probe) {
  AURORA_CHECK(probe != nullptr);
  for (std::size_t i = 0; i < series_.size(); ++i) {
    if (series_[i].name == name) {
      probes_[i] = std::move(probe);
      return;
    }
  }
  series_.push_back({name, std::vector<double>(cycles_.size(), 0.0)});
  probes_.push_back(std::move(probe));
}

void Sampler::watch(const std::string& name, const std::uint64_t* counter) {
  AURORA_CHECK(counter != nullptr);
  watch(name, [counter] { return static_cast<double>(*counter); });
}

void Sampler::detach() {
  for (auto& p : probes_) p = nullptr;
}

void Sampler::clear() {
  probes_.clear();
  series_.clear();
  cycles_.clear();
  next_sample_at_ = 0;
}

void Sampler::tick(Cycle now) {
  if (now < next_sample_at_) return;
  cycles_.push_back(now);
  for (std::size_t i = 0; i < probes_.size(); ++i) {
    series_[i].values.push_back(probes_[i] ? probes_[i]() : 0.0);
  }
  // Stay on interval multiples even if a boundary was somehow overshot
  // (cannot happen under the scheduler's jump rule, but cheap to be exact).
  do {
    next_sample_at_ += interval_;
  } while (next_sample_at_ <= now);
}

Cycle Sampler::next_event_cycle(Cycle now) const {
  return std::max(now, next_sample_at_);
}

}  // namespace aurora::sim
