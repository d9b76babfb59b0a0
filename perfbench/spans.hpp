// Host-time spans recorded by the benchmark around the simulator's public
// calls. Spans stay in memory; the traced run writes them once at the end as
// Chrome trace-event JSON (the format sim/perfetto.cpp emits, so they open
// in the same viewer) and prints a per-layer self-time table.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Span {
  /// "<layer>.<call>", e.g. "core.run" or "cluster.make_shard_plan"; the
  /// layer is the text before the first dot.
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Index of the parent span, or -1: the enclosing open span, or the
  /// public call whose work a re-run span repeats (recorded after it).
  std::int64_t parent = -1;
  /// Operation id: spans caused by one call into a workload's top entry
  /// point share it.
  std::uint64_t op = 0;

  [[nodiscard]] double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  /// Open a span; `parent` < 0 picks the innermost open span.
  std::size_t begin(std::string name, std::uint64_t op,
                    std::int64_t parent = -1);
  void end(std::size_t id);

  /// Index of the span `name` recorded for operation `op`, or -1.
  [[nodiscard]] std::int64_t find(std::string_view name,
                                  std::uint64_t op) const;

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Durations in seconds of every span called `name`, in record order.
  [[nodiscard]] std::vector<double> durations(std::string_view name) const;

  /// {"displayTimeUnit": "ns", "traceEvents": [...]}: one complete ("X")
  /// event per span on one track, timestamps in microseconds.
  [[nodiscard]] std::string chrome_json() const;
  /// One row per span name, then one per layer: spans, total and self
  /// seconds (duration minus the part covered by child spans).
  [[nodiscard]] std::string self_time_table() const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// Records one span for its lifetime; does nothing with a null recorder, so
/// the untraced runs pay one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, std::uint64_t op,
             std::int64_t parent = -1)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->begin(std::move(name), op, parent)
                                : 0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::size_t id_;
};

/// Appends the host seconds of its lifetime to a list.
class OpTimer {
 public:
  explicit OpTimer(std::vector<double>& out) : out_(out), start_(Clock::now()) {}
  ~OpTimer() { out_.push_back(seconds_since(start_)); }
  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;

 private:
  std::vector<double>& out_;
  Clock::time_point start_;
};

}  // namespace perfbench
