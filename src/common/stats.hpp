// Statistics primitives used by the simulator for metric collection.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace aurora {

/// Online mean/variance/min/max accumulator (Welford).
class RunningStat {
 public:
  void add(double x);
  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const { return sum_; }
  void merge(const RunningStat& other);
  void reset();

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Fixed-bucket histogram over [0, bucket_width * num_buckets); the last
/// bucket also absorbs overflow so totals are exact.
class Histogram {
 public:
  Histogram(double bucket_width, std::size_t num_buckets);

  void add(double x);
  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const;
  [[nodiscard]] std::size_t num_buckets() const { return counts_.size(); }
  [[nodiscard]] double bucket_width() const { return width_; }
  /// Nearest-rank quantile at bucket resolution: the lower edge of the
  /// bucket holding sample rank max(1, ceil(q * total)). Samples that are
  /// exact bucket-width multiples are reported exactly (a single sample of
  /// 5.0 at width 1 yields 5.0 for every q, not the bucket's upper edge).
  [[nodiscard]] double quantile(double q) const;

  /// Element-wise accumulation. Both histograms must share the exact same
  /// bucket layout (width and count) — merging across layouts would silently
  /// misbin, so a mismatch throws.
  void merge(const Histogram& other);
  void reset();

 private:
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Canonical latency histogram layouts. Component stats and the
/// RunMetrics aggregates must agree on these (Histogram::merge rejects
/// mismatched layouts), so they are named constants rather than per-site
/// literals. The last bucket absorbs overflow, so tails beyond the range
/// still count toward totals and max-bucket quantiles.
inline constexpr double kNocLatencyBucketCycles = 4.0;
inline constexpr std::size_t kNocLatencyBuckets = 256;  // covers 0..1024
inline constexpr double kDramLatencyBucketCycles = 16.0;
inline constexpr std::size_t kDramLatencyBuckets = 256;  // covers 0..4096
/// Inter-chip link message latency (cluster scale-out): serialization at a
/// few bytes/cycle plus multi-hop flight, so buckets are coarser and the
/// range wider than the on-chip NoC layout.
inline constexpr double kLinkLatencyBucketCycles = 64.0;
inline constexpr std::size_t kLinkLatencyBuckets = 256;  // covers 0..16384

/// Exact nearest-rank percentile over raw samples: the smallest sample with
/// rank >= max(1, ceil(q * n)). Copies and sorts, so it is meant for
/// request-level latency vectors (dozens to a few thousand entries) where
/// histogram bucketing would quantize p50/p95/p99 to bucket edges; streaming
/// paths with large counts should keep using Histogram. Empty input yields
/// 0.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

/// Named monotonic counters; every simulator component exports its event
/// counts here (its export_counters) so tests, benches and reports read one
/// consolidated view.
class CounterSet {
 public:
  void inc(const std::string& name, std::uint64_t by = 1);
  [[nodiscard]] std::uint64_t get(const std::string& name) const;
  [[nodiscard]] const std::map<std::string, std::uint64_t>& all() const {
    return counters_;
  }
  void merge(const CounterSet& other);
  void reset();

 private:
  std::map<std::string, std::uint64_t> counters_;
};

}  // namespace aurora
