// The benchmark's four workloads. Each drives the simulator only through its
// public entry points (graph::make_dataset, core::AuroraAccelerator,
// cluster::make_shard_plan / ClusterEngine, serving::ServingEngine and
// workload::WorkloadGenerator), one call at a time.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

enum class Size : std::uint8_t { kFull, kTiny };

/// Which clock a metric reads: host time (what speed work improves), the
/// simulated clock (must stay bit-identical under a speed-only change), or
/// an exact work count.
enum class MetricClock : std::uint8_t { kHost, kSim, kCount };

struct Metric {
  double value = 0.0;
  std::string unit;
  MetricClock clock = MetricClock::kCount;
  /// Printed beside the value (sample counts, the percentile used, ...).
  std::string note;
};
using MetricMap = std::map<std::string, Metric>;

/// Every per-layer metric, with its unit and clock, set to 0: the value a
/// layer reports on a workload that bypasses it.
[[nodiscard]] MetricMap empty_layer_metrics();

/// Outcome of one pass, after its correctness checks.
struct PassResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// The first few check failures, for the report.
  std::vector<std::string> problems;
  /// Completed simulated GNN inferences (served requests for serving).
  std::uint64_t requests = 0;
  /// Modelled makespan summed over the pass's runs (the serving horizon
  /// for serving workloads).
  std::uint64_t sim_cycles = 0;
  /// FNV-1a over every simulated statistic of the pass.
  std::uint64_t digest = 0;

  /// Serving workloads only: modelled request latency and goodput.
  bool serving = false;
  double goodput_rps = 0.0;
  double p50_us = 0.0;
  double tail_us = 0.0;
  /// Percentile behind tail_us and the samples beyond it.
  double tail_q = 0.0;
  std::uint64_t tail_beyond = 0;
  std::uint64_t latency_samples = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Graph generation, model mix and configs: everything before the timed
  /// region. Replaces any earlier set-up.
  virtual void setup(std::uint64_t seed, Size size, SpanRecorder* spans) = 0;
  /// Once, untimed: the reference twins the checks compare against.
  virtual void prepare_checks() {}
  /// One pass through the public entry points; `next_op` numbers the
  /// operations, and each one's host seconds are appended to `op_s` in a
  /// fixed order. Outputs are kept for check().
  virtual void run_pass(SpanRecorder* spans, std::uint64_t& next_op,
                        std::vector<double>& op_s) = 0;
  /// Check the last pass's outputs. `tamper` corrupts one output first so
  /// tests can show the checks count it.
  [[nodiscard]] virtual PassResult check(bool tamper) = 0;
  /// Traced run only, after the traced pass: child spans that re-run work
  /// directly, then every per-layer metric this workload exercises.
  virtual void layer_metrics(SpanRecorder& spans, std::uint64_t& next_op,
                             MetricMap& out) = 0;
  /// Threads a pass runs on; fixed from construction.
  [[nodiscard]] virtual unsigned worker_threads() const { return 1; }
};

/// The CPUs this process may run on, ascending; their count is what `nproc`
/// prints.
[[nodiscard]] std::vector<int> allowed_cpus();

[[nodiscard]] const std::vector<std::string>& workload_names();
/// Null for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace perfbench
