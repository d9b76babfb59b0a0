// The flag layer of the mains that set a run up from the command line
// (examples/simulate, examples/serving, bench/micro_serving): each flag more
// than one of them reads is read here, once, with one range, one unit
// conversion and one error wording; callers pass only their defaults. A
// main reads the groups its chosen path uses, then calls
// CliArgs::reject_unread(<path>) so a flag the path ignores is an error. A
// flag missing from a main's accepted list keeps the default here.
#pragma once

#include <string>
#include <vector>

#include "common/cli.hpp"
#include "core/report.hpp"
#include "profile/critpath.hpp"
#include "serving/serving_engine.hpp"
#include "sim/sampler.hpp"

namespace aurora::scenario {

struct ClusterScenario {
  cluster::ClusterParams params;
  cluster::DispatchMode mode = cluster::DispatchMode::kDataParallel;
};

/// Cluster group: --chips (default 1), --mode=data|shard, --parallel-sim
/// (per-chip engine runs on worker threads, bit-identical) and --jobs
/// (worker cap, 0 = all cores).
[[nodiscard]] ClusterScenario read_cluster(const CliArgs& args);

/// How a path's requests arrive, which decides the serving flags it reads.
enum class Arrivals : std::uint8_t {
  /// --requests only: all arrive at cycle 0 and are served back to back
  /// (max_batch 1, unbounded queue).
  kClosedLoop,
  /// Poisson at --rate req/s, plus --seed --queue-depth --max-batch
  /// --tenants --slo-us.
  kPoisson,
  /// kPoisson plus --arrival=poisson|bursty|diurnal and its shape:
  /// --burst-mult --burst-frac --period-us --amplitude.
  kAnyProcess,
};

struct ServingDefaults {
  std::uint32_t requests = 24;
  std::uint32_t queue_depth = 64;
  double rate_rps = 100000.0;
  double slo_us = 0.0;
};

struct ServingScenario {
  serving::ServingParams params;
  /// The flags as given; params holds them in cycles.
  double rate_rps = 0.0;
  double slo_us = 0.0;
  bool faults = false;
  double mtbf_us = 0.0;
  double mttr_us = 0.0;
};

/// Serving group for `arrivals`, in cycles at `frequency_mhz`.
[[nodiscard]] ServingScenario read_serving(const CliArgs& args,
                                           Arrivals arrivals,
                                           const ServingDefaults& defaults,
                                           cluster::DispatchMode mode,
                                           double frequency_mhz);

/// Faults group on top of read_serving: --faults[=<seed>] makes chips
/// fail-stop on a seed-deterministic clock (--mtbf-us, default 400) and
/// recover after --mttr-us (default 60; 0 = never), failed requests
/// retrying up to --max-retries (default 3) times. --proactive-shed
/// (default: on with --faults) drops queued requests past their SLO.
void read_faults(const CliArgs& args, double frequency_mhz,
                 ServingScenario& scenario);

/// Artifacts group, and what every main does with the trace after its runs.
class Artifacts {
 public:
  /// Reads --trace-out, --metrics-out, --critpath, --critpath-out (implies
  /// --critpath) and, with --critpath, --what-if and
  /// --allow-truncated-trace. `trace` turns the tracer on for the main's own
  /// use (simulate's --trace timeline).
  explicit Artifacts(const CliArgs& args, bool trace = false);
  /// Reads only --metrics-out, for a run that records no trace.
  [[nodiscard]] static Artifacts metrics_only(const CliArgs& args);

  /// The tracer to attach to the run, or nullptr when nothing reads one.
  [[nodiscard]] sim::Tracer* tracer() {
    return tracer_.enabled() ? &tracer_ : nullptr;
  }
  [[nodiscard]] const std::string& trace_out() const { return trace_out_; }

  /// After the runs: warns if the trace ring buffer overflowed, publishes
  /// trace.dropped_records and (with --critpath) the critical-path counters
  /// on the last run, prints the attribution table, then writes each
  /// requested file and prints its path. Throws Error if the analysis
  /// fails.
  void emit(std::vector<core::NamedRun>& runs,
            const sim::Sampler* sampler = nullptr);

 private:
  Artifacts() = default;

  std::string trace_out_;
  std::string metrics_out_;
  std::string critpath_out_;
  bool critpath_ = false;
  profile::AnalyzeOptions analyze_;
  sim::Tracer tracer_;
};

}  // namespace aurora::scenario
