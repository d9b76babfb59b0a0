#include "scenario/scenario.hpp"

#include <cstdio>

#include "common/error.hpp"
#include "sim/perfetto.hpp"

namespace aurora::scenario {

ClusterScenario read_cluster(const CliArgs& args) {
  ClusterScenario s;
  s.params.num_chips = args.get_uint("chips", 1, 1);
  s.mode = cluster::dispatch_mode_by_name(args.get_string("mode", "data"),
                                          "--mode");
  s.params.parallel = args.get_bool("parallel-sim", false);
  s.params.parallel_jobs = args.get_uint("jobs", 0);
  return s;
}

ServingScenario read_serving(const CliArgs& args, Arrivals arrivals,
                             const ServingDefaults& defaults,
                             cluster::DispatchMode mode,
                             double frequency_mhz) {
  ServingScenario s;
  serving::ServingParams& p = s.params;
  p.mode = mode;
  p.num_requests = args.get_uint("requests", defaults.requests, 1);
  if (arrivals == Arrivals::kClosedLoop) {
    p.queue_depth = 0;  // unbounded
    p.max_batch = 1;
    return s;
  }
  // --rate is requests per second; the process wants requests per Mcycle.
  s.rate_rps = args.get_double("rate", defaults.rate_rps, 1e-3, 1e12);
  p.arrival.rate_per_mcycle = s.rate_rps / frequency_mhz;
  p.seed = args.get_uint("seed", 1);
  p.queue_depth = args.get_uint("queue-depth", defaults.queue_depth);
  p.max_batch = args.get_uint("max-batch", 4, 1);
  p.num_tenants = args.get_uint("tenants", 2, 1);
  s.slo_us = args.get_double("slo-us", defaults.slo_us, 0.0, 1e9);
  p.slo_cycles = static_cast<Cycle>(s.slo_us * frequency_mhz);
  if (arrivals == Arrivals::kPoisson) return s;
  p.arrival.kind = serving::arrival_kind_by_name(
      args.get_string("arrival", "poisson"), "--arrival");
  p.arrival.burst_rate_multiplier =
      args.get_double("burst-mult", 8.0, 1.0, 1e6);
  p.arrival.burst_fraction = args.get_double("burst-frac", 0.1, 0.0, 1.0);
  p.arrival.period_mcycles =
      args.get_double("period-us", 2000.0, 1e-3, 1e9) * frequency_mhz / 1e6;
  p.arrival.amplitude = args.get_double("amplitude", 0.8, 0.0, 1.0);
  return s;
}

void read_faults(const CliArgs& args, double frequency_mhz,
                 ServingScenario& scenario) {
  serving::ServingParams& p = scenario.params;
  scenario.faults = args.has("faults");
  if (scenario.faults) {
    p.faults.seed = args.get_string("faults", "") == "true"
                        ? 1
                        : args.get_uint("faults", 1);
    scenario.mtbf_us = args.get_double("mtbf-us", 400.0, 0.1, 1e9);
    scenario.mttr_us = args.get_double("mttr-us", 60.0, 0.0, 1e9);
    p.faults.chip_mtbf = scenario.mtbf_us * frequency_mhz;
    p.faults.chip_mttr = scenario.mttr_us * frequency_mhz;
    // The plan is inert past its horizon: the expected arrival window,
    // eight times over, plus a fixed margin.
    const double expected_cycles = static_cast<double>(p.num_requests) /
                                   scenario.rate_rps * frequency_mhz * 1e6;
    p.faults.horizon = static_cast<Cycle>(expected_cycles * 8.0) + 1000000;
    p.max_retries = args.get_uint("max-retries", 3);
  }
  p.proactive_shedding = args.get_bool("proactive-shed", scenario.faults);
}

Artifacts::Artifacts(const CliArgs& args, bool trace)
    : trace_out_(args.get_string("trace-out", "")),
      metrics_out_(args.get_string("metrics-out", "")),
      critpath_out_(args.get_string("critpath-out", "")) {
  critpath_ = args.get_bool("critpath", false) || !critpath_out_.empty();
  if (critpath_) {
    analyze_.allow_truncated = args.get_bool("allow-truncated-trace", false);
    const std::string what_if = args.get_string("what-if", "");
    analyze_.scenarios = what_if.empty()
                             ? profile::default_what_if_scenarios()
                             : profile::parse_what_if_list(what_if);
  }
  tracer_.enable(trace || critpath_ || !trace_out_.empty());
}

Artifacts Artifacts::metrics_only(const CliArgs& args) {
  Artifacts artifacts;
  artifacts.metrics_out_ = args.get_string("metrics-out", "");
  return artifacts;
}

void Artifacts::emit(std::vector<core::NamedRun>& runs,
                     const sim::Sampler* sampler) {
  if (tracer_.enabled()) {
    // An overflowed ring buffer leaves any analysis only a suffix of the
    // execution: warn loudly, and publish the count whatever was asked for.
    if (tracer_.dropped() > 0) {
      std::fprintf(stderr,
                   "WARNING: trace ring buffer overflowed, %llu records "
                   "dropped — raise the tracer capacity or shrink the "
                   "workload\n",
                   static_cast<unsigned long long>(tracer_.dropped()));
    }
    if (!runs.empty()) {
      runs.back().metrics.counters.inc("trace.dropped_records",
                                       tracer_.dropped());
    }
  }
  if (critpath_) {
    profile::CritPathReport report;
    try {
      report = profile::analyze_critical_path(tracer_, analyze_);
    } catch (const Error& e) {
      throw Error(std::string("critical-path analysis failed: ") + e.what());
    }
    if (!runs.empty()) {
      profile::export_critpath_counters(report, runs.back().metrics.counters);
    }
    std::printf("\n%s", profile::format_attribution_table(report).c_str());
    if (!critpath_out_.empty()) {
      core::write_json_file(critpath_out_,
                            profile::critpath_report_json(report));
      std::printf("critical-path JSON: %s\n", critpath_out_.c_str());
    }
  }
  if (!trace_out_.empty()) {
    sim::write_perfetto_trace(trace_out_, tracer_, sampler);
    std::printf("\nPerfetto trace: %s (open in ui.perfetto.dev)\n",
                trace_out_.c_str());
  }
  if (!metrics_out_.empty()) {
    core::write_json_file(metrics_out_, core::runs_to_json(runs));
    std::printf("metrics JSON: %s\n", metrics_out_.c_str());
  }
}

}  // namespace aurora::scenario
