// perfbench: one workload, one seed, one process.
//
//   perfbench --workload=<name> --seed=<n> --seconds=<s> [--trace=0|1]
//             [--size=full|tiny] [--tamper] [--trace-out=<path>]
//
// Set-up (graph generation, model mix, configs) repeats for about 1 s in
// short rounds over the allowed CPUs; setup_s is the median set-up.
// The timed region then repeats whole passes over the workload for up to
// --seconds, in whole rotations over the CPUs for single-threaded workloads
// (at least three passes); wall_s is one pass with each of its operations
// at its median time over the passes. Every pass's outputs
// are checked outside its timing, and every pass of one seed must produce
// the same simulated-statistics digest. --trace=1 spends half the budget on
// untraced passes, then runs three passes with host spans around every
// public call plus the re-runs that split self time out, and reports the
// median per-layer metrics instead of the end-to-end ones. The last stdout line is the result
// as one JSON object.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

// Set-up repeats in rounds of kSetupRoundSeconds until kSetupBudgetSeconds
// have passed, so setup_s is a median of many sub-millisecond samples.
constexpr double kSetupBudgetSeconds = 1.0;
constexpr double kSetupRoundSeconds = 0.01;
constexpr std::size_t kMinPasses = 3;
// The traced run's passes (and traced set-ups); per-layer metrics are
// medians over them, since one traced pass is a single noisy sample.
constexpr int kTracedPasses = 3;

/// Pins the calling thread to one CPU while alive, then restores its
/// affinity; does nothing for `cpu` < 0 or when the kernel refuses.
class CpuPin {
 public:
  explicit CpuPin(int cpu) {
    if (cpu < 0 || sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~CpuPin() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string loadavg_json() {
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) return "null";
  return "[" + json_number(load[0]) + ", " + json_number(load[1]) + ", " +
         json_number(load[2]) + "]";
}

const char* clock_name(MetricClock c) {
  switch (c) {
    case MetricClock::kHost:
      return "host";
    case MetricClock::kSim:
      return "simulated";
    case MetricClock::kCount:
      return "count";
  }
  return "count";
}

/// The sanitizer this binary was compiled with: "address" (ASan, with
/// UBSan in the repository's preset), "thread" or "none".
const char* sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  return "none";
#endif
}

/// Why host timings of this binary cannot be trusted; empty when they can.
std::string timing_invalid_reason() {
  if (std::string(sanitizer()) != "none") {
    return std::string("sanitizer build (") + sanitizer() + ")";
  }
#if !defined(__OPTIMIZE__)
  return "non-optimised build (" PERFBENCH_BUILD_TYPE ")";
#else
  return "";
#endif
}

std::string metrics_json(const MetricMap& metrics, bool timing_valid) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) os << ", ";
    first = false;
    const bool invalid = !timing_valid && m.clock == MetricClock::kHost;
    os << "\"" << name << "\": {\"value\": "
       << (invalid ? "null" : json_number(m.value)) << ", \"unit\": \""
       << m.unit << "\", \"clock\": \"" << clock_name(m.clock) << "\"";
    if (!m.note.empty()) os << ", \"note\": \"" << json_escape(m.note) << "\"";
    if (invalid) os << ", \"invalid\": true";
    os << "}";
  }
  os << "}";
  return os.str();
}

void print_table(const char* title, const MetricMap& metrics) {
  std::fprintf(stderr, "%s\n", title);
  for (const auto& [name, m] : metrics) {
    std::fprintf(stderr, "  %-34s %16.6g %-9s %-9s %s\n", name.c_str(),
                 m.value, m.unit.c_str(), clock_name(m.clock), m.note.c_str());
  }
}

/// Totals over every checked pass of the run.
struct Totals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  bool have_reference = false;
  PassResult reference;

  void absorb(PassResult r) {
    attempted += r.attempted;
    failed += r.failed;
    for (std::string& p : r.problems) {
      if (problems.size() < 16) problems.push_back(std::move(p));
    }
    if (r.failed > 0) return;
    if (!have_reference) {
      reference = std::move(r);
      have_reference = true;
    } else if (r.digest != reference.digest ||
               r.sim_cycles != reference.sim_cycles) {
      // One seed, one program: every pass must simulate the same thing.
      failed += r.attempted;
      if (problems.size() < 16) {
        problems.push_back("simulated statistics differ between passes");
      }
    }
  }
};

int run(int argc, char** argv) {
  const aurora::CliArgs args(argc, argv,
                             {"workload", "seed", "seconds", "trace", "size",
                              "tamper", "trace-out"});
  const std::string name = args.get_string("workload", "");
  std::unique_ptr<Workload> workload = make_workload(name);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown --workload=%s (accepted:",
                 name.c_str());
    for (const std::string& n : workload_names()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, ")\n");
    return 2;
  }
  const std::string seed_text = args.get_string("seed", "1");
  if (seed_text.empty() || seed_text.size() > 19 ||
      seed_text.find_first_not_of("0123456789") != std::string::npos) {
    std::fprintf(stderr, "perfbench: bad --seed=%s\n", seed_text.c_str());
    return 2;
  }
  const std::uint64_t seed = std::stoull(seed_text);
  const double seconds = args.get_double("seconds", 20.0, 0.0, 3600.0);
  const bool trace = args.get_uint("trace", 0, 0, 1) == 1;
  const std::string size_name = args.get_string("size", "full");
  if (size_name != "full" && size_name != "tiny") {
    std::fprintf(stderr, "perfbench: --size must be full or tiny\n");
    return 2;
  }
  const Size size = size_name == "tiny" ? Size::kTiny : Size::kFull;
  const bool tamper = args.get_bool("tamper", false);
  const std::string trace_out = args.get_string("trace-out", "");
  const std::string load_start = loadavg_json();

  // On a shared host the CPUs can run at steadily different speeds (other
  // tenants load their sibling hardware threads), and a process tends to
  // stay on the CPU it started on. So single-threaded work rotates over
  // every allowed CPU: each round of set-ups and each timed pass is pinned
  // to the next CPU in turn, and a median over whole rotations weighs every
  // CPU alike. Worker threads need every CPU, so their passes stay unpinned.
  const std::vector<int> cpus = allowed_cpus();
  const std::size_t num_cpus = std::max<std::size_t>(1, cpus.size());
  const bool rotate_passes = workload->worker_threads() == 1;
  const auto cpu_for = [&cpus](std::size_t i, bool pin) {
    return pin && !cpus.empty() ? cpus[i % cpus.size()] : -1;
  };

  // Set-up, repeated so setup_s is a median; each repeat replaces the last.
  // Contention from other tenants comes and goes within milliseconds, so
  // the repeats are spread over kSetupBudgetSeconds in short rounds, each on
  // the next CPU, and setup_s is the median of all of them.
  // The traced run records the graph generator's span on one more repeat.
  SpanRecorder spans;
  std::vector<double> setup_s;
  const Clock::time_point setup_start = Clock::now();
  for (std::size_t round = 0;
       round < num_cpus || seconds_since(setup_start) < kSetupBudgetSeconds;
       ++round) {
    const CpuPin pin(cpu_for(round, true));
    const Clock::time_point round_start = Clock::now();
    do {
      const Clock::time_point t0 = Clock::now();
      workload->setup(seed, size, nullptr);
      setup_s.push_back(seconds_since(t0));
    } while (seconds_since(round_start) < kSetupRoundSeconds);
  }
  if (trace) {
    for (int i = 0; i < kTracedPasses; ++i) workload->setup(seed, size, &spans);
  }
  workload->prepare_checks();

  // Timed region: whole passes, each checked right after its timing ends.
  // Passes come in whole rotations. Another rotation starts if the median
  // pass so far predicts that at least half of it fits the budget, so the
  // region ends within half a rotation of the budget; there are always at
  // least kMinPasses.
  Totals totals;
  std::vector<double> pass_s;
  // op_samples[k]: host seconds of the pass's k-th operation, one per pass.
  std::vector<std::vector<double>> op_samples;
  std::uint64_t next_op = 1;
  const double budget = trace ? seconds / 2.0 : seconds;
  const std::size_t rotation = rotate_passes ? num_cpus : 1;
  const std::size_t min_passes = (kMinPasses + rotation - 1) / rotation * rotation;
  const Clock::time_point loop_start = Clock::now();
  while (pass_s.size() < min_passes || pass_s.size() % rotation != 0 ||
         seconds_since(loop_start) +
                 median(pass_s) * static_cast<double>(rotation) / 2.0 <=
             budget) {
    const CpuPin pin(cpu_for(pass_s.size(), rotate_passes));
    std::vector<double> op_s;
    const Clock::time_point t0 = Clock::now();
    workload->run_pass(nullptr, next_op, op_s);
    pass_s.push_back(seconds_since(t0));
    if (op_samples.size() < op_s.size()) op_samples.resize(op_s.size());
    for (std::size_t k = 0; k < op_s.size(); ++k) {
      op_samples[k].push_back(op_s[k]);
    }
    totals.absorb(workload->check(tamper));
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  // One pass with each operation at its median over the passes: a burst of
  // contention that slows a few operations of one pass is outvoted.
  double wall_s = 0.0;
  for (const std::vector<double>& samples : op_samples) {
    wall_s += median(samples);
  }

  MetricMap layers;
  if (trace) {
    // The traced passes and their re-runs share the first pass's CPU, and
    // the overhead compares against the untraced passes made there. Each
    // per-layer metric is the median over the traced passes.
    const CpuPin pin(cpu_for(0, rotate_passes));
    std::vector<double> same_cpu;
    for (std::size_t i = 0; i < pass_s.size(); i += rotation) {
      same_cpu.push_back(pass_s[i]);
    }
    std::vector<double> traced_s;
    std::vector<MetricMap> samples;
    for (int i = 0; i < kTracedPasses; ++i) {
      std::vector<double> op_s;
      const Clock::time_point t0 = Clock::now();
      workload->run_pass(&spans, next_op, op_s);
      traced_s.push_back(seconds_since(t0));
      totals.absorb(workload->check(tamper));
      samples.push_back(empty_layer_metrics());
      workload->layer_metrics(spans, next_op, samples.back());
    }
    layers = samples.front();
    for (auto& [metric_name, metric] : layers) {
      std::vector<double> values;
      for (const MetricMap& s : samples) {
        values.push_back(s.at(metric_name).value);
      }
      metric.value = median(std::move(values));
    }
    Metric& generate = layers.at("graph.generate_s");
    generate.value = median(spans.durations("graph.make_dataset"));
    generate.note = "graph::make_dataset span";
    Metric& overhead = layers.at("trace.overhead_frac");
    overhead.value = median(traced_s) / median(same_cpu) - 1.0;
    overhead.note = "traced pass / untraced pass on the same CPU - 1";
    std::fprintf(stderr, "%s", spans.self_time_table().c_str());
    if (!trace_out.empty()) {
      std::ofstream file(trace_out);
      file << spans.chrome_json();
      if (!file) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
        return 2;
      }
    }
  }

  const PassResult& ref = totals.reference;
  const std::string passes = std::to_string(pass_s.size()) + " passes";
  MetricMap e2e;
  e2e["wall_s"] = {wall_s, "s", MetricClock::kHost,
                   "one pass, each of its " +
                       std::to_string(op_samples.size()) +
                       " operations at its median of " + passes};
  e2e["setup_s"] = {median(setup_s), "s", MetricClock::kHost,
                    "median of " + std::to_string(setup_s.size()) +
                        " set-ups over " + std::to_string(num_cpus) + " CPUs"};
  e2e["peak_rss_mb"] = {peak_rss_mb, "MB", MetricClock::kHost, "ru_maxrss"};
  e2e["fail_frac"] = {
      totals.attempted > 0 ? static_cast<double>(totals.failed) /
                                 static_cast<double>(totals.attempted)
                           : 1.0,
      "ratio", MetricClock::kCount,
      std::to_string(totals.failed) + " failed of " +
          std::to_string(totals.attempted) + " attempted"};
  e2e["requests_per_s"] = {static_cast<double>(ref.requests) / wall_s, "req/s",
                           MetricClock::kHost,
                           std::to_string(ref.requests) + " per pass"};
  e2e["sim_cycles_per_s"] = {static_cast<double>(ref.sim_cycles) / wall_s,
                             "cycles/s", MetricClock::kHost,
                             "sim_cycles / wall_s"};
  e2e["sim_cycles"] = {static_cast<double>(ref.sim_cycles), "cycles",
                       MetricClock::kSim, "modelled makespan per pass"};
  const double nan = std::nan("");
  const std::string no_stream = "not defined: no request stream";
  e2e["sim_goodput_rps"] = {ref.serving ? ref.goodput_rps : nan, "req/s",
                            MetricClock::kSim,
                            ref.serving ? "under the SLO" : no_stream};
  e2e["sim_p50_us"] = {ref.serving ? ref.p50_us : nan, "us", MetricClock::kSim,
                       ref.serving ? std::to_string(ref.latency_samples) +
                                         " requests"
                                   : no_stream};
  e2e["sim_tail_us"] = {
      ref.serving ? ref.tail_us : nan, "us", MetricClock::kSim,
      ref.serving ? "p" + std::to_string(static_cast<int>(ref.tail_q * 100)) +
                        ", " + std::to_string(ref.tail_beyond) +
                        " beyond, " + std::to_string(ref.latency_samples) +
                        " requests"
                  : no_stream};

  const std::string invalid_reason = timing_invalid_reason();
  const bool timing_valid = invalid_reason.empty();
  const bool correct = totals.failed == 0 && totals.have_reference;
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(ref.digest));

  print_table("end-to-end", e2e);
  if (trace) print_table("per-layer", layers);
  std::fprintf(stderr, "digest %s, %s, %llu failed of %llu attempted\n",
               digest, passes.c_str(),
               static_cast<unsigned long long>(totals.failed),
               static_cast<unsigned long long>(totals.attempted));
  for (const std::string& p : totals.problems) {
    std::fprintf(stderr, "  check failed: %s\n", p.c_str());
  }
  if (!timing_valid) {
    std::fprintf(stderr, "host timings invalid: %s\n", invalid_reason.c_str());
  }

  std::ostringstream os;
  os << "{\"schema\": \"aurora.perfbench.v1\", \"workload\": \"" << name
     << "\", \"seed\": " << seed << ", \"size\": \"" << size_name
     << "\", \"trace\": " << (trace ? 1 : 0)
     << ", \"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << totals.attempted
     << ", \"failed\": " << totals.failed << ", \"problems\": [";
  for (std::size_t i = 0; i < totals.problems.size(); ++i) {
    os << (i > 0 ? ", " : "") << "\"" << json_escape(totals.problems[i])
       << "\"";
  }
  os << "], \"digest\": \"" << digest << "\", \"passes\": " << pass_s.size()
     << ", \"pass_s\": [";
  for (std::size_t i = 0; i < pass_s.size(); ++i) {
    os << (i > 0 ? ", " : "")
       << (timing_valid ? json_number(pass_s[i]) : "null");
  }
  os << "], \"timing_valid\": " << (timing_valid ? "true" : "false")
     << ", \"timing_invalid_reason\": \"" << json_escape(invalid_reason)
     << "\", \"provenance\": {\"compiler\": \"" << PERFBENCH_COMPILER
     << "\", \"flags\": \"" << json_escape(PERFBENCH_CXX_FLAGS)
     << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"sanitizer\": \"" << sanitizer()
     << "\", \"nproc\": " << cpus.size()
     << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ", \"worker_threads\": " << workload->worker_threads()
     << ", \"pass_cpu_rotation\": " << rotation
     << ", \"loadavg_start\": " << load_start
     << ", \"loadavg_end\": " << loadavg_json()
     << "}, \"end_to_end\": " << metrics_json(e2e, timing_valid);
  if (trace) os << ", \"per_layer\": " << metrics_json(layers, timing_valid);
  os << "}";
  std::printf("%s\n", os.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
