// Open-loop serving sweep: goodput under SLO vs arrival rate, and (with
// --faults) availability vs chip MTBF.
//
// Default mode runs the serving engine at a geometric ladder of arrival
// rates around --rate and reports, per point, the shed rate and
// goodput-under-SLO plus exact p99 latency and queue-wait. The sweep makes
// the saturation story visible in one line of JSON: below capacity goodput
// tracks the offered rate, past capacity queue-wait blows up, the SLO cuts
// goodput and the admission cap starts shedding.
//
// --faults=<seed> switches to an availability sweep: a geometric ladder of
// chip MTBFs around --mtbf-us at the fixed --rate, with retry/backoff and
// proactive SLO shedding on. Per point it reports the failure/retry/
// failover/shed split — the knee where the fault rate overwhelms the retry
// budget is the story.
//
// Every point asserts the serving conservation invariants (exit code 1 on
// violation), so the bench doubles as a smoke check: admitted + shed ==
// generated, and admitted == completed + shed_expired + failed_permanently.
// Output is one machine-readable JSON line on stdout (check.sh saves it as
// BENCH_serving.json / BENCH_serving_faults.json) plus a human-readable
// table on stderr:
//   {"bench": "serving", "chips": ..., "slo_us": ..., "points": [...]}
//   {"bench": "serving_faults", "chips": ..., "points": [...]}
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "core/aurora.hpp"
#include "core/report.hpp"
#include "graph/generators.hpp"
#include "scenario/scenario.hpp"
#include "serving/serving_engine.hpp"

namespace {

using namespace aurora;

struct Point {
  double rate_rps = 0.0;
  double mtbf_us = 0.0;
  serving::ServingReport report;
};

/// Both serving conservation invariants; prints and fails the bench on
/// violation.
bool conserved(const serving::ServingReport& r, double x_value,
               const char* x_name) {
  const bool admission = r.admitted + r.shed == r.generated;
  const bool accounting =
      r.admitted == r.served.size() + r.shed_expired + r.failed_permanently;
  if (admission && accounting) return true;
  std::fprintf(stderr,
               "FAIL: serving accounting broken at %s=%.0f (generated %llu, "
               "admitted %llu, shed %llu, served %zu, shed_expired %llu, "
               "failed_permanently %llu)\n",
               x_name, x_value, static_cast<unsigned long long>(r.generated),
               static_cast<unsigned long long>(r.admitted),
               static_cast<unsigned long long>(r.shed), r.served.size(),
               static_cast<unsigned long long>(r.shed_expired),
               static_cast<unsigned long long>(r.failed_permanently));
  return false;
}

/// Prints the bench's JSON line, or writes it to --out and prints the path.
int emit_json(const std::string& json, const std::string& out_path) {
  if (out_path.empty()) {
    std::printf("%s\n", json.c_str());
  } else {
    core::write_json_file(out_path, json);
    std::printf("wrote %s\n", out_path.c_str());
  }
  return EXIT_SUCCESS;
}

int run(int argc, char** argv) {
  const CliArgs args(argc, argv,
                     {"scale", "hidden", "requests", "rate", "slo-us",
                      "chips", "mode", "seed", "queue-depth", "max-batch",
                      "tenants", "faults", "mtbf-us", "mttr-us",
                      "max-retries", "out"});
  const double scale = args.get_double("scale", 0.02, 1e-6, 100.0);
  const std::uint32_t hidden = args.get_uint("hidden", 16, 1);
  const std::string out_path = args.get_string("out", "");
  const scenario::ClusterScenario cluster = scenario::read_cluster(args);
  const std::uint32_t chips = cluster.params.num_chips;
  const core::AuroraConfig config = core::AuroraConfig::bench();
  scenario::ServingScenario s = scenario::read_serving(
      args, scenario::Arrivals::kPoisson,
      {.requests = 24, .queue_depth = 16, .rate_rps = 2000.0, .slo_us = 800.0},
      cluster.mode, config.frequency_mhz);
  scenario::read_faults(args, config.frequency_mhz, s);
  args.reject_unread(s.faults ? "a fault sweep"
                              : "a rate sweep without --faults");
  serving::ServingParams& params = s.params;

  const graph::Dataset ds =
      graph::make_dataset(graph::DatasetId::kPubmed, scale);

  const std::vector<serving::ModelMixEntry> mix = {
      {core::GnnJob::two_layer(gnn::GnnModel::kGcn, ds.spec, hidden), "gcn",
       2.0, 0},
      {core::GnnJob::two_layer(gnn::GnnModel::kAgnn, ds.spec, hidden),
       "agnn", 1.0, 0},
  };

  if (s.faults) {
    // Availability sweep: fixed rate, geometric MTBF ladder. Shorter MTBF
    // means more mid-flight failures; the retry path keeps completions up
    // until the fault rate overwhelms the backoff budget.
    std::fprintf(stderr,
                 "serving fault sweep: %u chip(s), %s, %.0f req/s, MTTR "
                 "%.0f us, %llu requests per point\n",
                 chips, cluster::dispatch_mode_name(params.mode), s.rate_rps,
                 s.mttr_us,
                 static_cast<unsigned long long>(params.num_requests));
    std::vector<Point> points;
    for (const double mult : {4.0, 2.0, 1.0, 0.5, 0.25}) {
      Point point;
      point.rate_rps = s.rate_rps;
      point.mtbf_us = s.mtbf_us * mult;
      params.faults.chip_mtbf = point.mtbf_us * config.frequency_mhz;
      serving::ServingEngine engine(config, cluster.params, params);
      point.report = engine.run(ds, mix);
      const auto& r = point.report;
      if (!conserved(r, point.mtbf_us, "mtbf_us")) return EXIT_FAILURE;
      std::fprintf(stderr,
                   "  MTBF %8.0f us: completed %2zu/%llu, failed attempts "
                   "%2llu, retries %2llu, failed over %2llu, permanent "
                   "%2llu, shed expired %2llu\n",
                   point.mtbf_us, r.served.size(),
                   static_cast<unsigned long long>(r.admitted),
                   static_cast<unsigned long long>(r.failed_attempts),
                   static_cast<unsigned long long>(r.retries),
                   static_cast<unsigned long long>(r.failed_over),
                   static_cast<unsigned long long>(r.failed_permanently),
                   static_cast<unsigned long long>(r.shed_expired));
      points.push_back(std::move(point));
    }

    std::string json = "{\"bench\": \"serving_faults\", \"chips\": " +
                       std::to_string(chips) + ", \"mode\": \"" +
                       cluster::dispatch_mode_name(params.mode) +
                       "\", \"rate_rps\": " + std::to_string(s.rate_rps) +
                       ", \"slo_us\": " + std::to_string(s.slo_us) +
                       ", \"points\": [";
    char buf[512];
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto& r = points[i].report;
      std::snprintf(
          buf, sizeof(buf),
          "{\"mtbf_us\": %.0f, \"admitted\": %llu, \"completed\": %zu, "
          "\"failed_attempts\": %llu, \"retries\": %llu, "
          "\"failed_over\": %llu, \"failed_permanently\": %llu, "
          "\"shed_expired\": %llu, \"goodput_rps\": %.1f}%s",
          points[i].mtbf_us, static_cast<unsigned long long>(r.admitted),
          r.served.size(),
          static_cast<unsigned long long>(r.failed_attempts),
          static_cast<unsigned long long>(r.retries),
          static_cast<unsigned long long>(r.failed_over),
          static_cast<unsigned long long>(r.failed_permanently),
          static_cast<unsigned long long>(r.shed_expired), r.goodput_rps(),
          i + 1 < points.size() ? ", " : "");
      json += buf;
    }
    json += "]}";
    return emit_json(json, out_path);
  }

  std::fprintf(stderr,
               "serving sweep: %u chip(s), %s, SLO %.0f us, %llu requests "
               "per point\n",
               chips, cluster::dispatch_mode_name(params.mode), s.slo_us,
               static_cast<unsigned long long>(params.num_requests));
  std::vector<Point> points;
  for (const double mult : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    const double rate_rps = s.rate_rps * mult;
    params.arrival.rate_per_mcycle = rate_rps / config.frequency_mhz;
    serving::ServingEngine engine(config, cluster.params, params);
    Point point;
    point.rate_rps = rate_rps;
    point.report = engine.run(ds, mix);
    const auto& r = point.report;
    if (!conserved(r, rate_rps, "rate_rps")) return EXIT_FAILURE;
    std::fprintf(stderr,
                 "  %8.0f req/s: goodput %7.0f req/s, shed %4.1f%%, "
                 "p99 latency %8.1f us (wait %8.1f us)\n",
                 rate_rps, r.goodput_rps(), 100.0 * r.shed_rate(),
                 r.latency_percentile(0.99) / config.frequency_mhz,
                 r.queue_wait_percentile(0.99) / config.frequency_mhz);
    points.push_back(std::move(point));
  }

  std::string json = "{\"bench\": \"serving\", \"chips\": " +
                     std::to_string(chips) + ", \"mode\": \"" +
                     cluster::dispatch_mode_name(params.mode) +
                     "\", \"slo_us\": " + std::to_string(s.slo_us) +
                     ", \"points\": [";
  char buf[512];
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& r = points[i].report;
    std::snprintf(
        buf, sizeof(buf),
        "{\"rate_rps\": %.0f, \"generated\": %llu, \"shed\": %llu, "
        "\"shed_rate\": %.4f, \"goodput_rps\": %.1f, "
        "\"latency_p99_us\": %.2f, \"queue_wait_p99_us\": %.2f, "
        "\"batched_followers\": %llu}%s",
        points[i].rate_rps, static_cast<unsigned long long>(r.generated),
        static_cast<unsigned long long>(r.shed), r.shed_rate(),
        r.goodput_rps(),
        r.latency_percentile(0.99) / config.frequency_mhz,
        r.queue_wait_percentile(0.99) / config.frequency_mhz,
        static_cast<unsigned long long>(r.batched_followers),
        i + 1 < points.size() ? ", " : "");
    json += buf;
  }
  json += "]}";
  return emit_json(json, out_path);
}

}  // namespace

int main(int argc, char** argv) {
  return guarded_main(argc, argv, run);
}
