// Social-recommendation serving (one of the paper's motivating domains): a
// mix of C-GNN, A-GNN and MP-GNN inference requests against one user-item
// graph, sharing the array with per-request partition and NoC
// reconfiguration.
//
// Two serving modes, both through the one serving engine:
//
//   * Closed loop (default): a fixed queue of --requests requests, all
//     arriving at cycle 0 and served back to back, as a capacity benchmark.
//   * Open loop (--arrival=poisson|bursty|diurnal): requests arrive on
//     their own clock from a seed-deterministic arrival process, pass an
//     admission-controlled queue (EDF within priority classes, per-tenant
//     fairness), are coalesced into configuration-compatible batches, and
//     report goodput under SLO, shed rate and the queue-wait vs
//     service-time split behind each latency percentile.
//
// With --chips=N > 1 the queue is served by an Aurora cluster:
//   --mode=data   replicate the graph, least-loaded dispatch (throughput);
//   --mode=shard  shard the graph, every request runs on all chips
//                 cooperating through the inter-chip link (latency).
// --parallel-sim runs a shard-parallel request's per-chip engine runs on
// up to --jobs worker threads; results stay bit-identical.
//
//   ./examples/serving [--scale=0.1] [--requests=6] [--hidden=32]
//                      [--chips=2] [--mode=data|shard] [--parallel-sim]
//                      [--jobs=N] [--serving-out=report.json]
//   ./examples/serving --arrival=poisson --rate=200000 --slo-us=400
//                      [--seed=1] [--queue-depth=64] [--max-batch=4]
//                      [--tenants=2] [--burst-mult=8] [--burst-frac=0.1]
//                      [--period-us=2000] [--amplitude=0.8]
//                      [--serving-out=report.json]
//
// Dynamic-graph serving (--dynamic): interleaves streaming graph mutations
// with neighbor-sampled mini-batch queries on one arrival clock — the
// recommendation graph churns while being served. --churn sets the
// mutation fraction, --insert-frac the insert/delete split, --fanout the
// per-layer sample caps (CSV, 0 = all), --batch-seeds the seed vertices
// per query; with --chips >= 2 the shard plan is recut when churn drifts
// the cut past --reshard-threshold.
//
//   ./examples/serving --dynamic --churn=0.5 --fanout=10,5
//                      [--batch-seeds=4] [--insert-frac=0.7]
//                      [--reshard-threshold=0.2] [--chips=4] [--rate=...]
//
// Fault injection (open loop): --faults=<seed> makes chips fail-stop on a
// seed-deterministic MTBF clock (--mtbf-us, default 400) and recover after
// --mttr-us (default 60; 0 = fail-stop forever). Failed requests retry with
// capped exponential backoff (--max-retries, default 3) on surviving chips;
// --proactive-shed (on by default with faults) drops queued requests whose
// SLO already expired. The report gains an availability section.
//
// Every path prints one report: a row per request (with its a:b partition
// split), the latency split, and the makespan/overlap line.
//
// Observability flags (all paths):
//   --trace-out=<path>     write a Chrome/Perfetto trace JSON
//   --metrics-out=<path>   write the per-request metrics JSON report
//   --critpath             print the critical-path attribution table
//   --critpath-out=<path>  write the critical-path report JSON
//   --what-if=<spec>       what-if scenarios, e.g. "link_bw=2x;noc_bw=2x"
//   --allow-truncated-trace  analyze an overflowed trace's suffix anyway
#include <algorithm>
#include <array>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster_scheduler.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/aurora.hpp"
#include "core/report.hpp"
#include "profile/critpath.hpp"
#include "serving/serving_engine.hpp"
#include "sim/perfetto.hpp"
#include "sim/trace.hpp"
#include "workload/dynamic_graph.hpp"
#include "workload/workload_gen.hpp"

namespace {

using namespace aurora;

/// One report for closed-loop, open-loop and dynamic runs: a row per served
/// request, then admission, the latency split, the makespan/overlap line
/// and, with faults on or when anything failed, the availability section.
void print_report(const serving::ServingReport& report,
                  const std::string& headline, bool faults_on) {
  const double mhz = report.frequency_mhz;
  const auto us = [&](Cycle cycles) {
    return to_fixed(static_cast<double>(cycles) / mhz, 2);
  };
  const bool shard = report.mode == cluster::DispatchMode::kShardParallel;
  AsciiTable table({"request", "tenant", "chip", "arrival", "start", "finish",
                    "wait (us)", "service (us)", "a:b split", "SLO"});
  std::uint64_t halo_bytes = 0;
  for (const auto& r : report.served) {
    table.add_row({r.label + (r.batched_follower ? " (batched)" : ""),
                   std::to_string(r.tenant),
                   shard ? "all" : std::to_string(r.chip),
                   std::to_string(r.arrival), std::to_string(r.start),
                   std::to_string(r.finish), us(r.queue_wait()),
                   us(r.service_time()),
                   std::to_string(r.metrics.partition_a) + ":" +
                       std::to_string(r.metrics.partition_b),
                   report.slo_cycles == 0 ? "-"
                                          : (r.met_slo() ? "ok" : "MISS")});
    halo_bytes += r.metrics.counters.get("cluster.halo_bytes_sent");
  }
  table.print();

  std::printf("\n%s over %u chip(s), %s dispatch\n", headline.c_str(),
              report.num_chips, cluster::dispatch_mode_name(report.mode));
  std::printf("generated %llu, admitted %llu, shed %llu (shed rate %.1f%%)\n",
              static_cast<unsigned long long>(report.generated),
              static_cast<unsigned long long>(report.admitted),
              static_cast<unsigned long long>(report.shed),
              100.0 * report.shed_rate());
  if (report.slo_cycles > 0) {
    std::printf("goodput under %.0f us SLO: %llu/%llu requests (%.0f req/s)\n",
                static_cast<double>(report.slo_cycles) / mhz,
                static_cast<unsigned long long>(report.met_slo_count()),
                static_cast<unsigned long long>(report.generated),
                report.goodput_rps());
  }
  using Percentile = double (serving::ServingReport::*)(double) const;
  const auto split = [&](const char* name, Percentile percentile) {
    std::printf("%-10s p50 %.2f us, p95 %.2f us, p99 %.2f us\n", name,
                (report.*percentile)(0.50) / mhz,
                (report.*percentile)(0.95) / mhz,
                (report.*percentile)(0.99) / mhz);
  };
  split("latency", &serving::ServingReport::latency_percentile);
  split("queue wait", &serving::ServingReport::queue_wait_percentile);
  split("service", &serving::ServingReport::service_percentile);
  std::printf("makespan %llu cycles (%s us); overlap saved %llu cycles; "
              "%llu batch(es), %llu batched follower(s), %llu reconfig "
              "cycles saved\n",
              static_cast<unsigned long long>(report.horizon),
              us(report.horizon).c_str(),
              static_cast<unsigned long long>(report.overlap_savings),
              static_cast<unsigned long long>(report.batches),
              static_cast<unsigned long long>(report.batched_followers),
              static_cast<unsigned long long>(report.reconfig_savings));
  if (halo_bytes > 0) {
    std::printf("halo exchanged: %.1f KiB\n",
                static_cast<double>(halo_bytes) / 1024.0);
  }
  if (faults_on || report.failed_attempts > 0 || report.shed_expired > 0) {
    std::printf("availability: %llu failed attempt(s), %llu retry(ies), "
                "%llu failed over, %llu failed permanently\n",
                static_cast<unsigned long long>(report.failed_attempts),
                static_cast<unsigned long long>(report.retries),
                static_cast<unsigned long long>(report.failed_over),
                static_cast<unsigned long long>(report.failed_permanently));
    std::printf("              %llu shed expired (proactive), %llu shard "
                "fallback(s); completed %zu/%llu admitted\n",
                static_cast<unsigned long long>(report.shed_expired),
                static_cast<unsigned long long>(report.shard_fallbacks),
                report.served.size(),
                static_cast<unsigned long long>(report.admitted));
  }
}

/// What every serving path writes: --serving-out, the per-request metrics
/// report (the serving counters ride the last request), the critical-path
/// analysis and the Perfetto trace, plus a loud trace-truncation warning.
/// Returns a process exit code.
int emit_artifacts(const CliArgs& args, const serving::ServingReport& report,
                   const sim::Tracer& tracer) {
  const std::string serving_out = args.get_string("serving-out", "");
  if (!serving_out.empty()) {
    core::write_json_file(serving_out, serving::serving_report_json(report));
    std::printf("serving JSON: %s\n", serving_out.c_str());
  }
  std::vector<core::NamedRun> runs;
  for (const auto& r : report.served) {
    runs.push_back(
        {cluster::dispatch_mode_name(report.mode), r.label, r.metrics});
  }
  if (!runs.empty()) runs.back().metrics.counters.merge(report.counters());

  if (tracer.enabled() && tracer.dropped() > 0) {
    std::fprintf(stderr,
                 "WARNING: trace ring buffer overflowed, %llu records "
                 "dropped — raise the tracer capacity or shrink the "
                 "workload\n",
                 static_cast<unsigned long long>(tracer.dropped()));
  }
  // Published unconditionally: a truncated trace taints every downstream
  // artifact, not just runs without --critpath (which used to silently
  // drop this counter from the metrics report).
  if (tracer.enabled() && !runs.empty()) {
    runs.back().metrics.counters.inc("trace.dropped_records",
                                     tracer.dropped());
  }
  const std::string critpath_out = args.get_string("critpath-out", "");
  const bool critpath =
      args.get_bool("critpath", false) || !critpath_out.empty();
  if (critpath) {
    profile::AnalyzeOptions opts;
    opts.allow_truncated = args.get_bool("allow-truncated-trace", false);
    const std::string what_if = args.get_string("what-if", "");
    opts.scenarios = what_if.empty()
                         ? profile::default_what_if_scenarios()
                         : profile::parse_what_if_list(what_if);
    profile::CritPathReport critpath_report;
    try {
      critpath_report = profile::analyze_critical_path(tracer, opts);
    } catch (const Error& e) {
      std::fprintf(stderr, "critical-path analysis failed: %s\n", e.what());
      return 1;
    }
    if (!runs.empty()) {
      profile::export_critpath_counters(critpath_report,
                                        runs.back().metrics.counters);
    }
    std::printf("\n%s",
                profile::format_attribution_table(critpath_report).c_str());
    if (!critpath_out.empty()) {
      core::write_json_file(critpath_out,
                            profile::critpath_report_json(critpath_report));
      std::printf("critical-path JSON: %s\n", critpath_out.c_str());
    }
  }
  const std::string trace_out = args.get_string("trace-out", "");
  if (!trace_out.empty()) {
    sim::write_perfetto_trace(trace_out, tracer);
    std::printf("\nPerfetto trace: %s (open in ui.perfetto.dev)\n",
                trace_out.c_str());
  }
  const std::string metrics_out = args.get_string("metrics-out", "");
  if (!metrics_out.empty()) {
    core::write_json_file(metrics_out, core::runs_to_json(runs));
    std::printf("metrics JSON: %s\n", metrics_out.c_str());
  }
  return 0;
}

/// --fanout=10,5: per-layer neighbor caps (0 = take all). Each entry obeys
/// the --flag unsigned rules, so `5,-3` or `5x,3` fail instead of wrapping
/// or truncating.
std::vector<std::uint32_t> parse_fanouts(const std::string& csv) {
  std::vector<std::uint32_t> fanouts;
  std::size_t begin = 0;
  while (true) {
    const std::size_t comma = csv.find(',', begin);
    const std::string cell = csv.substr(begin, comma - begin);
    fanouts.push_back(parse_uint(cell, "--fanout entry '" + cell + "'"));
    if (comma == std::string::npos) return fanouts;
    begin = comma + 1;
  }
}

/// Closed loop: a fixed round-robin queue over the mix, every request
/// arriving at cycle 0 and served back to back — no batching, no shedding.
int run_closed_loop(const CliArgs& args, const core::AuroraConfig& config,
                    const graph::Dataset& graph_ds,
                    const std::vector<serving::ModelMixEntry>& mix,
                    const cluster::ClusterParams& cluster_params,
                    cluster::DispatchMode mode, sim::Tracer& tracer) {
  const std::uint32_t num_requests = args.get_uint("requests", 6, 1);
  std::vector<serving::ServingRequest> requests;
  for (std::uint32_t i = 0; i < num_requests; ++i) {
    const serving::ModelMixEntry& entry = mix[i % mix.size()];
    serving::ServingRequest request;
    request.id = i;
    request.job = entry.job;
    request.label = entry.label + " #" + std::to_string(i);
    requests.push_back(std::move(request));
  }

  serving::ServingParams params;
  params.queue_depth = 0;  // unbounded
  params.max_batch = 1;
  params.mode = mode;
  serving::ServingEngine engine(config, cluster_params, params);
  if (tracer.enabled()) engine.set_tracer(&tracer);
  const serving::ServingReport report =
      engine.replay(graph_ds, std::move(requests));

  print_report(report,
               "closed loop: " + std::to_string(num_requests) +
                   " request(s) back to back",
               /*faults_on=*/false);
  std::printf("Each request reconfigured the same silicon: compare the a:b "
              "splits.\n");
  return emit_artifacts(args, report, tracer);
}

/// Dynamic-graph serving (--dynamic): one seed-deterministic event stream
/// interleaves graph mutations (edge/vertex churn applied to a DynamicGraph
/// overlay, --churn of all events) with inference queries (GraphSAGE-style
/// neighbor-sampled mini-batches drawn against the graph as of the query's
/// arrival cycle), then replays the queries through the serving engine.
/// With --chips >= 2 every mutation also updates the shard churn tracker
/// and the graph is recut when the cut drifts past --reshard-threshold.
int run_dynamic(const CliArgs& args, const core::AuroraConfig& config,
                const graph::Dataset& graph_ds, std::uint32_t hidden,
                const cluster::ClusterParams& cluster_params,
                cluster::DispatchMode mode, sim::Tracer& tracer) {
  workload::DynamicWorkloadParams wp;
  const double rate_rps = args.get_double("rate", 100000.0, 1e-3, 1e12);
  wp.arrival.rate_per_mcycle = rate_rps / config.frequency_mhz;
  wp.seed = args.get_uint("seed", 1);
  wp.num_ops = args.get_uint("requests", 24, 1) * 2;
  wp.mutation_fraction = args.get_double("churn", 0.5, 0.0, 1.0);
  wp.insert_fraction = args.get_double("insert-frac", 0.7, 0.0, 1.0);
  wp.num_seeds = args.get_uint("batch-seeds", 4, 1);
  wp.num_tenants = args.get_uint("tenants", 2, 1);
  const double slo_us = args.get_double("slo-us", 0.0, 0.0, 1e9);
  wp.slo_cycles = static_cast<Cycle>(slo_us * config.frequency_mhz);
  wp.num_chips = cluster_params.num_chips;
  wp.reshard_threshold = args.get_double("reshard-threshold", 0.2, 0.0, 1e3);
  wp.sampler.seed = wp.seed * 31 + 7;
  wp.sampler.fanouts = parse_fanouts(args.get_string("fanout", "10,5"));

  const core::GnnJob job =
      core::GnnJob::two_layer(gnn::GnnModel::kGcn, graph_ds.spec, hidden);
  workload::DynamicGraph dyn(graph_ds.graph);
  const workload::WorkloadGenerator gen(wp);
  workload::DynamicWorkload wl =
      gen.generate(dyn, graph_ds, job, tracer.enabled() ? &tracer : nullptr);
  double batch_vertices = 0.0;
  double batch_edges = 0.0;
  for (const auto& q : wl.queries) {
    batch_vertices += q.dataset->num_vertices();
    batch_edges += static_cast<double>(q.dataset->num_edges());
  }

  serving::ServingParams params;
  params.seed = wp.seed;
  params.queue_depth = args.get_uint("queue-depth", 64);
  params.max_batch = args.get_uint("max-batch", 4, 1);
  params.slo_cycles = wp.slo_cycles;
  params.mode = mode;
  serving::ServingEngine engine(config, cluster_params, params);
  if (tracer.enabled()) engine.set_tracer(&tracer);
  const serving::ServingReport report =
      engine.replay(graph_ds, std::move(wl.queries));

  print_report(report,
               std::string("dynamic graph, ") +
                   serving::arrival_kind_name(wp.arrival.kind) +
                   " arrivals at " + to_fixed(rate_rps, 0) + " req/s",
               /*faults_on=*/false);
  const auto& s = wl.stats;
  const double queries = std::max<double>(1.0, static_cast<double>(s.queries));
  std::printf("dynamic workload: %llu mutation(s) (%llu edge+, %llu "
              "edge-, %llu vertex+, %llu vertex-), %llu query(ies) over "
              "mini-batches of %.1f vertices, %.1f edges on average\n",
              static_cast<unsigned long long>(s.mutations),
              static_cast<unsigned long long>(s.edge_adds),
              static_cast<unsigned long long>(s.edge_removes),
              static_cast<unsigned long long>(s.vertex_adds),
              static_cast<unsigned long long>(s.vertex_removes),
              static_cast<unsigned long long>(s.queries),
              batch_vertices / queries, batch_edges / queries);
  std::printf("graph: %u -> %u vertices, %llu -> %llu edges; %llu "
              "compaction(s)\n",
              graph_ds.num_vertices(), s.final_vertices,
              static_cast<unsigned long long>(graph_ds.num_edges()),
              static_cast<unsigned long long>(s.final_edges),
              static_cast<unsigned long long>(s.compactions));
  if (wp.num_chips >= 2) {
    std::printf("sharding: %llu reshard(s); final cut %llu edge(s) "
                "(planned %llu)\n",
                static_cast<unsigned long long>(s.reshards),
                static_cast<unsigned long long>(s.final_cut_edges),
                static_cast<unsigned long long>(s.planned_cut_edges));
  }
  return emit_artifacts(args, report, tracer);
}

/// Open-loop serving: arrival process -> admission -> batching -> dispatch.
int run_open_loop(const CliArgs& args, const core::AuroraConfig& config,
                  const graph::Dataset& graph_ds,
                  const std::vector<serving::ModelMixEntry>& mix,
                  const cluster::ClusterParams& cluster_params,
                  cluster::DispatchMode mode, sim::Tracer& tracer) {
  const std::string arrival_name = args.get_string("arrival", "poisson");
  const auto kind = serving::arrival_kind_by_name(arrival_name);
  if (!kind.has_value()) {
    std::fprintf(stderr,
                 "unknown --arrival=%s (accepted: poisson, bursty, "
                 "diurnal)\n",
                 arrival_name.c_str());
    return 1;
  }

  serving::ServingParams params;
  params.arrival.kind = *kind;
  // --rate is requests per second; the process wants requests per Mcycle.
  const double rate_rps = args.get_double("rate", 100000.0, 1e-3, 1e12);
  params.arrival.rate_per_mcycle = rate_rps / config.frequency_mhz;
  params.arrival.burst_rate_multiplier =
      args.get_double("burst-mult", 8.0, 1.0, 1e6);
  params.arrival.burst_fraction = args.get_double("burst-frac", 0.1, 0.0, 1.0);
  params.arrival.period_mcycles =
      args.get_double("period-us", 2000.0, 1e-3, 1e9) * config.frequency_mhz /
      1e6;
  params.arrival.amplitude = args.get_double("amplitude", 0.8, 0.0, 1.0);
  params.seed = args.get_uint("seed", 1);
  params.num_requests = args.get_uint("requests", 24, 1);
  params.queue_depth = args.get_uint("queue-depth", 64);
  params.max_batch = args.get_uint("max-batch", 4, 1);
  params.num_tenants = args.get_uint("tenants", 2, 1);
  const double slo_us = args.get_double("slo-us", 0.0, 0.0, 1e9);
  params.slo_cycles = static_cast<Cycle>(slo_us * config.frequency_mhz);
  params.mode = mode;

  // --faults=<seed> switches on seed-deterministic chip fault injection:
  // chips fail per an exponential MTBF clock and (with --mttr-us > 0)
  // recover; the engine retries failed requests with capped exponential
  // backoff and, under --proactive-shed (on by default with faults), drops
  // queued requests whose SLO already expired.
  const bool faults_on = args.has("faults");
  if (faults_on) {
    params.faults.seed =
        args.get_string("faults", "") == "true" ? 1 : args.get_uint("faults", 1);
    const double mtbf_us = args.get_double("mtbf-us", 400.0, 0.1, 1e9);
    const double mttr_us = args.get_double("mttr-us", 60.0, 0.0, 1e9);
    params.faults.chip_mtbf = mtbf_us * config.frequency_mhz;
    params.faults.chip_mttr = mttr_us * config.frequency_mhz;
    // Fault horizon: the expected arrival window with generous headroom for
    // queueing and retries (the plan is inert past its horizon).
    const double expected_cycles = static_cast<double>(params.num_requests) /
                                   rate_rps * config.frequency_mhz * 1e6;
    params.faults.horizon =
        static_cast<Cycle>(expected_cycles * 8.0) + 1000000;
  }
  params.max_retries = args.get_uint("max-retries", 3);
  params.proactive_shedding = args.get_bool("proactive-shed", faults_on);

  serving::ServingEngine engine(config, cluster_params, params);
  if (tracer.enabled()) engine.set_tracer(&tracer);
  const serving::ServingReport report = engine.run(graph_ds, mix);

  print_report(report,
               std::string(serving::arrival_kind_name(*kind)) +
                   " arrivals at " + to_fixed(rate_rps, 0) + " req/s",
               faults_on);
  return emit_artifacts(args, report, tracer);
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(
      argc, argv,
      {"scale", "requests", "hidden", "chips", "mode", "parallel-sim",
       "jobs", "arrival", "rate", "slo-us", "seed", "queue-depth",
       "max-batch", "tenants", "burst-mult", "burst-frac", "period-us",
       "amplitude", "faults", "mtbf-us", "mttr-us", "max-retries",
       "proactive-shed", "serving-out", "trace-out", "metrics-out",
       "critpath", "critpath-out", "what-if", "allow-truncated-trace",
       "dynamic", "churn", "insert-frac", "fanout", "batch-seeds",
       "reshard-threshold"});
  const double scale = args.get_double("scale", 0.1, 1e-6, 100.0);
  const std::uint32_t hidden = args.get_uint("hidden", 32, 1);
  const std::uint32_t chips = args.get_uint("chips", 1, 1);
  const std::string mode_arg = args.get_string("mode", "data");
  const auto mode = cluster::dispatch_mode_by_name(mode_arg);
  if (!mode.has_value()) {
    std::fprintf(stderr,
                 "unknown --mode=%s (accepted: data, shard, data-parallel, "
                 "shard-parallel)\n",
                 mode_arg.c_str());
    return 1;
  }

  // The "user-item interaction graph": Pubmed-scale structure stands in.
  const graph::Dataset graph_ds =
      graph::make_dataset(graph::DatasetId::kPubmed, scale);
  std::printf("serving on a %u-vertex interaction graph (%llu edges), "
              "%u chip(s)\n\n",
              graph_ds.num_vertices(),
              static_cast<unsigned long long>(graph_ds.num_edges()), chips);

  core::AuroraConfig config = core::AuroraConfig::bench();

  sim::Tracer tracer;
  if (!args.get_string("trace-out", "").empty() ||
      !args.get_string("critpath-out", "").empty() ||
      args.get_bool("critpath", false)) {
    tracer.enable();
  }

  cluster::ClusterParams params;
  params.num_chips = chips;
  // --parallel-sim runs each shard-parallel inference's per-chip engine
  // runs on worker threads (bit-identical results, lower wall clock on
  // multi-core hosts); --jobs caps the worker threads.
  params.parallel = args.get_bool("parallel-sim", false);
  params.parallel_jobs = args.get_uint("jobs", 0);

  if (args.get_bool("dynamic", false)) {
    return run_dynamic(args, config, graph_ds, hidden, params, *mode, tracer);
  }

  // A request mix: candidate scoring (GCN), re-ranking with attention
  // (AGNN), and a session-graph pass (GraphSAGE-Pool).
  const std::array<std::pair<gnn::GnnModel, const char*>, 3> kMix = {{
      {gnn::GnnModel::kGcn, "candidate-scoring/GCN"},
      {gnn::GnnModel::kAgnn, "re-ranking/AGNN"},
      {gnn::GnnModel::kGraphSagePool, "session/SAGE-Pool"},
  }};
  std::vector<serving::ModelMixEntry> mix;
  for (const auto& [model, label] : kMix) {
    mix.push_back({core::GnnJob::two_layer(model, graph_ds.spec, hidden),
                   std::string(label), 1.0, 0});
  }
  if (args.has("arrival")) {
    return run_open_loop(args, config, graph_ds, mix, params, *mode, tracer);
  }
  return run_closed_loop(args, config, graph_ds, mix, params, *mode, tracer);
}
