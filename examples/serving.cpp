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
//
//   ./examples/serving [--scale=0.1] [--requests=6] [--hidden=32]
//                      [--chips=2] [--mode=data|shard] [--parallel-sim]
//                      [--jobs=N] [--serving-out=report.json]
//   ./examples/serving --arrival=poisson --rate=200000 --slo-us=400
//                      [--seed=1] [--queue-depth=64] [--max-batch=4]
//                      [--tenants=2] [--burst-mult=8] [--burst-frac=0.1]
//                      [--period-us=2000] [--amplitude=0.8]
//                      [--faults=<seed> [--mtbf-us=400] [--mttr-us=60]
//                      [--max-retries=3]] [--proactive-shed]
//   ./examples/serving --dynamic --churn=0.5 --fanout=10,5
//                      [--batch-seeds=4] [--insert-frac=0.7]
//                      [--reshard-threshold=0.2] [--chips=4] [--rate=...]
//
// Dynamic-graph serving (--dynamic) interleaves streaming graph mutations
// with neighbor-sampled mini-batch queries on one Poisson clock: the
// recommendation graph churns while being served. Fault injection (open
// loop only) adds an availability section to the report. Every path also
// takes the observability flags of src/scenario (--trace-out,
// --metrics-out, --critpath, --critpath-out, --what-if,
// --allow-truncated-trace), and accepts only the flags it reads: --faults
// on a closed loop, or --arrival=bursty with --dynamic, is an error.
#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/aurora.hpp"
#include "scenario/scenario.hpp"
#include "serving/serving_engine.hpp"
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

/// The --dynamic flags on top of the serving group's Poisson clock: --churn
/// of all events are mutations (inserts at --insert-frac); a query samples
/// --fanout neighbours per layer (CSV, 0 = all) around --batch-seeds seed
/// vertices; with --chips >= 2 the graph is recut when the cut drifts past
/// --reshard-threshold.
workload::DynamicWorkloadParams read_dynamic(
    const CliArgs& args, const scenario::ServingScenario& s,
    std::uint32_t num_chips) {
  workload::DynamicWorkloadParams wp;
  wp.arrival = s.params.arrival;
  wp.seed = s.params.seed;
  wp.num_ops = s.params.num_requests * 2;
  wp.mutation_fraction = args.get_double("churn", 0.5, 0.0, 1.0);
  wp.insert_fraction = args.get_double("insert-frac", 0.7, 0.0, 1.0);
  wp.num_seeds = args.get_uint("batch-seeds", 4, 1);
  wp.num_tenants = s.params.num_tenants;
  wp.slo_cycles = s.params.slo_cycles;
  wp.num_chips = num_chips;
  wp.reshard_threshold = args.get_double("reshard-threshold", 0.2, 0.0, 1e3);
  wp.sampler.seed = wp.seed * 31 + 7;
  wp.sampler.fanouts = parse_fanouts(args.get_string("fanout", "10,5"));
  return wp;
}

/// Dynamic-graph serving: one seed-deterministic event stream interleaves
/// graph mutations (applied to a DynamicGraph overlay) with inference
/// queries (neighbor-sampled mini-batches drawn against the graph as of the
/// query's arrival cycle), then the queries replay through the engine.
serving::ServingReport run_dynamic(serving::ServingEngine& engine,
                                   const workload::DynamicWorkloadParams& wp,
                                   const graph::Dataset& graph_ds,
                                   std::uint32_t hidden, double rate_rps,
                                   sim::Tracer* tracer) {
  const core::GnnJob job =
      core::GnnJob::two_layer(gnn::GnnModel::kGcn, graph_ds.spec, hidden);
  workload::DynamicGraph dyn(graph_ds.graph);
  workload::DynamicWorkload wl =
      workload::WorkloadGenerator(wp).generate(dyn, graph_ds, job, tracer);
  double batch_vertices = 0.0;
  double batch_edges = 0.0;
  for (const auto& q : wl.queries) {
    batch_vertices += q.dataset->num_vertices();
    batch_edges += static_cast<double>(q.dataset->num_edges());
  }
  serving::ServingReport report =
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
  return report;
}

int run(int argc, char** argv) {
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
  const scenario::ClusterScenario cluster = scenario::read_cluster(args);
  scenario::Artifacts artifacts(args);
  const std::string serving_out = args.get_string("serving-out", "");
  const core::AuroraConfig config = core::AuroraConfig::bench();

  // The path decides which serving flags exist: a closed loop reads only
  // --requests, --dynamic adds its own flags to a Poisson clock, and an
  // open loop (--arrival) reads every arrival process and the faults.
  const bool dynamic = args.get_bool("dynamic", false);
  const bool open_loop = !dynamic && args.has("arrival");
  scenario::ServingScenario s = scenario::read_serving(
      args,
      dynamic     ? scenario::Arrivals::kPoisson
      : open_loop ? scenario::Arrivals::kAnyProcess
                  : scenario::Arrivals::kClosedLoop,
      {.requests = dynamic || open_loop ? 24u : 6u}, cluster.mode,
      config.frequency_mhz);
  workload::DynamicWorkloadParams wp;
  if (dynamic) wp = read_dynamic(args, s, cluster.params.num_chips);
  if (open_loop) scenario::read_faults(args, config.frequency_mhz, s);
  args.reject_unread(dynamic     ? "a dynamic-graph run"
                     : !open_loop ? "a closed-loop run"
                     : s.faults   ? "an open-loop run"
                                  : "an open-loop run without --faults");

  // The "user-item interaction graph": Pubmed-scale structure stands in.
  const graph::Dataset graph_ds =
      graph::make_dataset(graph::DatasetId::kPubmed, scale);
  std::printf("serving on a %u-vertex interaction graph (%llu edges), "
              "%u chip(s)\n\n",
              graph_ds.num_vertices(),
              static_cast<unsigned long long>(graph_ds.num_edges()),
              cluster.params.num_chips);

  serving::ServingEngine engine(config, cluster.params, s.params);
  engine.set_tracer(artifacts.tracer());
  serving::ServingReport report;
  if (dynamic) {
    report = run_dynamic(engine, wp, graph_ds, hidden, s.rate_rps,
                         artifacts.tracer());
  } else {
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
    if (open_loop) {
      // Arrival process -> admission -> batching -> dispatch.
      report = engine.run(graph_ds, mix);
      print_report(report,
                   std::string(serving::arrival_kind_name(
                       s.params.arrival.kind)) +
                       " arrivals at " + to_fixed(s.rate_rps, 0) + " req/s",
                   s.faults);
    } else {
      // Closed loop: a round-robin queue over the mix, every request
      // arriving at cycle 0 and served back to back.
      std::vector<serving::ServingRequest> requests;
      for (std::uint32_t i = 0; i < s.params.num_requests; ++i) {
        serving::ServingRequest request;
        request.id = i;
        request.job = mix[i % mix.size()].job;
        request.label = mix[i % mix.size()].label + " #" + std::to_string(i);
        requests.push_back(std::move(request));
      }
      report = engine.replay(graph_ds, std::move(requests));
      print_report(report,
                   "closed loop: " + std::to_string(s.params.num_requests) +
                       " request(s) back to back",
                   /*faults_on=*/false);
      std::printf("Each request reconfigured the same silicon: compare the "
                  "a:b splits.\n");
    }
  }

  if (!serving_out.empty()) {
    core::write_json_file(serving_out, serving::serving_report_json(report));
    std::printf("serving JSON: %s\n", serving_out.c_str());
  }
  // The per-request metrics report; the serving counters ride the last
  // request.
  std::vector<core::NamedRun> runs;
  for (const auto& r : report.served) {
    runs.push_back(
        {cluster::dispatch_mode_name(report.mode), r.label, r.metrics});
  }
  if (!runs.empty()) runs.back().metrics.counters.merge(report.counters());
  artifacts.emit(runs);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return guarded_main(argc, argv, run);
}
