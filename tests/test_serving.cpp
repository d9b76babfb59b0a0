// Tests for the open-loop serving subsystem: seed-deterministic arrival
// processes, admission/shed accounting, EDF-with-fairness queue ordering,
// dynamic-batching bit-identity, closed-loop replay equivalence with
// chained engine runs, and serial vs parallel-sim determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster_engine.hpp"
#include "common/rng.hpp"
#include "core/report.hpp"
#include "core/scheduler.hpp"
#include "graph/degree.hpp"
#include "graph/generators.hpp"
#include "serving/arrival.hpp"
#include "serving/request_queue.hpp"
#include "serving/serving_engine.hpp"
#include "sim/component.hpp"

namespace aurora {
namespace {

graph::Dataset make_test_dataset(VertexId n, EdgeId undirected_edges,
                                 std::uint64_t seed) {
  Rng rng(seed);
  graph::Dataset ds;
  ds.spec.name = "serving-test";
  ds.spec.feature_dim = 8;
  ds.spec.feature_density = 1.0;
  ds.spec.num_classes = 4;
  ds.graph = graph::generate_erdos_renyi(n, undirected_edges, rng);
  ds.spec.num_vertices = ds.graph.num_vertices();
  ds.spec.num_directed_edges = ds.graph.num_edges();
  ds.degree_stats = graph::compute_degree_stats(ds.graph);
  return ds;
}

core::AuroraConfig small_config() {
  core::AuroraConfig cfg = core::AuroraConfig::bench();
  cfg.array_dim = 4;
  cfg.noc.k = 4;
  return cfg;
}

std::vector<serving::ModelMixEntry> small_mix(
    const graph::DatasetSpec& spec) {
  return {
      {core::GnnJob::two_layer(gnn::GnnModel::kGcn, spec, 8), "gcn", 1.0, 0},
      {core::GnnJob::two_layer(gnn::GnnModel::kAgnn, spec, 8), "agnn", 1.0,
       0},
  };
}

std::vector<Cycle> arrival_stream(serving::ArrivalKind kind,
                                  std::uint64_t seed, std::size_t n) {
  serving::ArrivalParams params;
  params.kind = kind;
  params.rate_per_mcycle = 200.0;
  serving::ArrivalProcess process(params, seed);
  std::vector<Cycle> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(process.next());
  return out;
}

TEST(Arrival, SeedDeterministicAndMonotonic) {
  for (const serving::ArrivalKind kind :
       {serving::ArrivalKind::kPoisson, serving::ArrivalKind::kBursty,
        serving::ArrivalKind::kDiurnal}) {
    const std::vector<Cycle> a = arrival_stream(kind, 42, 200);
    const std::vector<Cycle> b = arrival_stream(kind, 42, 200);
    EXPECT_EQ(a, b) << serving::arrival_kind_name(kind);
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()))
        << serving::arrival_kind_name(kind);
    const std::vector<Cycle> c = arrival_stream(kind, 43, 200);
    EXPECT_NE(a, c) << serving::arrival_kind_name(kind);
  }
}

TEST(Arrival, MeanRateIsApproximatelyHonored) {
  // 2000 arrivals at 200/Mcycle should span about 10 Mcycles; all three
  // processes share the same long-run mean by construction.
  for (const serving::ArrivalKind kind :
       {serving::ArrivalKind::kPoisson, serving::ArrivalKind::kBursty,
        serving::ArrivalKind::kDiurnal}) {
    const std::vector<Cycle> a = arrival_stream(kind, 7, 2000);
    const double span_mcycles = static_cast<double>(a.back()) / 1e6;
    EXPECT_GT(span_mcycles, 5.0) << serving::arrival_kind_name(kind);
    EXPECT_LT(span_mcycles, 20.0) << serving::arrival_kind_name(kind);
  }
}

TEST(Arrival, KindNamesRoundTrip) {
  for (const serving::ArrivalKind kind :
       {serving::ArrivalKind::kPoisson, serving::ArrivalKind::kBursty,
        serving::ArrivalKind::kDiurnal}) {
    EXPECT_EQ(serving::arrival_kind_by_name(serving::arrival_kind_name(kind),
                                            "--arrival"),
              kind);
  }
  try {
    (void)serving::arrival_kind_by_name("sawtooth", "--arrival");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--arrival=sawtooth"),
              std::string::npos);
  }
}

serving::ServingRequest plain_request(std::uint64_t id, Cycle arrival,
                                      Cycle deadline,
                                      std::uint32_t tenant = 0,
                                      std::uint32_t priority = 0) {
  serving::ServingRequest r;
  r.id = id;
  r.tenant = tenant;
  r.priority = priority;
  r.arrival = arrival;
  r.deadline = deadline;
  r.compat_key = "k";
  return r;
}

TEST(RequestQueue, ShedsBeyondDepthCapAndKeepsAccounting) {
  serving::RequestQueue queue(2);
  EXPECT_TRUE(queue.admit(plain_request(0, 0, 100)));
  EXPECT_TRUE(queue.admit(plain_request(1, 1, 100)));
  EXPECT_FALSE(queue.admit(plain_request(2, 2, 100)));
  EXPECT_FALSE(queue.admit(plain_request(3, 3, 100)));
  EXPECT_EQ(queue.admitted(), 2u);
  EXPECT_EQ(queue.shed(), 2u);
  EXPECT_EQ(queue.admitted() + queue.shed(), 4u);
  // Freeing a slot re-opens admission.
  ASSERT_TRUE(queue.pop().has_value());
  EXPECT_TRUE(queue.admit(plain_request(4, 4, 100)));
}

TEST(RequestQueue, PopsEarliestDeadlineFirstUnderContention) {
  serving::RequestQueue queue(0);
  ASSERT_TRUE(queue.admit(plain_request(0, 0, 900)));
  ASSERT_TRUE(queue.admit(plain_request(1, 1, 300)));
  ASSERT_TRUE(queue.admit(plain_request(2, 2, serving::kNoDeadline)));
  ASSERT_TRUE(queue.admit(plain_request(3, 3, 500)));
  std::vector<std::uint64_t> order;
  while (auto r = queue.pop()) order.push_back(r->id);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 3, 0, 2}));
}

TEST(RequestQueue, PriorityClassesDominateDeadlines) {
  serving::RequestQueue queue(0);
  // Urgent class (priority 0) beats a looser deadline in class 1.
  ASSERT_TRUE(queue.admit(plain_request(0, 0, 100, /*tenant=*/0,
                                        /*priority=*/1)));
  ASSERT_TRUE(queue.admit(plain_request(1, 1, 5000, /*tenant=*/0,
                                        /*priority=*/0)));
  auto first = queue.pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->id, 1u);
}

TEST(RequestQueue, BalancesTenantsWithinAClass) {
  serving::RequestQueue queue(0);
  // Tenant 0 floods the queue with earlier deadlines; tenant 1 has one
  // request. After tenant 0 is served once, fairness must pick tenant 1
  // even though its deadline is later.
  ASSERT_TRUE(queue.admit(plain_request(0, 0, 100, /*tenant=*/0)));
  ASSERT_TRUE(queue.admit(plain_request(1, 1, 200, /*tenant=*/0)));
  ASSERT_TRUE(queue.admit(plain_request(2, 2, 900, /*tenant=*/1)));
  std::vector<std::uint64_t> order;
  while (auto r = queue.pop()) order.push_back(r->id);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 2, 1}));
}

TEST(RequestQueue, BatchCollectsCompatibleFollowersInEdfOrder) {
  serving::RequestQueue queue(0);
  auto a = plain_request(0, 0, 100);
  auto b = plain_request(1, 1, 900);
  auto c = plain_request(2, 2, 400);
  auto d = plain_request(3, 3, 200);
  d.compat_key = "other";
  ASSERT_TRUE(queue.admit(a));
  ASSERT_TRUE(queue.admit(b));
  ASSERT_TRUE(queue.admit(c));
  ASSERT_TRUE(queue.admit(d));
  const auto batch = queue.pop_batch(3);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].id, 0u);  // head by EDF
  EXPECT_EQ(batch[1].id, 2u);  // earliest compatible deadline
  EXPECT_EQ(batch[2].id, 1u);
  EXPECT_EQ(queue.size(), 1u);  // the incompatible request stays queued
}

serving::ServingParams closed_loop_params(std::uint32_t max_batch = 1) {
  serving::ServingParams params;
  params.queue_depth = 0;  // unbounded: closed loops never shed
  params.max_batch = max_batch;
  return params;
}

std::vector<serving::ServingRequest> same_model_requests(
    const graph::DatasetSpec& spec, std::size_t n) {
  std::vector<serving::ServingRequest> requests;
  for (std::size_t i = 0; i < n; ++i) {
    serving::ServingRequest r;
    r.id = i;
    r.job = core::GnnJob::two_layer(gnn::GnnModel::kGcn, spec, 8);
    r.label = "gcn #" + std::to_string(i);
    requests.push_back(std::move(r));
  }
  return requests;
}

TEST(ServingEngine, ClosedLoopReplayMatchesChainedEngineRuns) {
  const graph::Dataset ds = make_test_dataset(40, 90, 51);
  const core::AuroraConfig config = small_config();
  const std::vector<std::pair<gnn::GnnModel, std::string>> queue = {
      {gnn::GnnModel::kGcn, "gcn"},
      {gnn::GnnModel::kAgnn, "agnn"},
      {gnn::GnnModel::kGin, "gin"},
      {gnn::GnnModel::kGcn, "gcn2"},
  };

  struct Expected {
    std::uint32_t chip = 0;
    Cycle start = 0;
    Cycle finish = 0;
    Cycle overlap = 0;
    core::RunMetrics metrics;
  };
  // The reference: a fresh engine run per request, placed by hand on the
  // least-loaded chip (ties to the lowest index) and started as early as
  // the overlap helpers allow.
  const auto chain = [&](std::uint32_t chips, cluster::DispatchMode mode) {
    const bool data = mode == cluster::DispatchMode::kDataParallel;
    std::vector<core::ChipTimeline> timelines(data ? chips : 1);
    std::vector<Expected> expected;
    for (const auto& [model, label] : queue) {
      const core::GnnJob job = core::GnnJob::two_layer(model, ds.spec, 8);
      Expected e;
      Cycle lead = 0;
      Cycle tail = 0;
      if (data) {
        core::AuroraAccelerator fresh(config);
        e.metrics = fresh.run(ds, job);
        lead = core::lead_dram_cycles(e.metrics);
        tail = core::tail_compute_cycles(e.metrics);
      } else {
        cluster::ClusterParams cluster_params;
        cluster_params.num_chips = chips;
        cluster::ClusterEngine engine(config, cluster_params);
        const cluster::ClusterRunMetrics run = engine.run(ds, job);
        e.metrics.total_cycles = run.total_cycles;
        lead = tail = sim::kNoEvent;
        for (const cluster::ChipRun& chip : run.chips) {
          lead = std::min(lead, core::lead_dram_cycles(chip.metrics));
          tail = std::min(tail, core::tail_compute_cycles(chip.metrics));
        }
      }
      for (std::uint32_t c = 1; c < timelines.size(); ++c) {
        if (timelines[c].busy_until < timelines[e.chip].busy_until) e.chip = c;
      }
      core::ChipTimeline& timeline = timelines[e.chip];
      e.overlap = std::min(timeline.prev_compute_tail, lead);
      e.start = timeline.busy_until - e.overlap;
      e.finish = e.start + e.metrics.total_cycles;
      timeline = {e.finish, tail};
      expected.push_back(std::move(e));
    }
    return expected;
  };

  for (const auto& [chips, mode] :
       std::vector<std::pair<std::uint32_t, cluster::DispatchMode>>{
           {1, cluster::DispatchMode::kDataParallel},
           {2, cluster::DispatchMode::kDataParallel},
           {2, cluster::DispatchMode::kShardParallel}}) {
    SCOPED_TRACE(std::to_string(chips) + " chip(s), " +
                 cluster::dispatch_mode_name(mode));
    const std::vector<Expected> expected = chain(chips, mode);

    // The serving engine on the same queue: all arrivals at cycle 0, no
    // batching, an unbounded queue.
    std::vector<serving::ServingRequest> requests;
    for (std::size_t i = 0; i < queue.size(); ++i) {
      serving::ServingRequest r;
      r.id = i;
      r.job = core::GnnJob::two_layer(queue[i].first, ds.spec, 8);
      r.label = queue[i].second;
      requests.push_back(std::move(r));
    }
    serving::ServingParams params = closed_loop_params();
    params.mode = mode;
    cluster::ClusterParams cluster_params;
    cluster_params.num_chips = chips;
    serving::ServingEngine engine(config, cluster_params, params);
    const serving::ServingReport report =
        engine.replay(ds, std::move(requests));

    ASSERT_EQ(report.served.size(), expected.size());
    EXPECT_EQ(report.shed, 0u);
    Cycle savings = 0;
    Cycle makespan = 0;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      const serving::ServedRequest& served = report.served[i];
      const Expected& e = expected[i];
      EXPECT_EQ(served.label, queue[i].second);
      EXPECT_EQ(served.chip, e.chip) << served.label;
      EXPECT_EQ(served.start, e.start) << served.label;
      EXPECT_EQ(served.finish, e.finish) << served.label;
      EXPECT_EQ(served.overlap_hidden, e.overlap) << served.label;
      if (mode == cluster::DispatchMode::kDataParallel) {
        const auto diff = core::diff_run_metrics(served.metrics, e.metrics);
        EXPECT_TRUE(diff.empty())
            << served.label << ": " << (diff.empty() ? "" : diff.front());
      } else {
        EXPECT_EQ(served.metrics.total_cycles, e.metrics.total_cycles);
      }
      savings += e.overlap;
      makespan = std::max(makespan, e.finish);
    }
    EXPECT_EQ(report.horizon, makespan);
    EXPECT_EQ(report.overlap_savings, savings);
  }
}

TEST(ServingEngine, BatchingSavesExactlyTheSkippedReconfigurations) {
  const graph::Dataset ds = make_test_dataset(40, 90, 51);
  const core::AuroraConfig config = small_config();
  cluster::ClusterParams cluster_params;
  cluster_params.num_chips = 1;

  serving::ServingEngine serial(config, cluster_params,
                                closed_loop_params(/*max_batch=*/1));
  const serving::ServingReport without =
      serial.replay(ds, same_model_requests(ds.spec, 3));

  serving::ServingEngine batched(config, cluster_params,
                                 closed_loop_params(/*max_batch=*/3));
  const serving::ServingReport with =
      batched.replay(ds, same_model_requests(ds.spec, 3));

  ASSERT_EQ(without.served.size(), 3u);
  ASSERT_EQ(with.served.size(), 3u);
  EXPECT_EQ(without.reconfig_savings, 0u);
  EXPECT_GT(with.reconfig_savings, 0u);

  // Bit-identity: batching only removes the followers' exposed
  // reconfiguration spans; every start/finish shifts by exactly the
  // cumulative savings and nothing else changes.
  Cycle cumulative_saved = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& b = with.served[i];
    const auto& s = without.served[i];
    EXPECT_EQ(b.start, s.start - cumulative_saved) << i;
    cumulative_saved += b.reconfig_saved;
    EXPECT_EQ(b.finish, s.finish - cumulative_saved) << i;
    EXPECT_EQ(b.metrics.compute_cycles, s.metrics.compute_cycles) << i;
    EXPECT_EQ(b.metrics.dram_cycles, s.metrics.dram_cycles) << i;
    EXPECT_EQ(b.metrics.reconfig_cycles + b.reconfig_saved,
              s.metrics.reconfig_cycles)
        << i;
  }
  EXPECT_EQ(with.horizon, without.horizon - with.reconfig_savings);
}

TEST(ServingEngine, OpenLoopRunIsSeedDeterministic) {
  const graph::Dataset ds = make_test_dataset(40, 90, 51);
  const core::AuroraConfig config = small_config();
  cluster::ClusterParams cluster_params;
  cluster_params.num_chips = 2;

  serving::ServingParams params;
  params.seed = 11;
  params.num_requests = 12;
  params.queue_depth = 4;
  params.arrival.rate_per_mcycle = 300.0;
  params.slo_cycles = 60000;
  params.num_tenants = 2;

  serving::ServingEngine a(config, cluster_params, params);
  serving::ServingEngine b(config, cluster_params, params);
  const auto mix = small_mix(ds.spec);
  const serving::ServingReport ra = a.run(ds, mix);
  const serving::ServingReport rb = b.run(ds, mix);
  EXPECT_EQ(serving::serving_report_json(ra),
            serving::serving_report_json(rb));

  params.seed = 12;
  serving::ServingEngine c(config, cluster_params, params);
  const serving::ServingReport rc = c.run(ds, mix);
  EXPECT_NE(serving::serving_report_json(ra),
            serving::serving_report_json(rc));
}

TEST(ServingEngine, ShedAccountingCoversEveryGeneratedRequest) {
  const graph::Dataset ds = make_test_dataset(40, 90, 51);
  const core::AuroraConfig config = small_config();
  cluster::ClusterParams cluster_params;
  cluster_params.num_chips = 1;

  // Overload: a tiny queue and an arrival rate far above service capacity,
  // so a healthy fraction of requests must shed.
  serving::ServingParams params;
  params.seed = 3;
  params.num_requests = 20;
  params.queue_depth = 2;
  params.arrival.rate_per_mcycle = 5000.0;

  serving::ServingEngine engine(config, cluster_params, params);
  const serving::ServingReport report = engine.run(ds, small_mix(ds.spec));
  EXPECT_EQ(report.generated, 20u);
  EXPECT_EQ(report.admitted + report.shed, report.generated);
  EXPECT_GT(report.shed, 0u);
  EXPECT_EQ(report.served.size(), report.admitted);
  EXPECT_GT(report.shed_rate(), 0.0);
  // The counters mirror the report scalars.
  const CounterSet counters = report.counters();
  EXPECT_EQ(counters.get("serving.generated"), report.generated);
  EXPECT_EQ(counters.get("serving.shed"), report.shed);
}

TEST(ServingEngine, SerialAndParallelSimAgreeBitForBit) {
  const graph::Dataset ds = make_test_dataset(60, 150, 9);
  const core::AuroraConfig config = small_config();

  serving::ServingParams params;
  params.seed = 5;
  params.num_requests = 6;
  params.queue_depth = 8;
  params.arrival.rate_per_mcycle = 100.0;
  params.slo_cycles = 500000;
  params.mode = cluster::DispatchMode::kShardParallel;

  cluster::ClusterParams serial_params;
  serial_params.num_chips = 2;
  serial_params.parallel = false;
  serving::ServingEngine serial(config, serial_params, params);
  const serving::ServingReport serial_report =
      serial.run(ds, small_mix(ds.spec));

  cluster::ClusterParams parallel_params;
  parallel_params.num_chips = 2;
  parallel_params.parallel = true;
  serving::ServingEngine parallel(config, parallel_params, params);
  const serving::ServingReport parallel_report =
      parallel.run(ds, small_mix(ds.spec));

  EXPECT_EQ(serving::serving_report_json(serial_report),
            serving::serving_report_json(parallel_report));
}

TEST(ServingReport, JsonCarriesSchemaAndExactPercentiles) {
  serving::ServingReport report;
  report.generated = 4;
  report.admitted = 4;
  report.frequency_mhz = 1000.0;
  for (std::uint64_t i = 0; i < 4; ++i) {
    serving::ServedRequest r;
    r.id = i;
    r.label = "r" + std::to_string(i);
    r.arrival = 0;
    r.start = 10 * i;
    r.finish = 10 * i + 100 * (i + 1);
    report.served.push_back(r);
    report.horizon = std::max(report.horizon, r.finish);
  }
  // Latencies are 100+0, 200+10, 300+20, 400+30 cycles; nearest-rank p50 is
  // the 2nd sample.
  EXPECT_EQ(report.latency_percentile(0.50), 210.0);
  EXPECT_EQ(report.latency_percentile(1.0), 430.0);
  const std::string json = serving::serving_report_json(report);
  EXPECT_NE(json.find("\"schema\": \"aurora.serving.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"latency_p50_cycles\": 210"), std::string::npos);
  EXPECT_NE(json.find("\"requests\": ["), std::string::npos);
}

TEST(ServingReport, JsonEscapesRequestLabels) {
  serving::ServingReport report;
  report.frequency_mhz = 1000.0;
  serving::ServedRequest r;
  r.label = "say \"hi\"\\now\nplease";
  report.served.push_back(r);
  const std::string json = serving::serving_report_json(report);
  EXPECT_NE(json.find("\"label\": \"say \\\"hi\\\"\\\\now\\u000aplease\""),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

}  // namespace
}  // namespace aurora
