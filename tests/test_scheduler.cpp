// Tests for request scheduling: the DRAM/compute overlap helpers, and
// closed-loop queues served through ServingEngine::replay on one chip and
// on a cluster — submission-order execution, the overlap chain, partition
// reuse across mixed-model queues, and both dispatch modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cluster/cluster_engine.hpp"
#include "common/rng.hpp"
#include "core/aurora.hpp"
#include "core/report.hpp"
#include "core/scheduler.hpp"
#include "graph/degree.hpp"
#include "graph/generators.hpp"
#include "serving/serving_engine.hpp"
#include "sim/component.hpp"
#include "sim/trace.hpp"

namespace aurora {
namespace {

graph::Dataset make_test_dataset(VertexId n, EdgeId undirected_edges,
                                 std::uint64_t seed) {
  Rng rng(seed);
  graph::Dataset ds;
  ds.spec.name = "scheduler-test";
  ds.spec.feature_dim = 8;
  ds.spec.feature_density = 1.0;
  ds.spec.num_classes = 4;
  ds.graph = graph::generate_erdos_renyi(n, undirected_edges, rng);
  ds.spec.num_vertices = ds.graph.num_vertices();
  ds.spec.num_directed_edges = ds.graph.num_edges();
  ds.degree_stats = graph::compute_degree_stats(ds.graph);
  return ds;
}

core::AuroraConfig small_config(std::uint32_t array_dim = 4) {
  core::AuroraConfig cfg = core::AuroraConfig::bench();
  cfg.array_dim = array_dim;
  cfg.noc.k = array_dim;
  return cfg;
}

struct QueuedJob {
  core::GnnJob job;
  std::string label;
};

std::vector<QueuedJob> mixed_queue(const graph::DatasetSpec& spec) {
  return {
      {core::GnnJob::two_layer(gnn::GnnModel::kGcn, spec, 8), "gcn"},
      {core::GnnJob::two_layer(gnn::GnnModel::kAgnn, spec, 8), "agnn"},
      {core::GnnJob::two_layer(gnn::GnnModel::kGin, spec, 8), "gin"},
      {core::GnnJob::two_layer(gnn::GnnModel::kGcn, spec, 8), "gcn2"},
  };
}

/// Serve `queue` as a closed loop: every request arrives at cycle 0 and
/// runs back to back (no batching, no shedding). A tracer, when given,
/// also disables the service cache, so every request is simulated.
serving::ServingReport replay_closed_loop(
    const graph::Dataset& ds, const std::vector<QueuedJob>& queue,
    const core::AuroraConfig& config = small_config(),
    std::uint32_t chips = 1,
    cluster::DispatchMode mode = cluster::DispatchMode::kDataParallel,
    sim::Tracer* tracer = nullptr) {
  std::vector<serving::ServingRequest> requests;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    serving::ServingRequest r;
    r.id = i;
    r.job = queue[i].job;
    r.label = queue[i].label;
    requests.push_back(std::move(r));
  }
  serving::ServingParams params;
  params.queue_depth = 0;
  params.max_batch = 1;
  params.mode = mode;
  cluster::ClusterParams cluster_params;
  cluster_params.num_chips = chips;
  serving::ServingEngine engine(config, cluster_params, params);
  if (tracer != nullptr) engine.set_tracer(tracer);
  return engine.replay(ds, std::move(requests));
}

TEST(Scheduler, PreservesSubmissionOrderAndTimeline) {
  const graph::Dataset ds = make_test_dataset(40, 90, 51);
  const serving::ServingReport report =
      replay_closed_loop(ds, mixed_queue(ds.spec));

  ASSERT_EQ(report.served.size(), 4u);
  EXPECT_EQ(report.shed, 0u);
  const std::vector<std::string> expected = {"gcn", "agnn", "gin", "gcn2"};
  Cycle prev_finish = 0;
  for (std::size_t i = 0; i < report.served.size(); ++i) {
    const serving::ServedRequest& r = report.served[i];
    EXPECT_EQ(r.label, expected[i]);
    EXPECT_LE(r.start, r.finish);
    // Requests execute in order: each starts no earlier than the overlap
    // window under its predecessor's tail.
    EXPECT_GE(r.finish, prev_finish);
    EXPECT_EQ(r.service_time(), r.metrics.total_cycles);
    prev_finish = r.finish;
  }
  EXPECT_EQ(report.horizon, report.served.back().finish);
  EXPECT_GT(report.latency_percentile(0.5), 0.0);
}

TEST(Scheduler, OverlapSavingsMatchHelperModel) {
  const graph::Dataset ds = make_test_dataset(40, 90, 53);
  const serving::ServingReport report =
      replay_closed_loop(ds, mixed_queue(ds.spec));

  // Recompute the overlap chain from the requests' own metrics: the
  // placement must agree with the public helper model exactly.
  Cycle expected_savings = 0;
  Cycle prev_tail = 0;
  Cycle serial = 0;
  for (const serving::ServedRequest& r : report.served) {
    EXPECT_EQ(r.overlap_hidden, core::overlap_cycles(prev_tail, r.metrics));
    expected_savings += core::overlap_cycles(prev_tail, r.metrics);
    prev_tail = core::tail_compute_cycles(r.metrics);
    serial += r.metrics.total_cycles;
  }
  EXPECT_EQ(report.overlap_savings, expected_savings);
  EXPECT_EQ(report.horizon + report.overlap_savings, serial);
  // The first request has nothing to hide under.
  EXPECT_EQ(report.served.front().start, 0u);
  // A mixed queue on a connected graph always finds some overlap.
  EXPECT_GT(report.overlap_savings, 0u);
}

TEST(Scheduler, HelperSpansDeriveFromSubgraphCounts) {
  const graph::Dataset ds = make_test_dataset(40, 90, 57);
  core::AuroraAccelerator accelerator(small_config());
  const core::RunMetrics m = accelerator.run(
      ds, core::GnnJob::two_layer(gnn::GnnModel::kGcn, ds.spec, 8));
  const Cycle subgraphs = std::max<Cycle>(1, m.num_subgraphs);
  EXPECT_EQ(core::lead_dram_cycles(m), m.dram_cycles / subgraphs);
  EXPECT_EQ(core::tail_compute_cycles(m), m.compute_cycles / subgraphs);
  EXPECT_EQ(core::overlap_cycles(0, m), 0u);
  EXPECT_EQ(core::overlap_cycles(sim::kNoEvent, m),
            core::lead_dram_cycles(m));
}

TEST(Scheduler, PartitionStateReusedAcrossMixedModelQueues) {
  const graph::Dataset ds = make_test_dataset(40, 90, 59);
  // Two replays of the same queue on fresh chips must agree bit for bit:
  // partition/mapping state reuse inside one accelerator is deterministic
  // and does not leak between requests.
  const serving::ServingReport a =
      replay_closed_loop(ds, mixed_queue(ds.spec));
  const serving::ServingReport b =
      replay_closed_loop(ds, mixed_queue(ds.spec));
  ASSERT_EQ(a.served.size(), b.served.size());
  for (std::size_t i = 0; i < a.served.size(); ++i) {
    const auto diffs =
        core::diff_run_metrics(a.served[i].metrics, b.served[i].metrics);
    EXPECT_TRUE(diffs.empty())
        << a.served[i].label << ": "
        << (diffs.empty() ? std::string() : diffs.front());
    // Every request settled on a partition.
    EXPECT_GT(a.served[i].metrics.num_subgraphs, 0u);
  }
  EXPECT_EQ(a.horizon, b.horizon);
  EXPECT_EQ(a.overlap_savings, b.overlap_savings);

  // The same jobs simulated back to back on one accelerator (tracing
  // bypasses the service cache, so the repeated GCN job runs again) also
  // match a per-request fresh accelerator: reuse is purely a performance
  // property of the software stack, not a timing one.
  sim::Tracer tracer;
  tracer.enable();
  const serving::ServingReport c =
      replay_closed_loop(ds, mixed_queue(ds.spec), small_config(), 1,
                         cluster::DispatchMode::kDataParallel, &tracer);
  ASSERT_EQ(c.served.size(), 4u);
  for (std::size_t i = 0; i < c.served.size(); ++i) {
    core::AuroraAccelerator fresh(small_config());
    const core::RunMetrics expected =
        fresh.run(ds, mixed_queue(ds.spec)[i].job);
    const auto diffs = core::diff_run_metrics(c.served[i].metrics, expected);
    EXPECT_TRUE(diffs.empty())
        << c.served[i].label << ": "
        << (diffs.empty() ? std::string() : diffs.front());
  }
}

TEST(Scheduler, SequencesRequestsWithOverlap) {
  const graph::Dataset ds =
      graph::make_dataset(graph::DatasetId::kCora, 0.05);
  const serving::ServingReport report = replay_closed_loop(
      ds,
      {{core::GnnJob::two_layer(gnn::GnnModel::kGcn, ds.spec, 16), "gcn"},
       {core::GnnJob::two_layer(gnn::GnnModel::kGin, ds.spec, 16), "gin"},
       {core::GnnJob::two_layer(gnn::GnnModel::kAgnn, ds.spec, 16), "agnn"}},
      small_config(8));

  ASSERT_EQ(report.served.size(), 3u);
  // Requests finish in order and the horizon (makespan) is the last finish.
  for (std::size_t i = 1; i < report.served.size(); ++i) {
    EXPECT_GE(report.served[i].finish, report.served[i - 1].finish);
  }
  EXPECT_EQ(report.horizon, report.served.back().finish);
  // Overlap saves cycles vs back-to-back.
  Cycle back_to_back = 0;
  for (const auto& r : report.served) back_to_back += r.metrics.total_cycles;
  EXPECT_LT(report.horizon, back_to_back);
  EXPECT_GT(report.overlap_savings, 0u);
  EXPECT_GT(report.latency_percentile(0.5), 0.0);
}

TEST(Scheduler, SingleRequestHasNoOverlap) {
  const graph::Dataset ds =
      graph::make_dataset(graph::DatasetId::kCora, 0.05);
  const serving::ServingReport report = replay_closed_loop(
      ds, {{core::GnnJob::two_layer(gnn::GnnModel::kGcn, ds.spec), "only"}},
      small_config(8));
  ASSERT_EQ(report.served.size(), 1u);
  EXPECT_EQ(report.overlap_savings, 0u);
  EXPECT_EQ(report.horizon, report.served[0].metrics.total_cycles);
}

TEST(ClusterScheduler, DataParallelSpreadsRequestsAcrossChips) {
  const graph::Dataset ds = make_test_dataset(40, 90, 37);
  std::vector<QueuedJob> queue;
  for (int i = 0; i < 4; ++i) {
    queue.push_back({core::GnnJob::two_layer(gnn::GnnModel::kGcn, ds.spec, 8),
                     "req" + std::to_string(i)});
  }
  const serving::ServingReport report = replay_closed_loop(
      ds, queue, small_config(), 2, cluster::DispatchMode::kDataParallel);

  ASSERT_EQ(report.served.size(), 4u);
  bool chip0 = false;
  bool chip1 = false;
  Cycle service_sum = 0;
  for (std::size_t i = 0; i < report.served.size(); ++i) {
    const serving::ServedRequest& r = report.served[i];
    EXPECT_EQ(r.label, "req" + std::to_string(i));
    EXPECT_LT(r.chip, 2u);
    chip0 |= r.chip == 0;
    chip1 |= r.chip == 1;
    service_sum += r.service_time();
  }
  EXPECT_TRUE(chip0 && chip1) << "both chips should serve requests";
  // Two chips in parallel beat a serial schedule of the same requests.
  EXPECT_LT(report.horizon, service_sum);
}

TEST(ClusterScheduler, ShardParallelMatchesClusterEngineLatency) {
  const graph::Dataset ds = make_test_dataset(40, 90, 41);
  const core::GnnJob job =
      core::GnnJob::two_layer(gnn::GnnModel::kGcn, ds.spec, 8);
  cluster::ClusterParams params;
  params.num_chips = 2;
  const core::AuroraConfig cfg = small_config();

  cluster::ClusterEngine engine(cfg, params);
  const Cycle engine_total = engine.run(ds, job).total_cycles;

  const serving::ServingReport report = replay_closed_loop(
      ds, {{job, "only"}}, cfg, 2, cluster::DispatchMode::kShardParallel);
  ASSERT_EQ(report.served.size(), 1u);
  EXPECT_EQ(report.served[0].service_time(), engine_total);
  EXPECT_EQ(report.served[0].metrics.total_cycles, engine_total);
  EXPECT_EQ(report.horizon, engine_total);
  EXPECT_GT(report.served[0].metrics.counters.get("cluster.halo_bytes_sent"),
            0u);
}

}  // namespace
}  // namespace aurora
