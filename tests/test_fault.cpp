// Tests for deterministic fault injection and failure-aware serving:
// seed-reproducible fault plans and their window-query semantics, link
// degradation and DRAM stalls staying bit-identical across engine flavours
// while only ever lengthening runs, fail-stop failover and shard-parallel
// fallback in the cluster scheduler, and the serving engine's retry/backoff,
// proactive-shedding and conservation guarantees.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster_engine.hpp"
#include "cluster/cluster_scheduler.hpp"
#include "common/rng.hpp"
#include "core/aurora.hpp"
#include "core/report.hpp"
#include "fault/fault.hpp"
#include "graph/degree.hpp"
#include "graph/generators.hpp"
#include "serving/request_queue.hpp"
#include "serving/serving_engine.hpp"

namespace aurora {
namespace {

graph::Dataset make_test_dataset(VertexId n, EdgeId undirected_edges,
                                 std::uint64_t seed) {
  Rng rng(seed);
  graph::Dataset ds;
  ds.spec.name = "fault-test";
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

fault::FaultParams chip_fault_params(std::uint64_t seed, double mtbf,
                                     double mttr,
                                     Cycle horizon = 1'000'000) {
  fault::FaultParams p;
  p.seed = seed;
  p.horizon = horizon;
  p.chip_mtbf = mtbf;
  p.chip_mttr = mttr;
  return p;
}

// ---------------------------------------------------------------- plans

TEST(FaultPlan, GenerateIsDeterministic) {
  fault::FaultParams p = chip_fault_params(42, 5'000.0, 2'000.0);
  p.link_mtbf = 8'000.0;
  p.link_mttr = 3'000.0;
  p.dram_mtbf = 10'000.0;
  p.dram_mttr = 1'000.0;
  const fault::FaultPlan a = fault::FaultPlan::generate(p, 3);
  const fault::FaultPlan b = fault::FaultPlan::generate(p, 3);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a.timeline(), b.timeline());
  EXPECT_EQ(a.events().size(), b.events().size());

  fault::FaultParams q = p;
  q.seed = 43;
  const fault::FaultPlan c = fault::FaultPlan::generate(q, 3);
  EXPECT_NE(a.timeline(), c.timeline());
}

TEST(FaultPlan, EmptyPlanIsInert) {
  const fault::FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_FALSE(plan.chip_down_at(0, 123));
  EXPECT_EQ(plan.chip_up_after(0, 123), 123u);
  EXPECT_EQ(plan.chip_down_in(0, 0, fault::kNever), fault::kNever);
  EXPECT_DOUBLE_EQ(plan.wire_multiplier_at(0, 1, 500), 1.0);
  EXPECT_DOUBLE_EQ(plan.max_link_multiplier(), 1.0);
  EXPECT_EQ(plan.timeline(), "");

  // Disabled params (horizon == 0) also generate an inert plan.
  fault::FaultParams off;
  off.chip_mtbf = 100.0;
  const fault::FaultPlan disabled = fault::FaultPlan::generate(off, 2);
  EXPECT_TRUE(disabled.empty());
}

TEST(FaultPlan, ChipQueriesMatchGeneratedWindows) {
  const fault::FaultPlan plan =
      fault::FaultPlan::generate(chip_fault_params(7, 3'000.0, 1'500.0), 4);
  std::size_t checked = 0;
  for (std::uint32_t c = 0; c < 4; ++c) {
    for (const fault::DownWindow& w : plan.chip_windows(c)) {
      // [begin, end) semantics.
      EXPECT_TRUE(plan.chip_down_at(c, w.begin));
      EXPECT_EQ(plan.chip_up_after(c, w.begin), w.end);
      if (w.end != fault::kNever) {
        EXPECT_FALSE(plan.chip_down_at(c, w.end));
        EXPECT_EQ(plan.chip_up_after(c, w.end), w.end);
        EXPECT_TRUE(plan.chip_down_at(c, w.end - 1));
      }
      // chip_down_in is exclusive at `after`: a failure exactly at the
      // dispatch cycle was already handled by chip_up_after.
      EXPECT_EQ(plan.chip_down_in(c, w.begin, w.begin + 1), fault::kNever);
      ASSERT_GT(w.begin, 0u);
      EXPECT_EQ(plan.chip_down_in(c, w.begin - 1, w.begin + 1), w.begin);
      ++checked;
    }
  }
  EXPECT_GT(checked, 10u) << "fault params too mild to exercise queries";
}

TEST(FaultPlan, MttrZeroMeansPermanentFailStop) {
  const fault::FaultPlan plan =
      fault::FaultPlan::generate(chip_fault_params(3, 1'000.0, 0.0), 2);
  for (std::uint32_t c = 0; c < 2; ++c) {
    const auto& windows = plan.chip_windows(c);
    ASSERT_EQ(windows.size(), 1u) << "fail-stop chips fail exactly once";
    EXPECT_EQ(windows[0].end, fault::kNever);
    EXPECT_EQ(plan.chip_up_after(c, windows[0].begin), fault::kNever);
  }
}

TEST(FaultPlan, ChipAndDramStreamsStableAcrossChipCount) {
  // Adding chips must not perturb existing chips' schedules (decorrelated
  // per-entity sub-streams): chip and DRAM windows, not wires, whose index
  // space depends on the chip count.
  fault::FaultParams p = chip_fault_params(11, 4'000.0, 2'000.0);
  p.dram_mtbf = 6'000.0;
  p.dram_mttr = 500.0;
  const fault::FaultPlan two = fault::FaultPlan::generate(p, 2);
  const fault::FaultPlan four = fault::FaultPlan::generate(p, 4);
  for (std::uint32_t c = 0; c < 2; ++c) {
    ASSERT_EQ(two.chip_windows(c).size(), four.chip_windows(c).size());
    for (std::size_t i = 0; i < two.chip_windows(c).size(); ++i) {
      EXPECT_EQ(two.chip_windows(c)[i].begin, four.chip_windows(c)[i].begin);
      EXPECT_EQ(two.chip_windows(c)[i].end, four.chip_windows(c)[i].end);
    }
    ASSERT_EQ(two.dram_windows(c).size(), four.dram_windows(c).size());
    for (std::size_t i = 0; i < two.dram_windows(c).size(); ++i) {
      EXPECT_EQ(two.dram_windows(c)[i].begin, four.dram_windows(c)[i].begin);
      EXPECT_EQ(two.dram_windows(c)[i].end, four.dram_windows(c)[i].end);
    }
  }
}

// ------------------------------------------------- link degradation

TEST(LinkFaults, DegradationLengthensRunsAndKeepsFlavoursIdentical) {
  const graph::Dataset ds = make_test_dataset(160, 480, 5);
  const core::GnnJob job =
      core::GnnJob::two_layer(gnn::GnnModel::kGcn, ds.spec, 8);

  cluster::ClusterParams params;
  params.num_chips = 2;
  params.link.topology = cluster::ClusterTopology::kRing;
  params.link.bytes_per_cycle = 8;

  fault::FaultParams fp;
  fp.seed = 21;
  fp.horizon = 2'000'000;
  fp.link_mtbf = 1'000.0;
  fp.link_mttr = 4'000.0;
  fp.link_multiplier_min = 4.0;
  fp.link_multiplier_max = 8.0;
  const auto plan = std::make_shared<fault::FaultPlan>(
      fault::FaultPlan::generate(fp, params.num_chips));
  ASSERT_FALSE(plan->empty());

  const auto run = [&](bool fast_forward, bool parallel,
                       bool faulty) {
    core::AuroraConfig cfg = small_config();
    cfg.fast_forward = fast_forward;
    cluster::ClusterParams p = params;
    p.parallel = parallel;
    p.parallel_jobs = parallel ? 2 : 0;
    if (faulty) p.fault_plan = plan;
    cluster::ClusterEngine engine(cfg, p);
    return engine.run(ds, job);
  };

  const cluster::ClusterRunMetrics healthy = run(false, false, false);
  const cluster::ClusterRunMetrics faulty = run(false, false, true);
  // Degradation stretches wire serialisation; it can never create or drop
  // traffic, and a >= 1 multiplier can only lengthen the run.
  EXPECT_GT(faulty.link.degraded_sends, 0u);
  EXPECT_GT(faulty.link.degraded_extra_cycles, 0u);
  EXPECT_EQ(faulty.link.bytes_delivered, healthy.link.bytes_delivered);
  EXPECT_EQ(faulty.link.messages_delivered, healthy.link.messages_delivered);
  EXPECT_GE(faulty.total_cycles, healthy.total_cycles);

  // All four engine flavours agree bit for bit on the degraded run.
  EXPECT_TRUE(
      cluster::diff_cluster_run_metrics(faulty, run(true, false, true))
          .empty());
  EXPECT_TRUE(
      cluster::diff_cluster_run_metrics(faulty, run(false, true, true))
          .empty());
  EXPECT_TRUE(
      cluster::diff_cluster_run_metrics(faulty, run(true, true, true))
          .empty());
}

// ------------------------------------------------------- DRAM stalls

TEST(DramFaults, StallsLengthenRunsAndKeepModesIdentical) {
  const graph::Dataset ds = make_test_dataset(120, 360, 9);
  const gnn::LayerConfig layer{8, 8};

  const auto run = [&](bool fast_forward, bool stalls) {
    core::AuroraConfig cfg = small_config();
    cfg.fast_forward = fast_forward;
    cfg.check_invariants = true;
    if (stalls) {
      cfg.dram.stall_windows = {
          {dram::DramStallWindow::kAllChannels, 200, 4'000},
          {dram::DramStallWindow::kAllChannels, 6'000, 9'000},
          {0, 12'000, 20'000}};
    }
    core::AuroraAccelerator accel(cfg);
    return accel.run_layer(ds, gnn::GnnModel::kGcn, layer, 0);
  };

  const core::RunMetrics healthy = run(false, false);
  const core::RunMetrics stalled = run(false, true);
  EXPECT_GE(stalled.total_cycles, healthy.total_cycles);
  // Stalls delay issue; they never lose requests.
  EXPECT_EQ(stalled.dram_bytes, healthy.dram_bytes);
  EXPECT_EQ(stalled.dram_accesses, healthy.dram_accesses);

  const core::RunMetrics stalled_ff = run(true, true);
  EXPECT_TRUE(core::diff_run_metrics(stalled, stalled_ff).empty());
}

// ------------------------------------------------- scheduler failover

/// First cycle at which `down` is inside a repairable window of `chip`
/// while every other chip is up; nullopt if the plan never has one.
std::optional<Cycle> find_lopsided_down_cycle(const fault::FaultPlan& plan,
                                              std::uint32_t chip,
                                              std::uint32_t num_chips) {
  for (const fault::DownWindow& w : plan.chip_windows(chip)) {
    if (w.end == fault::kNever) continue;
    const Cycle mid = w.begin + (w.end - w.begin) / 2;
    bool others_up = true;
    for (std::uint32_t c = 0; c < num_chips; ++c) {
      if (c != chip && plan.chip_down_at(c, mid)) others_up = false;
    }
    if (others_up) return mid;
  }
  return std::nullopt;
}

TEST(Failover, DataParallelDispatchAvoidsDownChips) {
  const graph::Dataset ds = make_test_dataset(96, 280, 13);
  cluster::ClusterParams params;
  params.num_chips = 2;

  const auto plan = std::make_shared<fault::FaultPlan>(fault::FaultPlan::generate(
      chip_fault_params(17, 40'000.0, 60'000.0, 2'000'000), 2));
  const std::optional<Cycle> when = find_lopsided_down_cycle(*plan, 0, 2);
  ASSERT_TRUE(when.has_value()) << "fault params never downed chip 0 alone";

  cluster::ClusterScheduler scheduler(small_config(), params);
  scheduler.set_fault_plan(plan);
  const core::GnnJob job =
      core::GnnJob::two_layer(gnn::GnnModel::kGcn, ds.spec, 8);
  const cluster::ClusterOutcome outcome =
      scheduler.serve(ds, job, "", cluster::DispatchMode::kDataParallel,
                      /*not_before=*/*when);
  EXPECT_FALSE(outcome.no_capacity);
  EXPECT_EQ(outcome.chip, 1u) << "dispatch picked the downed chip";
  EXPECT_GE(outcome.start_cycle, *when);
  EXPECT_FALSE(plan->chip_down_at(outcome.chip, outcome.start_cycle));
  if (outcome.failed) {
    // A later failure on the serving chip collapses the attempt to the
    // failure instant.
    EXPECT_EQ(outcome.finish_cycle, outcome.failed_at);
  }
}

TEST(Failover, AllChipsPermanentlyDownReportsNoCapacity) {
  const graph::Dataset ds = make_test_dataset(64, 180, 23);
  cluster::ClusterParams params;
  params.num_chips = 2;

  // MTTR 0: both chips fail-stop within the horizon and never recover.
  const auto plan = std::make_shared<fault::FaultPlan>(
      fault::FaultPlan::generate(chip_fault_params(29, 500.0, 0.0, 100'000), 2));
  Cycle all_dead_at = 0;
  for (std::uint32_t c = 0; c < 2; ++c) {
    ASSERT_EQ(plan->chip_windows(c).size(), 1u);
    all_dead_at = std::max(all_dead_at, plan->chip_windows(c)[0].begin);
  }

  cluster::ClusterScheduler scheduler(small_config(), params);
  scheduler.set_fault_plan(plan);
  const core::GnnJob job =
      core::GnnJob::two_layer(gnn::GnnModel::kGcn, ds.spec, 8);
  const cluster::ClusterOutcome outcome =
      scheduler.serve(ds, job, "", cluster::DispatchMode::kDataParallel,
                      /*not_before=*/all_dead_at);
  EXPECT_TRUE(outcome.no_capacity);
  EXPECT_TRUE(outcome.failed);
  EXPECT_EQ(outcome.start_cycle, all_dead_at);
  EXPECT_EQ(outcome.finish_cycle, all_dead_at);
}

TEST(Failover, ShardParallelFallsBackToDataParallel) {
  const graph::Dataset ds = make_test_dataset(96, 280, 31);
  cluster::ClusterParams params;
  params.num_chips = 2;
  params.link.topology = cluster::ClusterTopology::kRing;

  const auto plan = std::make_shared<fault::FaultPlan>(fault::FaultPlan::generate(
      chip_fault_params(37, 40'000.0, 60'000.0, 2'000'000), 2));
  const std::optional<Cycle> when = find_lopsided_down_cycle(*plan, 1, 2);
  ASSERT_TRUE(when.has_value()) << "fault params never downed chip 1 alone";

  cluster::ClusterScheduler scheduler(small_config(), params);
  scheduler.set_fault_plan(plan);
  const core::GnnJob job =
      core::GnnJob::two_layer(gnn::GnnModel::kGcn, ds.spec, 8);
  const cluster::ClusterOutcome outcome =
      scheduler.serve(ds, job, "", cluster::DispatchMode::kShardParallel,
                      /*not_before=*/*when);
  // A gang chip is down at the probed start, so the request re-routes
  // through a data-parallel placement on the survivor.
  EXPECT_TRUE(outcome.shard_fallback);
  EXPECT_FALSE(outcome.no_capacity);
  EXPECT_EQ(outcome.chip, 0u);
  EXPECT_FALSE(plan->chip_down_at(outcome.chip, outcome.start_cycle));
}

TEST(Failover, EmptyPlanLeavesSchedulerBitIdentical) {
  const graph::Dataset ds = make_test_dataset(96, 280, 41);
  cluster::ClusterParams params;
  params.num_chips = 2;
  const core::GnnJob job =
      core::GnnJob::two_layer(gnn::GnnModel::kGcn, ds.spec, 8);

  const auto serve_three = [&](std::shared_ptr<const fault::FaultPlan> plan) {
    cluster::ClusterScheduler scheduler(small_config(), params);
    scheduler.set_fault_plan(std::move(plan));
    std::vector<cluster::ClusterOutcome> outcomes;
    for (int i = 0; i < 3; ++i) {
      outcomes.push_back(scheduler.serve(
          ds, job, "", cluster::DispatchMode::kDataParallel, 100 * i));
    }
    return outcomes;
  };

  const auto without = serve_three(nullptr);
  const auto with = serve_three(std::make_shared<fault::FaultPlan>());
  ASSERT_EQ(without.size(), with.size());
  for (std::size_t i = 0; i < without.size(); ++i) {
    EXPECT_EQ(without[i].chip, with[i].chip);
    EXPECT_EQ(without[i].start_cycle, with[i].start_cycle);
    EXPECT_EQ(without[i].finish_cycle, with[i].finish_cycle);
    EXPECT_FALSE(with[i].failed);
  }
}

// ------------------------------------------------- serving engine

std::vector<serving::ModelMixEntry> small_mix(
    const graph::DatasetSpec& spec) {
  return {{core::GnnJob::two_layer(gnn::GnnModel::kGcn, spec, 8), "gcn", 1.0,
           0}};
}

serving::ServingParams serving_fault_params(std::uint64_t seed) {
  serving::ServingParams p;
  p.seed = seed;
  p.num_requests = 12;
  p.queue_depth = 0;  // unbounded: no admission shedding in these tests
  p.max_batch = 2;
  p.arrival.rate_per_mcycle = 120.0;
  p.faults.seed = seed * 977 + 1;
  p.faults.horizon = 8'000'000;
  p.faults.chip_mtbf = 20'000.0;
  p.faults.chip_mttr = 30'000.0;
  return p;
}

void expect_conserved(const serving::ServingReport& r) {
  EXPECT_EQ(r.admitted + r.shed, r.generated);
  EXPECT_EQ(r.admitted,
            r.served.size() + r.shed_expired + r.failed_permanently);
}

TEST(ServingFaults, RetriesRespectCapAndConservationHolds) {
  const graph::Dataset ds = make_test_dataset(96, 280, 47);
  cluster::ClusterParams cluster_params;
  cluster_params.num_chips = 2;

  bool saw_failures = false;
  for (std::uint64_t seed = 1; seed <= 12 && !saw_failures; ++seed) {
    serving::ServingParams params = serving_fault_params(seed);
    params.max_retries = 3;
    serving::ServingEngine engine(small_config(), cluster_params, params);
    const serving::ServingReport report = engine.run(ds, small_mix(ds.spec));
    expect_conserved(report);
    EXPECT_LE(report.retries, report.failed_attempts);
    std::uint64_t failed_over = 0;
    for (const serving::ServedRequest& r : report.served) {
      EXPECT_LE(r.retries, params.max_retries);
      EXPECT_EQ(r.failed_over, r.retries > 0);
      if (r.failed_over) ++failed_over;
    }
    EXPECT_EQ(report.failed_over, failed_over);
    if (report.failed_attempts > 0) saw_failures = true;
  }
  EXPECT_TRUE(saw_failures)
      << "fault params never produced a mid-flight failure in 12 seeds";
}

TEST(ServingFaults, ZeroRetriesFailPermanentlyOnFirstFault) {
  const graph::Dataset ds = make_test_dataset(96, 280, 53);
  cluster::ClusterParams cluster_params;
  cluster_params.num_chips = 2;

  bool saw_permanent = false;
  for (std::uint64_t seed = 1; seed <= 12 && !saw_permanent; ++seed) {
    serving::ServingParams params = serving_fault_params(seed);
    params.max_retries = 0;
    serving::ServingEngine engine(small_config(), cluster_params, params);
    const serving::ServingReport report = engine.run(ds, small_mix(ds.spec));
    expect_conserved(report);
    // With no retry budget, no request is ever re-queued or failed over.
    EXPECT_EQ(report.retries, 0u);
    EXPECT_EQ(report.failed_over, 0u);
    for (const serving::ServedRequest& r : report.served) {
      EXPECT_EQ(r.retries, 0u);
    }
    if (report.failed_permanently > 0) saw_permanent = true;
  }
  EXPECT_TRUE(saw_permanent)
      << "fault params never failed a request in 12 seeds";
}

TEST(ServingFaults, FaultyRunsBitIdenticalAcrossEngineFlavours) {
  const graph::Dataset ds = make_test_dataset(96, 280, 59);
  cluster::ClusterParams cluster_params;
  cluster_params.num_chips = 2;
  serving::ServingParams params = serving_fault_params(4);
  params.mode = cluster::DispatchMode::kShardParallel;

  const auto run = [&](bool fast_forward, bool parallel) {
    core::AuroraConfig cfg = small_config();
    cfg.fast_forward = fast_forward;
    cluster::ClusterParams cp = cluster_params;
    cp.parallel = parallel;
    cp.parallel_jobs = parallel ? 2 : 0;
    serving::ServingEngine engine(cfg, cp, params);
    return engine.run(ds, small_mix(ds.spec));
  };

  const serving::ServingReport base = run(false, false);
  expect_conserved(base);
  EXPECT_TRUE(serving::diff_serving_reports(base, run(true, false)).empty());
  EXPECT_TRUE(serving::diff_serving_reports(base, run(false, true)).empty());
  EXPECT_TRUE(serving::diff_serving_reports(base, run(true, true)).empty());
}

TEST(ServingFaults, EmptyPlanOverrideMatchesFaultlessRun) {
  const graph::Dataset ds = make_test_dataset(96, 280, 61);
  cluster::ClusterParams cluster_params;
  cluster_params.num_chips = 2;

  serving::ServingParams params;
  params.seed = 5;
  params.num_requests = 10;
  params.arrival.rate_per_mcycle = 150.0;

  serving::ServingEngine plain(small_config(), cluster_params, params);
  const serving::ServingReport baseline = plain.run(ds, small_mix(ds.spec));

  serving::ServingEngine overridden(small_config(), cluster_params, params);
  overridden.set_fault_plan(std::make_shared<fault::FaultPlan>());
  const serving::ServingReport with_empty =
      overridden.run(ds, small_mix(ds.spec));
  EXPECT_TRUE(serving::diff_serving_reports(baseline, with_empty).empty());
  EXPECT_EQ(with_empty.failed_attempts, 0u);
  EXPECT_EQ(with_empty.shed_expired, 0u);
}

// ------------------------------------------------- proactive shedding

serving::ServingRequest timed_request(std::uint64_t id, Cycle arrival,
                                      Cycle deadline) {
  serving::ServingRequest r;
  r.id = id;
  r.arrival = arrival;
  r.deadline = deadline;
  r.compat_key = "k";
  return r;
}

TEST(ProactiveShedding, QueueExpiresOnlyWhenEnabled) {
  serving::RequestQueue proactive(0, /*proactive_shedding=*/true);
  EXPECT_TRUE(proactive.admit(timed_request(0, 0, 10)));
  EXPECT_TRUE(proactive.admit(timed_request(1, 0, 20)));
  EXPECT_TRUE(proactive.admit(timed_request(2, 0, serving::kNoDeadline)));
  const auto popped = proactive.pop(/*now=*/15);
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(popped->id, 1u) << "expired request 0 should have been shed";
  EXPECT_EQ(proactive.shed_expired(), 1u);
  EXPECT_EQ(proactive.size(), 1u);
  // A deadline exactly at `now` is still servable (finish <= deadline can
  // no longer hold, but the cut is deadline < now by design: shedding is
  // conservative).
  EXPECT_TRUE(proactive.admit(timed_request(3, 0, 15)));
  const auto at_deadline = proactive.pop(/*now=*/15);
  ASSERT_TRUE(at_deadline.has_value());
  EXPECT_EQ(at_deadline->id, 3u);
  EXPECT_EQ(proactive.shed_expired(), 1u);

  serving::RequestQueue lazy(0, /*proactive_shedding=*/false);
  EXPECT_TRUE(lazy.admit(timed_request(0, 0, 10)));
  const auto late = lazy.pop(/*now=*/15);
  ASSERT_TRUE(late.has_value());
  EXPECT_EQ(late->id, 0u) << "without proactive shedding the expired "
                             "request is still dispatched";
  EXPECT_EQ(lazy.shed_expired(), 0u);
}

TEST(ProactiveShedding, EngineCountsShedExpiredUnderOverload) {
  const graph::Dataset ds = make_test_dataset(128, 400, 67);
  cluster::ClusterParams cluster_params;
  cluster_params.num_chips = 1;

  serving::ServingParams params;
  params.seed = 9;
  params.num_requests = 32;
  params.queue_depth = 0;
  params.max_batch = 1;
  // Far past saturation with an SLO shorter than one service time: every
  // queued request misses its deadline before a slot opens.
  params.arrival.rate_per_mcycle = 20'000.0;
  params.slo_cycles = 2'000;

  params.proactive_shedding = false;
  serving::ServingEngine lazy(small_config(), cluster_params, params);
  const serving::ServingReport lazy_report = lazy.run(ds, small_mix(ds.spec));
  expect_conserved(lazy_report);
  EXPECT_EQ(lazy_report.shed_expired, 0u);
  EXPECT_EQ(lazy_report.served.size(), lazy_report.admitted);

  params.proactive_shedding = true;
  serving::ServingEngine shedding(small_config(), cluster_params, params);
  const serving::ServingReport shed_report =
      shedding.run(ds, small_mix(ds.spec));
  expect_conserved(shed_report);
  EXPECT_GT(shed_report.shed_expired, 0u);
  EXPECT_LT(shed_report.served.size(), lazy_report.served.size());
  // Shedding only drops requests that could not have met the SLO anyway,
  // so it never reduces goodput.
  EXPECT_GE(shed_report.met_slo_count(), lazy_report.met_slo_count());
}

}  // namespace
}  // namespace aurora
