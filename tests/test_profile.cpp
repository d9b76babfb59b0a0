// Tests for the critical-path profiler: exact latency attribution on
// single-chip and cluster traces, bit-identical reports across scheduler
// and engine modes, what-if re-weighting, truncation handling, and the
// metrics/JSON surfaces.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster_engine.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/aurora.hpp"
#include "graph/degree.hpp"
#include "graph/generators.hpp"
#include "profile/critpath.hpp"
#include "sim/trace.hpp"

namespace aurora {
namespace {

graph::Dataset make_test_dataset(VertexId n, EdgeId undirected_edges,
                                 std::uint64_t seed) {
  Rng rng(seed);
  graph::Dataset ds;
  ds.spec.name = "profile-test";
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

/// One traced single-chip layer run; returns the trace and the metrics.
core::RunMetrics run_chip_layer(const core::AuroraConfig& cfg,
                                const graph::Dataset& ds,
                                sim::Tracer& tracer) {
  core::AuroraAccelerator accel(cfg);
  accel.set_tracer(&tracer);
  return accel.run_layer(ds, gnn::GnnModel::kGcn, {8, 8}, 1);
}

void expect_exact_attribution(const profile::CritPathReport& report) {
  const profile::Attribution& a = report.attribution;
  EXPECT_EQ(a.total(), report.total_cycles);
  EXPECT_EQ(a.dram_hit + a.dram_miss + a.dram_conflict + a.dram_other,
            a.dram_service);
  for (const profile::RunReport& run : report.runs) {
    EXPECT_EQ(run.attribution.total(), run.total_cycles);
  }
}

// ------------------------------------------------------- chip attribution

TEST(CritPath, ChipAttributionSumsToTotal) {
  const graph::Dataset ds = make_test_dataset(60, 150, 11);
  sim::Tracer tracer;
  tracer.enable();
  const core::RunMetrics m = run_chip_layer(small_config(), ds, tracer);

  const profile::CritPathReport report =
      profile::analyze_critical_path(tracer);
  ASSERT_EQ(report.runs.size(), 1u);
  EXPECT_EQ(report.runs[0].kind, sim::kRunKindChip);
  EXPECT_EQ(report.runs[0].units, m.num_subgraphs);
  EXPECT_EQ(report.total_cycles, m.total_cycles);
  expect_exact_attribution(report);
  // A cycle-accurate GNN layer always exposes its reconfiguration tail.
  EXPECT_EQ(report.attribution.reconfiguration, m.reconfig_cycles);
  EXPECT_EQ(report.attribution.halo_barrier_wait, 0u);
}

TEST(CritPath, MultiRunTraceAggregatesRuns) {
  const graph::Dataset ds = make_test_dataset(50, 120, 13);
  sim::Tracer tracer;
  tracer.enable();
  core::AuroraAccelerator accel(small_config());
  accel.set_tracer(&tracer);
  const core::RunMetrics m0 = accel.run_layer(ds, gnn::GnnModel::kGcn,
                                              {8, 8}, 0);
  const core::RunMetrics m1 = accel.run_layer(ds, gnn::GnnModel::kGin,
                                              {8, 4}, 1);

  const profile::CritPathReport report =
      profile::analyze_critical_path(tracer);
  ASSERT_EQ(report.runs.size(), 2u);
  EXPECT_EQ(report.runs[0].total_cycles, m0.total_cycles);
  EXPECT_EQ(report.runs[1].total_cycles, m1.total_cycles);
  EXPECT_EQ(report.total_cycles, m0.total_cycles + m1.total_cycles);
  expect_exact_attribution(report);
}

TEST(CritPath, LockstepAndFastForwardReportsIdentical) {
  const graph::Dataset ds = make_test_dataset(60, 150, 17);
  const auto report_json = [&](bool fast_forward) {
    core::AuroraConfig cfg = small_config();
    cfg.fast_forward = fast_forward;
    sim::Tracer tracer;
    tracer.enable();
    (void)run_chip_layer(cfg, ds, tracer);
    profile::AnalyzeOptions opts;
    opts.scenarios = profile::default_what_if_scenarios();
    return profile::critpath_report_json(
        profile::analyze_critical_path(tracer, opts));
  };
  EXPECT_EQ(report_json(false), report_json(true));
}

// ---------------------------------------------------- cluster attribution

TEST(CritPath, ClusterAttributionSumsToTotal) {
  const graph::Dataset ds = make_test_dataset(50, 120, 19);
  cluster::ClusterParams params;
  params.num_chips = 3;
  cluster::ClusterEngine engine(small_config(), params);
  sim::Tracer tracer;
  tracer.enable();
  engine.set_tracer(&tracer);
  const cluster::ClusterRunMetrics cm =
      engine.run(ds, core::GnnJob::two_layer(gnn::GnnModel::kGcn, ds.spec, 8));

  const profile::CritPathReport report =
      profile::analyze_critical_path(tracer);
  ASSERT_EQ(report.runs.size(), 1u);
  EXPECT_EQ(report.runs[0].kind, sim::kRunKindCluster);
  EXPECT_EQ(report.runs[0].units, 3u);
  EXPECT_LT(report.runs[0].bottleneck_chip, 3u);
  EXPECT_EQ(report.total_cycles, cm.total_cycles);
  expect_exact_attribution(report);
}

TEST(CritPath, ClusterReportsIdenticalAcrossEngineModes) {
  const graph::Dataset ds = make_test_dataset(50, 120, 23);
  const core::GnnJob job =
      core::GnnJob::two_layer(gnn::GnnModel::kGcn, ds.spec, 8);
  const auto report_json = [&](bool parallel, bool fast_forward) {
    core::AuroraConfig cfg = small_config();
    cfg.fast_forward = fast_forward;
    cluster::ClusterParams params;
    params.num_chips = 3;
    params.parallel = parallel;
    cluster::ClusterEngine engine(cfg, params);
    sim::Tracer tracer;
    tracer.enable();
    engine.set_tracer(&tracer);
    (void)engine.run(ds, job);
    profile::AnalyzeOptions opts;
    opts.scenarios = profile::default_what_if_scenarios();
    return profile::critpath_report_json(
        profile::analyze_critical_path(tracer, opts));
  };
  const std::string reference = report_json(false, false);
  EXPECT_EQ(reference, report_json(false, true));
  EXPECT_EQ(reference, report_json(true, false));
  EXPECT_EQ(reference, report_json(true, true));
}

// ------------------------------------------------------------ what-if

TEST(CritPath, IdentityWhatIfReproducesTotal) {
  const graph::Dataset ds = make_test_dataset(60, 150, 29);
  sim::Tracer tracer;
  tracer.enable();
  (void)run_chip_layer(small_config(), ds, tracer);

  profile::AnalyzeOptions opts;
  opts.scenarios.push_back(profile::WhatIfScenario{});  // all factors 1.0
  const profile::CritPathReport report =
      profile::analyze_critical_path(tracer, opts);
  ASSERT_EQ(report.what_if.size(), 1u);
  EXPECT_EQ(report.what_if[0].total_cycles, report.total_cycles);
  EXPECT_DOUBLE_EQ(report.what_if[0].speedup, 1.0);
}

TEST(CritPath, UpgradesNeverSlowTheRunDown) {
  const graph::Dataset ds = make_test_dataset(50, 120, 31);
  cluster::ClusterParams params;
  params.num_chips = 2;
  cluster::ClusterEngine engine(small_config(), params);
  sim::Tracer tracer;
  tracer.enable();
  engine.set_tracer(&tracer);
  (void)engine.run(ds,
                   core::GnnJob::two_layer(gnn::GnnModel::kGcn, ds.spec, 8));

  profile::AnalyzeOptions opts;
  opts.scenarios = profile::default_what_if_scenarios();
  const profile::CritPathReport report =
      profile::analyze_critical_path(tracer, opts);
  ASSERT_EQ(report.what_if.size(), opts.scenarios.size());
  for (const profile::WhatIfOutcome& o : report.what_if) {
    EXPECT_LE(o.total_cycles, report.total_cycles) << o.scenario;
    EXPECT_GE(o.speedup, 1.0) << o.scenario;
  }
}

TEST(CritPath, WhatIfParsing) {
  const profile::WhatIfScenario s =
      profile::parse_what_if("link_bw=2x,dram_latency=0.5x");
  EXPECT_EQ(s.label, "link_bw=2x,dram_latency=0.5x");
  EXPECT_DOUBLE_EQ(s.link_bw, 2.0);
  EXPECT_DOUBLE_EQ(s.dram_latency, 0.5);
  EXPECT_DOUBLE_EQ(s.pe_throughput, 1.0);

  const auto list =
      profile::parse_what_if_list("noc_bw=4x;pe_throughput=1.5x");
  ASSERT_EQ(list.size(), 2u);
  EXPECT_DOUBLE_EQ(list[0].noc_bw, 4.0);
  EXPECT_DOUBLE_EQ(list[1].pe_throughput, 1.5);

  EXPECT_THROW((void)profile::parse_what_if("warp_drive=2x"), Error);
  EXPECT_THROW((void)profile::parse_what_if("link_bw=banana"), Error);
  EXPECT_THROW((void)profile::parse_what_if("link_bw=-1x"), Error);
  EXPECT_THROW((void)profile::parse_what_if("link_bw"), Error);
}

// -------------------------------------------------------- truncation

TEST(CritPath, TruncatedTraceRefusedUnlessAllowed) {
  const graph::Dataset ds = make_test_dataset(60, 150, 37);
  sim::Tracer tracer;
  tracer.enable();
  tracer.set_capacity(64);  // force ring-buffer eviction
  (void)run_chip_layer(small_config(), ds, tracer);
  ASSERT_GT(tracer.dropped(), 0u);

  EXPECT_THROW((void)profile::analyze_critical_path(tracer), Error);

  profile::AnalyzeOptions opts;
  opts.allow_truncated = true;
  const profile::CritPathReport report =
      profile::analyze_critical_path(tracer, opts);
  EXPECT_TRUE(report.truncated);
  EXPECT_EQ(report.dropped_records, tracer.dropped());
  // The surviving suffix held no complete run, so nothing was attributed.
  EXPECT_TRUE(report.runs.empty());
}

TEST(CritPath, TraceEndingMidRunRefusedUnlessAllowed) {
  sim::Tracer tracer;
  tracer.enable();
  tracer.record(0, sim::TraceEvent::kRunBegin, sim::kRunKindChip, 1);
  tracer.record(0, sim::TraceEvent::kTileStart, 0, 4);
  EXPECT_THROW((void)profile::analyze_critical_path(tracer), Error);

  profile::AnalyzeOptions opts;
  opts.allow_truncated = true;
  const profile::CritPathReport report =
      profile::analyze_critical_path(tracer, opts);
  EXPECT_TRUE(report.truncated);
  EXPECT_TRUE(report.runs.empty());
}

TEST(CritPath, SkipsServingClockAnnotationsBetweenRuns) {
  // Faulty and dynamic serving record chip transitions, graph mutations and
  // reshards on the serving clock, between the runs they schedule.
  const graph::Dataset ds = make_test_dataset(50, 120, 43);
  sim::Tracer tracer;
  tracer.enable();
  core::AuroraAccelerator accel(small_config());
  accel.set_tracer(&tracer);
  tracer.record(0, sim::TraceEvent::kGraphMutation, 0,
                sim::pack_u32_pair(1, 2), 121);
  const core::RunMetrics m0 =
      accel.run_layer(ds, gnn::GnnModel::kGcn, {8, 8}, 1);
  tracer.record(5, sim::TraceEvent::kChipDown, 0);
  tracer.record(9, sim::TraceEvent::kReshard, 2, 10, 12, 3);
  tracer.record(11, sim::TraceEvent::kChipUp, 0);
  const core::RunMetrics m1 =
      accel.run_layer(ds, gnn::GnnModel::kGin, {8, 4}, 1);
  tracer.record(20, sim::TraceEvent::kChipDown, 1);

  const profile::CritPathReport report =
      profile::analyze_critical_path(tracer);
  ASSERT_EQ(report.runs.size(), 2u);
  EXPECT_EQ(report.runs[0].total_cycles, m0.total_cycles);
  EXPECT_EQ(report.runs[1].total_cycles, m1.total_cycles);
  expect_exact_attribution(report);
}

TEST(CritPath, StrayRecordBetweenRunsRefused) {
  const graph::Dataset ds = make_test_dataset(50, 120, 47);
  sim::Tracer tracer;
  tracer.enable();
  (void)run_chip_layer(small_config(), ds, tracer);
  tracer.record(3, sim::TraceEvent::kTileStart, 0, 4);  // outside any run
  (void)run_chip_layer(small_config(), ds, tracer);
  EXPECT_THROW((void)profile::analyze_critical_path(tracer), Error);
}

TEST(CritPath, EmptyTraceYieldsEmptyReport) {
  sim::Tracer tracer;
  tracer.enable();
  const profile::CritPathReport report =
      profile::analyze_critical_path(tracer);
  EXPECT_FALSE(report.truncated);
  EXPECT_TRUE(report.runs.empty());
  EXPECT_EQ(report.total_cycles, 0u);
  EXPECT_EQ(report.attribution.total(), 0u);
}

// ------------------------------------------------------ report surfaces

TEST(CritPath, ExportCountersPublishesCritpathEntries) {
  const graph::Dataset ds = make_test_dataset(60, 150, 41);
  sim::Tracer tracer;
  tracer.enable();
  (void)run_chip_layer(small_config(), ds, tracer);
  const profile::CritPathReport report =
      profile::analyze_critical_path(tracer);

  CounterSet counters;
  profile::export_critpath_counters(report, counters);
  EXPECT_EQ(counters.get("profile.critpath.total_cycles"),
            report.total_cycles);
  EXPECT_EQ(counters.get("profile.critpath.runs"), 1u);
  EXPECT_EQ(counters.get("profile.critpath.pe_compute_cycles"),
            report.attribution.pe_compute);
  EXPECT_EQ(counters.get("profile.critpath.dram_service_cycles"),
            report.attribution.dram_service);
  EXPECT_EQ(counters.get("profile.critpath.halo_barrier_wait_cycles"),
            report.attribution.halo_barrier_wait);
}

TEST(CritPath, JsonAndTableAreWellFormed) {
  const graph::Dataset ds = make_test_dataset(50, 120, 43);
  sim::Tracer tracer;
  tracer.enable();
  (void)run_chip_layer(small_config(), ds, tracer);
  profile::AnalyzeOptions opts;
  opts.scenarios = profile::default_what_if_scenarios();
  const profile::CritPathReport report =
      profile::analyze_critical_path(tracer, opts);

  const std::string json = profile::critpath_report_json(report);
  EXPECT_NE(json.find("\"schema\":\"aurora.critpath.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"attribution\""), std::string::npos);
  EXPECT_NE(json.find("\"what_if\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');

  const std::string table = profile::format_attribution_table(report);
  EXPECT_NE(table.find("pe-compute"), std::string::npos);
  EXPECT_NE(table.find("what-if upgrade ranking"), std::string::npos);
}

}  // namespace
}  // namespace aurora
