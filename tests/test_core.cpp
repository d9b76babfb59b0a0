// Tests for the Aurora core: configuration, sub-accelerator formation, DRAM
// traffic accounting, the cycle engine, the analytic model, and the facade.
#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/aurora.hpp"
#include "core/config_io.hpp"
#include "core/functional_engine.hpp"
#include "core/sub_accelerators.hpp"
#include "gnn/reference.hpp"
#include "graph/generators.hpp"
#include "sim/sampler.hpp"
#include "sim/trace.hpp"

namespace aurora::core {
namespace {

AuroraConfig small_config() {
  AuroraConfig c = AuroraConfig::bench();
  c.array_dim = 8;
  c.noc.k = 8;
  return c;
}

graph::Dataset small_dataset(double scale = 0.05) {
  return graph::make_dataset(graph::DatasetId::kCora, scale);
}

// ------------------------------------------------------------ configuration

TEST(AuroraConfig, ReconfigurationTakesTwoKMinusOneCycles) {
  EXPECT_EQ(AuroraConfig::paper().reconfiguration_cycles(), 63u);  // VI-D
}

// ----------------------------------------------------- sub-accelerator plan

TEST(SubAccelerators, RowQuantisedSplit) {
  AuroraConfig cfg = small_config();
  partition::PartitionResult split;
  split.a = 16;  // 25 % of 64 PEs -> 2 of 8 rows
  split.b = 48;
  const SubAcceleratorPlan plan = make_plan(cfg, split);
  EXPECT_FALSE(plan.single_accelerator);
  EXPECT_EQ(plan.sub_a.rows(), 2u);
  EXPECT_EQ(plan.sub_b.rows(), 6u);
  EXPECT_EQ(plan.sub_a_pes() + plan.sub_b_pes(), 64u);
}

TEST(SubAccelerators, AtLeastOneRowEach) {
  AuroraConfig cfg = small_config();
  partition::PartitionResult split;
  split.a = 1;
  split.b = 63;
  EXPECT_EQ(make_plan(cfg, split).sub_a.rows(), 1u);
  split.a = 63;
  split.b = 1;
  EXPECT_EQ(make_plan(cfg, split).sub_b.rows(), 1u);
}

TEST(SubAccelerators, SingleAcceleratorForEdgeConv) {
  AuroraConfig cfg = small_config();
  partition::PartitionResult split;
  split.a = 64;
  split.b = 0;
  split.single_accelerator = true;
  const SubAcceleratorPlan plan = make_plan(cfg, split);
  EXPECT_TRUE(plan.single_accelerator);
  EXPECT_EQ(plan.sub_a_pes(), 64u);
  EXPECT_TRUE(plan.rings.empty());
}

TEST(SubAccelerators, RingsCoverSubBWithoutOverlap) {
  AuroraConfig cfg = small_config();
  cfg.ring_size = 4;
  partition::PartitionResult split;
  split.a = 16;
  split.b = 48;
  const SubAcceleratorPlan plan = make_plan(cfg, split);
  std::set<noc::NodeId> seen;
  for (const auto& ring : plan.rings) {
    EXPECT_GE(ring.nodes.size(), 2u);
    for (noc::NodeId node : ring.nodes) {
      EXPECT_TRUE(plan.sub_b.contains(node));
      EXPECT_TRUE(seen.insert(node).second) << "node in two rings";
    }
  }
  EXPECT_EQ(seen.size(), plan.sub_b_pes());
}

TEST(SubAccelerators, ComposedConfigIsValid) {
  AuroraConfig cfg = small_config();
  const auto ds = small_dataset();
  const auto wf = gnn::generate_workflow(gnn::GnnModel::kGcn, {32, 8},
                                         ds.num_vertices(), ds.num_edges());
  const auto split = partition::partition(
      partition::partition_input_from_workflow(wf, cfg.num_pes(),
                                               cfg.flops_per_pe));
  const SubAcceleratorPlan plan = make_plan(cfg, split);
  mapping::MapperParams mp;
  mp.region = plan.sub_a;
  mp.pe_vertex_slots = 2 * ds.num_vertices() / plan.sub_a_pes() + 4;
  const auto map =
      mapping::degree_aware_map(ds.graph, 0, ds.num_vertices(), mp);
  // compose_noc_config throws on overlapping segments / broken rings.
  const noc::NocConfig noc_cfg = compose_noc_config(plan, map);
  EXPECT_EQ(noc_cfg.rings().size(), plan.rings.size());
  EXPECT_FALSE(noc_cfg.row_segments().empty());
}

// ------------------------------------------------------------ DRAM traffic

TEST(DramTraffic, SparseInputShrinksLayer0) {
  DramTrafficParams dense;
  DramTrafficParams sparse;
  sparse.sparse_input_features = true;
  sparse.input_feature_density = 0.01;
  EXPECT_EQ(feature_vector_bytes(1000, dense), 8000u);
  EXPECT_EQ(feature_vector_bytes(1000, sparse), 120u);  // 10 nnz x 12 B
}

TEST(DramTraffic, ComponentsAddUp) {
  const auto ds = small_dataset();
  const auto wf = gnn::generate_workflow(gnn::GnnModel::kGcn, {64, 16},
                                         ds.num_vertices(), ds.num_edges());
  graph::TilingParams tp;
  tp.capacity_bytes = 1 << 30;
  tp.feature_bytes = 64 * 8;
  const auto tiling = graph::tile_graph(ds.graph, tp);
  const auto t = aurora_dram_traffic(ds, wf, tiling, DramTrafficParams{});
  EXPECT_EQ(t.total(), t.input_features + t.halo_features + t.adjacency +
                           t.edge_embeddings + t.weights +
                           t.intermediate_spill + t.output_features);
  EXPECT_EQ(t.intermediate_spill, 0u);  // fused phases never spill
  EXPECT_EQ(t.halo_features, 0u);       // single tile
  EXPECT_EQ(t.input_features,
            static_cast<Bytes>(ds.num_vertices()) * 64 * 8);
  EXPECT_EQ(t.edge_embeddings, 0u);  // GCN carries no edge state
}

TEST(DramTraffic, EdgeEmbeddingModelsPayForEdgeState) {
  const auto ds = small_dataset();
  graph::TilingParams tp;
  tp.capacity_bytes = 1 << 30;
  tp.feature_bytes = 64 * 8;
  const auto tiling = graph::tile_graph(ds.graph, tp);
  const auto wf_gat =
      gnn::generate_workflow(gnn::GnnModel::kVanillaAttention, {64, 16},
                             ds.num_vertices(), ds.num_edges());
  const auto t = aurora_dram_traffic(ds, wf_gat, tiling, DramTrafficParams{});
  EXPECT_GT(t.edge_embeddings, 0u);
}

TEST(DramTraffic, MoreTilesMeansMoreHaloTraffic) {
  const auto ds = graph::make_dataset(graph::DatasetId::kCora, 0.2);
  const auto wf = gnn::generate_workflow(gnn::GnnModel::kGcn, {64, 16},
                                         ds.num_vertices(), ds.num_edges());
  graph::TilingParams tp;
  tp.feature_bytes = 64 * 8;
  tp.capacity_bytes = 1 << 30;
  const auto one = aurora_dram_traffic(ds, wf, graph::tile_graph(ds.graph, tp),
                                       DramTrafficParams{});
  tp.capacity_bytes = 64 * 1024;
  const auto many = aurora_dram_traffic(
      ds, wf, graph::tile_graph(ds.graph, tp), DramTrafficParams{});
  EXPECT_GT(many.halo_features, one.halo_features);
  EXPECT_GT(many.total(), one.total());
}

// ------------------------------------------------------------ cycle engine

TEST(CycleEngine, GcnLayerRunsToCompletion) {
  AuroraConfig cfg = small_config();
  AuroraAccelerator accel(cfg);
  const auto ds = small_dataset();
  const auto m = accel.run_layer(ds, gnn::GnnModel::kGcn, {32, 8}, 1);
  EXPECT_GT(m.total_cycles, 0u);
  EXPECT_GT(m.compute_cycles, 0u);
  EXPECT_GT(m.onchip_comm_cycles, 0u);
  EXPECT_GT(m.dram_cycles, 0u);
  EXPECT_GT(m.dram_bytes, 0u);
  EXPECT_GT(m.noc_messages, 0u);
  EXPECT_GT(m.partition_a, 0u);
  EXPECT_GT(m.partition_b, 0u);
  EXPECT_GT(m.energy.total_pj(), 0.0);
  EXPECT_GE(m.num_subgraphs, 1u);
}

class CycleEngineAllModels : public ::testing::TestWithParam<gnn::GnnModel> {};

TEST_P(CycleEngineAllModels, EveryModelExecutes) {
  AuroraConfig cfg = small_config();
  AuroraAccelerator accel(cfg);
  const auto ds = small_dataset(0.03);
  const auto m = accel.run_layer(ds, GetParam(), {16, 8}, 1);
  EXPECT_GT(m.total_cycles, 0u);
  EXPECT_GT(m.noc_messages, 0u);
  const auto wf = gnn::generate_workflow(GetParam(), {16, 8},
                                         ds.num_vertices(), ds.num_edges());
  if (!wf.needs_vertex_update()) {
    EXPECT_EQ(m.partition_b, 0u);  // EdgeConv: single accelerator
  } else {
    EXPECT_GT(m.partition_b, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, CycleEngineAllModels,
                         ::testing::ValuesIn(gnn::kAllModels),
                         [](const auto& param_info) {
                           std::string n = gnn::model_name(param_info.param);
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(CycleEngine, DeterministicAcrossRuns) {
  AuroraConfig cfg = small_config();
  const auto ds = small_dataset();
  AuroraAccelerator a(cfg), b(cfg);
  const auto m1 = a.run_layer(ds, gnn::GnnModel::kGcn, {32, 8}, 1);
  const auto m2 = b.run_layer(ds, gnn::GnnModel::kGcn, {32, 8}, 1);
  EXPECT_EQ(m1.total_cycles, m2.total_cycles);
  EXPECT_EQ(m1.onchip_comm_cycles, m2.onchip_comm_cycles);
  EXPECT_DOUBLE_EQ(m1.energy.total_pj(), m2.energy.total_pj());
}

// ---------------------------------------- fast-forward equivalence (tentpole)

/// Fast-forward must reproduce the lockstep engine *bit for bit*: the jumps
/// only skip cycles every component proved dead, so every reported number —
/// cycle counts, NoC stats, DRAM access counts, per-component counters —
/// must match exactly, not approximately.
void expect_identical_metrics(const RunMetrics& ff, const RunMetrics& ls,
                              const char* what) {
  EXPECT_EQ(ff.total_cycles, ls.total_cycles) << what;
  EXPECT_EQ(ff.compute_cycles, ls.compute_cycles) << what;
  EXPECT_EQ(ff.onchip_comm_cycles, ls.onchip_comm_cycles) << what;
  EXPECT_EQ(ff.dram_cycles, ls.dram_cycles) << what;
  EXPECT_EQ(ff.reconfig_cycles, ls.reconfig_cycles) << what;
  EXPECT_EQ(ff.dram_bytes, ls.dram_bytes) << what;
  EXPECT_EQ(ff.dram_accesses, ls.dram_accesses) << what;
  EXPECT_EQ(ff.noc_messages, ls.noc_messages) << what;
  EXPECT_DOUBLE_EQ(ff.avg_hops, ls.avg_hops) << what;
  EXPECT_EQ(ff.bypass_messages, ls.bypass_messages) << what;
  EXPECT_EQ(ff.num_subgraphs, ls.num_subgraphs) << what;
  EXPECT_EQ(ff.switch_writes, ls.switch_writes) << what;
  EXPECT_DOUBLE_EQ(ff.pe_utilization, ls.pe_utilization) << what;
  EXPECT_DOUBLE_EQ(ff.energy.total_pj(), ls.energy.total_pj()) << what;
  EXPECT_EQ(ff.noc_heatmap, ls.noc_heatmap) << what;
  EXPECT_EQ(ff.pe_heatmap, ls.pe_heatmap) << what;
  // The counter map covers every component event the engine exports
  // (noc.*, dram.* including refreshes and row hit/miss/conflict, pe.*).
  // sim.cycles_skipped is the one intentional difference: it reports what
  // the scheduler skipped, which is 0 by definition in lockstep.
  auto ffc = ff.counters.all();
  auto lsc = ls.counters.all();
  EXPECT_GT(ffc["sim.cycles_skipped"], 0u) << what;  // jumps really happened
  EXPECT_EQ(lsc["sim.cycles_skipped"], 0u) << what;
  ffc.erase("sim.cycles_skipped");
  lsc.erase("sim.cycles_skipped");
  EXPECT_TRUE(ffc == lsc) << what;
}

TEST(CycleEngine, FastForwardMatchesLockstepAcrossDatasets) {
  AuroraConfig lockstep_cfg = small_config();
  lockstep_cfg.fast_forward = false;
  AuroraConfig ff_cfg = small_config();
  ff_cfg.fast_forward = true;
  for (graph::DatasetId id :
       {graph::DatasetId::kCora, graph::DatasetId::kCiteseer}) {
    const auto ds = graph::make_dataset(id, 0.05);
    AuroraAccelerator lockstep(lockstep_cfg), ff(ff_cfg);
    const auto ml = lockstep.run_layer(ds, gnn::GnnModel::kGcn, {32, 8}, 1);
    const auto mf = ff.run_layer(ds, gnn::GnnModel::kGcn, {32, 8}, 1);
    expect_identical_metrics(mf, ml, graph::dataset_name(id));
  }
}

TEST(CycleEngine, FastForwardMatchesLockstepBothDataflowOrders) {
  AuroraConfig lockstep_cfg = small_config();
  lockstep_cfg.fast_forward = false;
  AuroraConfig ff_cfg = small_config();
  ff_cfg.fast_forward = true;
  const auto ds = small_dataset();
  // GCN runs update-first, AGNN aggregation-first: both dependency graphs
  // (and thus both tick interleavings) must survive the jumps.
  const auto order = [&](gnn::GnnModel model) {
    return gnn::generate_workflow(model, {32, 8}, ds.num_vertices(),
                                  ds.num_edges())
        .update_first;
  };
  ASSERT_NE(order(gnn::GnnModel::kGcn), order(gnn::GnnModel::kAgnn));
  for (gnn::GnnModel model : {gnn::GnnModel::kGcn, gnn::GnnModel::kAgnn}) {
    AuroraAccelerator lockstep(lockstep_cfg), ff(ff_cfg);
    const auto ml = lockstep.run_layer(ds, model, {32, 8}, 1);
    const auto mf = ff.run_layer(ds, model, {32, 8}, 1);
    expect_identical_metrics(mf, ml, gnn::model_name(model));
  }
}

// ---------------------------------------------- observability equivalence

/// Attaching the tracer and sampler must not change any reported number:
/// phase tracking is always-on, the sampler is a read-only component whose
/// ticks are no-ops for everything else, and the tracer only records. The
/// single permitted difference is the scheduler diagnostic
/// sim.cycles_skipped — the sampler pins fast-forward jumps to sample
/// boundaries, so fewer (provably dead) cycles get skipped.
void expect_observability_invariant(const RunMetrics& on,
                                    const RunMetrics& off, const char* what) {
  EXPECT_EQ(on.total_cycles, off.total_cycles) << what;
  EXPECT_EQ(on.compute_cycles, off.compute_cycles) << what;
  EXPECT_EQ(on.onchip_comm_cycles, off.onchip_comm_cycles) << what;
  EXPECT_EQ(on.dram_cycles, off.dram_cycles) << what;
  EXPECT_EQ(on.dram_bytes, off.dram_bytes) << what;
  EXPECT_EQ(on.dram_accesses, off.dram_accesses) << what;
  EXPECT_EQ(on.noc_messages, off.noc_messages) << what;
  EXPECT_DOUBLE_EQ(on.avg_hops, off.avg_hops) << what;
  EXPECT_DOUBLE_EQ(on.pe_utilization, off.pe_utilization) << what;
  EXPECT_DOUBLE_EQ(on.energy.total_pj(), off.energy.total_pj()) << what;
  EXPECT_EQ(on.pe_heatmap, off.pe_heatmap) << what;
  for (std::size_t p = 0; p < on.phases.size(); ++p) {
    EXPECT_EQ(on.phases[p].active_cycles, off.phases[p].active_cycles) << what;
    EXPECT_EQ(on.phases[p].dram_bytes, off.phases[p].dram_bytes) << what;
    EXPECT_EQ(on.phases[p].noc_messages, off.phases[p].noc_messages) << what;
  }
  EXPECT_EQ(on.noc_packet_latency.total(), off.noc_packet_latency.total())
      << what;
  EXPECT_DOUBLE_EQ(on.noc_packet_latency.quantile(0.99),
                   off.noc_packet_latency.quantile(0.99))
      << what;
  EXPECT_EQ(on.dram_request_latency.total(), off.dram_request_latency.total())
      << what;
  auto onc = on.counters.all();
  auto offc = off.counters.all();
  onc.erase("sim.cycles_skipped");
  offc.erase("sim.cycles_skipped");
  EXPECT_TRUE(onc == offc) << what;
}

TEST(Observability, EnabledRunMatchesDisabledRun) {
  const auto ds = small_dataset();
  for (bool fast_forward : {false, true}) {
    AuroraConfig cfg = small_config();
    cfg.fast_forward = fast_forward;
    AuroraAccelerator plain(cfg), observed(cfg);
    sim::Tracer tracer;
    tracer.enable();
    sim::Sampler sampler(64);
    observed.set_tracer(&tracer);
    observed.set_sampler(&sampler);
    const auto off = plain.run_layer(ds, gnn::GnnModel::kGcn, {32, 8}, 1);
    const auto on = observed.run_layer(ds, gnn::GnnModel::kGcn, {32, 8}, 1);
    expect_observability_invariant(on, off,
                                   fast_forward ? "fast-forward" : "lockstep");
    // The observers really observed.
    EXPECT_GT(tracer.count(sim::TraceEvent::kPhaseSpan), 0u);
    EXPECT_GT(tracer.count(sim::TraceEvent::kDramSpan), 0u);
    EXPECT_GT(sampler.num_samples(), 0u);
    EXPECT_GT(sampler.series().size(), 1u);
  }
}

TEST(Observability, SamplerSeriesMatchAcrossSchedulerModes) {
  // The sampler-under-fast-forward contract at engine scale: jumps land on
  // sample boundaries where all skipped ticks were no-ops, so the sampled
  // time series is bit-identical to a lockstep run's.
  const auto ds = small_dataset();
  auto run = [&](bool fast_forward, std::vector<Cycle>& cycles,
                 std::vector<sim::Sampler::Series>& series) {
    AuroraConfig cfg = small_config();
    cfg.fast_forward = fast_forward;
    AuroraAccelerator accel(cfg);
    sim::Sampler sampler(32);
    accel.set_sampler(&sampler);
    (void)accel.run_layer(ds, gnn::GnnModel::kGcn, {32, 8}, 1);
    cycles = sampler.sample_cycles();
    series = sampler.series();
  };
  std::vector<Cycle> ff_cycles, ls_cycles;
  std::vector<sim::Sampler::Series> ff_series, ls_series;
  run(true, ff_cycles, ff_series);
  run(false, ls_cycles, ls_series);
  EXPECT_EQ(ff_cycles, ls_cycles);
  ASSERT_EQ(ff_series.size(), ls_series.size());
  for (std::size_t i = 0; i < ff_series.size(); ++i) {
    EXPECT_EQ(ff_series[i].name, ls_series[i].name);
    EXPECT_EQ(ff_series[i].values, ls_series[i].values) << ff_series[i].name;
  }
}

TEST(Observability, SampledSeriesNamesArePinned) {
  // Every --trace-out file carries these series, in this order; a renamed,
  // dropped or reordered series changes the artifact.
  const std::vector<std::string> expected = {
      "dram.bursts",          "dram.bursts_pending",
      "dram.bytes_read",      "dram.bytes_written",
      "dram.refreshes",       "dram.requests",
      "dram.row_conflicts",   "dram.row_hits",
      "dram.row_misses",      "noc.busy_cycles",
      "noc.bypass_flit_hops", "noc.flit_hops",
      "noc.flits_ejected",    "noc.flits_in_flight",
      "noc.flits_injected",   "noc.packets_delivered",
      "noc.packets_in_flight", "noc.packets_injected",
      "noc.router_traversals", "pe.busy_cycles_total",
      "pe.queue_depth_total", "pe.tasks_total"};
  AuroraAccelerator accel(small_config());
  sim::Sampler sampler(32);
  accel.set_sampler(&sampler);
  (void)accel.run_layer(small_dataset(), gnn::GnnModel::kGcn, {32, 8}, 1);
  std::vector<std::string> names;
  for (const auto& s : sampler.series()) names.push_back(s.name);
  EXPECT_EQ(names, expected);
  ASSERT_GT(sampler.num_samples(), 0u);
  for (const auto& s : sampler.series()) {
    EXPECT_EQ(s.values.size(), sampler.num_samples()) << s.name;
  }
}

TEST(Observability, CyclePhaseAttributionSumsToTotals) {
  AuroraConfig cfg = small_config();
  const auto ds = small_dataset();
  AuroraAccelerator accel(cfg);
  const auto m = accel.run_layer(ds, gnn::GnnModel::kGcn, {32, 8}, 1);
  std::uint64_t msg_sum = 0;
  Bytes byte_sum = 0;
  for (const auto& p : m.phases) {
    msg_sum += p.noc_messages;
    byte_sum += p.dram_bytes;
  }
  EXPECT_EQ(msg_sum, m.noc_messages);
  EXPECT_EQ(byte_sum, m.dram_bytes);
  EXPECT_GT(m.phase(gnn::Phase::kAggregation).active_cycles, 0u);
  EXPECT_GT(m.phase(gnn::Phase::kVertexUpdate).active_cycles, 0u);
  // The latency histograms were measured, not left at their defaults.
  EXPECT_EQ(m.noc_packet_latency.total(),
            m.counters.get("noc.packets_delivered"));
  EXPECT_GT(m.dram_request_latency.total(), 0u);
}

TEST(Observability, AnalyticPhaseAttributionSumsToTotals) {
  AuroraConfig cfg = small_config();
  cfg.mode = SimMode::kAnalytic;
  const auto ds = small_dataset();
  AuroraAccelerator accel(cfg);
  const auto m = accel.run_layer(ds, gnn::GnnModel::kGcn, {32, 8}, 1);
  std::uint64_t msg_sum = 0;
  Bytes byte_sum = 0;
  Cycle active_sum = 0;
  for (const auto& p : m.phases) {
    msg_sum += p.noc_messages;
    byte_sum += p.dram_bytes;
    active_sum += p.active_cycles;
  }
  EXPECT_EQ(msg_sum, m.noc_messages);
  EXPECT_EQ(byte_sum, m.dram_bytes);
  EXPECT_GT(active_sum, 0u);
  // Analytic runs report the same schema with empty distributions.
  EXPECT_EQ(m.noc_packet_latency.total(), 0u);
  EXPECT_EQ(m.dram_request_latency.total(), 0u);
}

TEST(CycleEngine, FastForwardConfigRoundTrips) {
  AuroraConfig cfg = small_config();
  cfg.fast_forward = false;
  std::istringstream in(config_to_ini(cfg));
  const auto restored = config_from_ini(IniFile::parse(in));
  EXPECT_FALSE(restored.fast_forward);
  EXPECT_TRUE(AuroraConfig{}.fast_forward);  // default on
}

TEST(CycleEngine, BiggerGraphTakesLonger) {
  AuroraConfig cfg = small_config();
  AuroraAccelerator accel(cfg);
  const auto small = small_dataset(0.03);
  const auto big = small_dataset(0.1);
  const auto ms = accel.run_layer(small, gnn::GnnModel::kGcn, {32, 8}, 1);
  const auto mb = accel.run_layer(big, gnn::GnnModel::kGcn, {32, 8}, 1);
  EXPECT_GT(mb.total_cycles, ms.total_cycles);
  EXPECT_GT(mb.dram_bytes, ms.dram_bytes);
}

TEST(CycleEngine, SparseLayer0CutsDramTraffic) {
  AuroraConfig cfg = small_config();
  AuroraAccelerator accel(cfg);
  const auto ds = small_dataset();
  const auto sparse = accel.run_layer(ds, gnn::GnnModel::kGcn, {64, 16}, 0);
  const auto dense = accel.run_layer(ds, gnn::GnnModel::kGcn, {64, 16}, 1);
  EXPECT_LT(sparse.dram_bytes, dense.dram_bytes);
}

TEST(CycleEngine, MultiLayerJobAccumulates) {
  AuroraConfig cfg = small_config();
  AuroraAccelerator accel(cfg);
  const auto ds = small_dataset(0.03);
  GnnJob job;
  job.model = gnn::GnnModel::kGcn;
  job.layers = {{16, 8}, {8, 4}};
  const auto total = accel.run(ds, job);
  const auto l0 = accel.run_layer(ds, job.model, job.layers[0], 0);
  EXPECT_GT(total.total_cycles, l0.total_cycles);
  EXPECT_EQ(total.num_subgraphs,
            l0.num_subgraphs +
                accel.run_layer(ds, job.model, job.layers[1], 1).num_subgraphs);
}

// ----------------------------------------------------------- analytic model

TEST(AnalyticModel, AgreesWithCycleEngineWithinFactor) {
  // Cross-validation of the calibrated constants: total cycles within 2x,
  // DRAM bytes near-identical (same traffic accounting).
  AuroraConfig cfg = small_config();
  const auto ds = small_dataset(0.1);
  AuroraAccelerator cycle(cfg);
  cfg.mode = SimMode::kAnalytic;
  AuroraAccelerator analytic(cfg);
  for (gnn::GnnModel model :
       {gnn::GnnModel::kGcn, gnn::GnnModel::kGin, gnn::GnnModel::kAgnn}) {
    const auto mc = cycle.run_layer(ds, model, {64, 16}, 1);
    const auto ma = analytic.run_layer(ds, model, {64, 16}, 1);
    EXPECT_LT(ma.total_cycles, 2 * mc.total_cycles) << gnn::model_name(model);
    EXPECT_GT(2 * ma.total_cycles, mc.total_cycles) << gnn::model_name(model);
    const double dram_ratio = static_cast<double>(ma.dram_bytes) /
                              static_cast<double>(mc.dram_bytes);
    EXPECT_NEAR(dram_ratio, 1.0, 0.05) << gnn::model_name(model);
  }
}

TEST(AnalyticModel, HashingMappingIsWorse) {
  AuroraConfig cfg = small_config();
  cfg.mode = SimMode::kAnalytic;
  const auto ds = small_dataset(0.2);
  AnalyticModel model(cfg);
  const auto wf = gnn::generate_workflow(gnn::GnnModel::kGcn, {64, 16},
                                         ds.num_vertices(), ds.num_edges());
  DramTrafficParams tp;
  const auto aware = model.run_layer(ds, wf, tp);
  cfg.mapping_policy = MappingPolicy::kHashing;
  const auto hashed = AnalyticModel(cfg).run_layer(ds, wf, tp);
  EXPECT_LT(aware.avg_hops, hashed.avg_hops);
  EXPECT_LE(aware.onchip_comm_cycles, hashed.onchip_comm_cycles);
  EXPECT_GT(aware.bypass_messages, 0u);
  EXPECT_EQ(hashed.bypass_messages, 0u);
}

TEST(AnalyticModel, PaperScaleConfigRunsFullCora) {
  AuroraConfig cfg = AuroraConfig::paper();
  AuroraAccelerator accel(cfg);
  const auto ds = graph::make_dataset(graph::DatasetId::kCora, 1.0);
  const auto m =
      accel.run_layer(ds, gnn::GnnModel::kGcn, {ds.spec.feature_dim, 16}, 0);
  EXPECT_GT(m.total_cycles, 0u);
  EXPECT_GT(m.num_subgraphs, 0u);
}

TEST(Metrics, AccumulationSums) {
  RunMetrics a, b;
  a.total_cycles = 10;
  a.dram_bytes = 100;
  a.noc_messages = 10;
  a.avg_hops = 2.0;
  b.total_cycles = 5;
  b.dram_bytes = 50;
  b.noc_messages = 30;
  b.avg_hops = 4.0;
  a += b;
  EXPECT_EQ(a.total_cycles, 15u);
  EXPECT_EQ(a.dram_bytes, 150u);
  EXPECT_NEAR(a.avg_hops, 3.5, 1e-9);  // message-weighted
}


// ---------------------------------------------- functional (value) engine

class FunctionalAllModels : public ::testing::TestWithParam<gnn::GnnModel> {};

TEST_P(FunctionalAllModels, DistributedDataflowMatchesGoldenExecutor) {
  // The mapped, ring-sliced, structural-datapath execution must reproduce
  // the dense reference executor to round-off, for every model in the zoo.
  Rng grng(123);
  const auto g = graph::generate_erdos_renyi(40, 120, grng);
  graph::Dataset ds;
  ds.spec.name = "unit";
  ds.graph = g;
  ds.degree_stats = graph::compute_degree_stats(g);

  const std::size_t f = 12, h = 6;
  gnn::Matrix x(g.num_vertices(), f);
  Rng xrng(7);
  x.randomize(xrng);
  Rng prng(11);
  const auto params = gnn::make_reference_params(GetParam(), f, h, prng);

  FunctionalEngine engine(small_config());
  const gnn::Matrix got = engine.run_layer(ds, GetParam(), x, params);
  const gnn::Matrix want =
      gnn::reference_layer(GetParam(), g, x, params);

  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  double worst = 0.0;
  for (std::size_t r = 0; r < got.rows(); ++r) {
    worst = std::max(worst, gnn::max_abs_diff(got.row(r), want.row(r)));
  }
  EXPECT_LT(worst, 1e-9) << gnn::model_name(GetParam());

  // The distributed path was really exercised.
  const auto& s = engine.stats();
  EXPECT_GT(s.ring_stages, 0u);
  EXPECT_GT(s.accumulations, 0u);
  EXPECT_GE(s.tiles, 1u);
  EXPECT_GT(s.sub_a_pes, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllModels, FunctionalAllModels,
                         ::testing::ValuesIn(gnn::kAllModels),
                         [](const auto& param_info) {
                           std::string n = gnn::model_name(param_info.param);
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(FunctionalEngine, DeterministicValues) {
  Rng grng(5);
  const auto g = graph::generate_erdos_renyi(20, 60, grng);
  graph::Dataset ds;
  ds.graph = g;
  ds.degree_stats = graph::compute_degree_stats(g);
  gnn::Matrix x(g.num_vertices(), 8);
  Rng xrng(3);
  x.randomize(xrng);
  Rng prng(4);
  const auto params =
      gnn::make_reference_params(gnn::GnnModel::kGcn, 8, 4, prng);
  FunctionalEngine a(small_config()), b(small_config());
  EXPECT_EQ(a.run_layer(ds, gnn::GnnModel::kGcn, x, params).data(),
            b.run_layer(ds, gnn::GnnModel::kGcn, x, params).data());
}

TEST(FunctionalEngine, MultiTileExecutionStillCorrect) {
  // Force several tiles with a tiny buffer; values must not change.
  Rng grng(9);
  const auto g = graph::generate_erdos_renyi(60, 200, grng);
  graph::Dataset ds;
  ds.graph = g;
  ds.degree_stats = graph::compute_degree_stats(g);
  gnn::Matrix x(g.num_vertices(), 8);
  Rng xrng(2);
  x.randomize(xrng);
  Rng prng(6);
  const auto params =
      gnn::make_reference_params(gnn::GnnModel::kGin, 8, 4, prng);

  AuroraConfig tiny = small_config();
  tiny.pe.bank_buffer_bytes = 96;  // force many tiles
  FunctionalEngine engine(tiny);
  const auto got = engine.run_layer(ds, gnn::GnnModel::kGin, x, params);
  EXPECT_GT(engine.stats().tiles, 1u);
  const auto want = gnn::reference_layer(gnn::GnnModel::kGin, g, x, params);
  for (std::size_t r = 0; r < got.rows(); ++r) {
    EXPECT_LT(gnn::max_abs_diff(got.row(r), want.row(r)), 1e-9);
  }
}



TEST(CycleEngine, TracerRecordsRunStructure) {
  AuroraConfig cfg = small_config();
  AuroraAccelerator accel(cfg);
  sim::Tracer tracer;
  tracer.enable();
  accel.set_tracer(&tracer);
  const auto ds = small_dataset();
  (void)accel.run_layer(ds, gnn::GnnModel::kGcn, {32, 8}, 1);
  EXPECT_GT(tracer.count(sim::TraceEvent::kTileStart), 0u);
  EXPECT_GT(tracer.count(sim::TraceEvent::kReconfigure), 0u);
  EXPECT_GT(tracer.count(sim::TraceEvent::kDramRequest), 0u);
  // Every delivered packet was injected.
  EXPECT_EQ(tracer.count(sim::TraceEvent::kPacketInjected),
            tracer.count(sim::TraceEvent::kPacketDelivered));
  EXPECT_GT(tracer.count(sim::TraceEvent::kTaskComplete), 0u);
  const std::string timeline = tracer.render_timeline();
  EXPECT_NE(timeline.find("packet-delivered"), std::string::npos);
  // A disabled tracer adds nothing on a second run.
  tracer.clear();
  tracer.enable(false);
  (void)accel.run_layer(ds, gnn::GnnModel::kGcn, {32, 8}, 1);
  EXPECT_EQ(tracer.size(), 0u);
}


class SparseLayer0 : public ::testing::TestWithParam<gnn::GnnModel> {};

TEST_P(SparseLayer0, CompressedExecutionMatchesDensified) {
  Rng grng(55);
  const auto g = graph::generate_erdos_renyi(30, 90, grng);
  graph::Dataset ds;
  ds.graph = g;
  ds.degree_stats = graph::compute_degree_stats(g);
  Rng xrng(6);
  const auto xs = gnn::SparseMatrix::random(g.num_vertices(), 40, 0.1, xrng);
  Rng prng(8);
  const auto params = gnn::make_reference_params(GetParam(), 40, 8, prng);

  FunctionalEngine engine(small_config());
  const auto sparse_out = engine.run_layer_sparse(ds, GetParam(), xs, params);
  const auto stats = engine.stats();
  FunctionalEngine dense_engine(small_config());
  const auto dense_out =
      dense_engine.run_layer(ds, GetParam(), xs.to_dense(), params);
  ASSERT_EQ(sparse_out.rows(), dense_out.rows());
  ASSERT_EQ(sparse_out.cols(), dense_out.cols());
  for (std::size_t r = 0; r < sparse_out.rows(); ++r) {
    EXPECT_LT(gnn::max_abs_diff(sparse_out.row(r), dense_out.row(r)), 1e-9);
  }
  EXPECT_GT(stats.ring_stages, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ConvModels, SparseLayer0,
    ::testing::Values(gnn::GnnModel::kGcn, gnn::GnnModel::kGraphSageMean,
                      gnn::GnnModel::kGin, gnn::GnnModel::kCommNet),
    [](const auto& param_info) {
      std::string n = gnn::model_name(param_info.param);
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

TEST(SparseLayer0Errors, RejectsNonConvolutionalModels) {
  Rng grng(1);
  const auto g = graph::generate_erdos_renyi(10, 20, grng);
  graph::Dataset ds;
  ds.graph = g;
  ds.degree_stats = graph::compute_degree_stats(g);
  Rng xrng(2);
  const auto xs = gnn::SparseMatrix::random(10, 8, 0.5, xrng);
  Rng prng(3);
  const auto params =
      gnn::make_reference_params(gnn::GnnModel::kAgnn, 8, 4, prng);
  FunctionalEngine engine(small_config());
  EXPECT_THROW(
      (void)engine.run_layer_sparse(ds, gnn::GnnModel::kAgnn, xs, params),
      Error);
}

TEST(CycleEngine, HeatmapAccompaniesCycleRuns) {
  AuroraConfig cfg = small_config();
  AuroraAccelerator cycle(cfg);
  const auto ds = small_dataset(0.05);
  const auto mc = cycle.run_layer(ds, gnn::GnnModel::kGcn, {16, 8}, 1);
  EXPECT_FALSE(mc.noc_heatmap.empty());
  // 8 rows of |........| style output.
  EXPECT_EQ(std::count(mc.noc_heatmap.begin(), mc.noc_heatmap.end(), '\n'),
            8);
  cfg.mode = SimMode::kAnalytic;
  AuroraAccelerator analytic(cfg);
  EXPECT_TRUE(analytic.run_layer(ds, gnn::GnnModel::kGcn, {16, 8}, 1)
                  .noc_heatmap.empty());
}

TEST(GnnJobPresets, DepthsFollowLiterature) {
  const auto& spec = graph::dataset_spec(graph::DatasetId::kCora);
  EXPECT_EQ(GnnJob::preset(gnn::GnnModel::kGcn, spec).layers.size(), 2u);
  EXPECT_EQ(GnnJob::preset(gnn::GnnModel::kGin, spec).layers.size(), 5u);
  EXPECT_EQ(GnnJob::preset(gnn::GnnModel::kEdgeConv1, spec).layers.size(),
            4u);
  // Layer shapes chain: in -> hidden... -> classes.
  const auto job = GnnJob::preset(gnn::GnnModel::kGin, spec, 32);
  EXPECT_EQ(job.layers.front().in_dim, spec.feature_dim);
  for (std::size_t i = 1; i < job.layers.size(); ++i) {
    EXPECT_EQ(job.layers[i].in_dim, job.layers[i - 1].out_dim);
  }
  EXPECT_EQ(job.layers.back().out_dim, spec.num_classes);
}


TEST(Counters, CycleEngineExportsComponentEvents) {
  AuroraConfig cfg = small_config();
  AuroraAccelerator accel(cfg);
  const auto ds = small_dataset(0.05);
  const auto m = accel.run_layer(ds, gnn::GnnModel::kGcn, {16, 8}, 1);
  EXPECT_GT(m.counters.get("noc.packets_delivered"), 0u);
  EXPECT_EQ(m.counters.get("noc.packets_injected"),
            m.counters.get("noc.packets_delivered"));
  EXPECT_GT(m.counters.get("dram.bursts"), 0u);
  EXPECT_GT(m.counters.get("pe.tasks"), 0u);
  // Aggregated metrics agree with the counters where they overlap.
  EXPECT_EQ(m.counters.get("noc.packets_injected"), m.noc_messages);
  EXPECT_EQ(m.counters.get("dram.bursts"), m.dram_accesses);
}

TEST(Counters, MergeAcrossLayers) {
  AuroraConfig cfg = small_config();
  AuroraAccelerator accel(cfg);
  const auto ds = small_dataset(0.05);
  GnnJob job;
  job.model = gnn::GnnModel::kGcn;
  job.layers = {{16, 8}, {8, 4}};
  const auto total = accel.run(ds, job);
  const auto l0 = accel.run_layer(ds, job.model, job.layers[0], 0);
  const auto l1 = accel.run_layer(ds, job.model, job.layers[1], 1);
  EXPECT_EQ(total.counters.get("pe.tasks"),
            l0.counters.get("pe.tasks") + l1.counters.get("pe.tasks"));
}

TEST(ConfigFiles, ShippedChipConfigsLoad) {
  const std::string dir = AURORA_SOURCE_DIR;
  const auto paper = load_config(dir + "/configs/paper_chip.ini");
  EXPECT_EQ(paper.array_dim, 32u);
  EXPECT_EQ(paper.mode, SimMode::kAnalytic);
  EXPECT_EQ(paper.pe.bank_buffer_bytes, 100u * 1024);
  const auto small = load_config(dir + "/configs/small_chip.ini");
  EXPECT_EQ(small.array_dim, 16u);
  EXPECT_EQ(small.mode, SimMode::kCycleAccurate);
}

}  // namespace
}  // namespace aurora::core
