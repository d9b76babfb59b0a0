// Cross-module integration and property sweeps: the full grid of models x
// datasets through both engines, baseline sweeps, generator properties, and
// cross-engine consistency invariants.
#include <gtest/gtest.h>

#include <tuple>

#include "baselines/baseline.hpp"
#include "common/rng.hpp"
#include "core/aurora.hpp"
#include "core/functional_engine.hpp"
#include "gnn/reference.hpp"
#include "core/roofline.hpp"
#include "graph/batch.hpp"
#include "graph/generators.hpp"

namespace aurora {
namespace {

core::AuroraConfig tiny_config() {
  core::AuroraConfig c = core::AuroraConfig::bench();
  c.array_dim = 8;
  c.noc.k = 8;
  return c;
}

std::string sanitize(std::string n) {
  for (char& c : n) {
    if (c == '-' || c == ' ') c = '_';
  }
  return n;
}

// ------------------------------ every model x every dataset, cycle engine

using ModelDataset = std::tuple<gnn::GnnModel, graph::DatasetId>;

class GridCycle : public ::testing::TestWithParam<ModelDataset> {};

TEST_P(GridCycle, RunsAndProducesConsistentMetrics) {
  const auto [model, dataset_id] = GetParam();
  const double scale =
      dataset_id == graph::DatasetId::kReddit ? 0.0008 : 0.02;
  const auto ds = graph::make_dataset(dataset_id, scale);
  core::AuroraAccelerator accel(tiny_config());
  const auto m = accel.run_layer(ds, model, {16, 8}, 1);

  EXPECT_GT(m.total_cycles, 0u);
  EXPECT_GT(m.dram_bytes, 0u);
  EXPECT_GT(m.energy.total_pj(), 0.0);
  // Total time is never less than its pipelined components.
  EXPECT_GE(m.total_cycles, m.reconfig_cycles);
  // Partition covers the array exactly.
  EXPECT_EQ(m.partition_a + m.partition_b, 64u);
  // Energy breakdown sums to total.
  const auto& e = m.energy;
  EXPECT_NEAR(e.total_pj(), e.compute_pj + e.sram_pj + e.dram_pj + e.noc_pj +
                                e.reconfig_pj + e.leakage_pj,
              1e-6 * e.total_pj());
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, GridCycle,
    ::testing::Combine(::testing::ValuesIn(gnn::kAllModels),
                       ::testing::ValuesIn(graph::kAllDatasets)),
    [](const auto& param_info) {
      const gnn::GnnModel model = std::get<0>(param_info.param);
      const graph::DatasetId dataset = std::get<1>(param_info.param);
      return sanitize(std::string(gnn::model_name(model)) + "_" +
                      graph::dataset_name(dataset));
    });

// ------------------------------------- baselines x models, quick property

using BaselineModel = std::tuple<baselines::BaselineId, gnn::GnnModel>;

class GridBaseline : public ::testing::TestWithParam<BaselineModel> {};

TEST_P(GridBaseline, EveryBaselineExecutesEveryModel) {
  const auto [baseline_id, model] = GetParam();
  const auto ds = graph::make_dataset(graph::DatasetId::kCora, 0.1);
  const auto wf = gnn::generate_workflow(model, {32, 16},
                                         ds.num_vertices(), ds.num_edges());
  const auto accel = baselines::make_baseline(
      baseline_id, baselines::chip_params_matching(16, 8, 100 * 1024));
  const auto m = accel->run_layer(ds, wf, {});
  EXPECT_GT(m.total_cycles, 0u);
  EXPECT_GT(m.dram_bytes, 0u);
  EXPECT_GE(m.total_cycles, m.dram_cycles);
  EXPECT_GE(m.total_cycles, m.onchip_comm_cycles);
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, GridBaseline,
    ::testing::Combine(::testing::ValuesIn(baselines::kAllBaselines),
                       ::testing::ValuesIn(gnn::kAllModels)),
    [](const auto& param_info) {
      const baselines::BaselineId baseline = std::get<0>(param_info.param);
      const gnn::GnnModel model = std::get<1>(param_info.param);
      return sanitize(std::string(baselines::baseline_name(baseline)) + "_" +
                      gnn::model_name(model));
    });

// ----------------------------------------------- cross-engine consistency

TEST(CrossEngine, AnalyticAndCycleAgreeOnDecisions) {
  // Same partition, same tiling, same DRAM accounting — by construction; a
  // regression here means the engines drifted apart. The functional engine
  // executes the same plan for a dense hidden layer.
  auto cfg = tiny_config();
  const auto ds = graph::make_dataset(graph::DatasetId::kCora, 0.1);
  core::AuroraAccelerator cycle(cfg);
  core::FunctionalEngine functional(cfg);
  cfg.mode = core::SimMode::kAnalytic;
  core::AuroraAccelerator analytic(cfg);
  Rng rng(5);
  gnn::Matrix x(ds.num_vertices(), 32);
  x.randomize(rng);
  for (gnn::GnnModel model : gnn::kAllModels) {
    const auto mc = cycle.run_layer(ds, model, {32, 16}, 1);
    const auto ma = analytic.run_layer(ds, model, {32, 16}, 1);
    EXPECT_EQ(mc.partition_a, ma.partition_a) << gnn::model_name(model);
    EXPECT_EQ(mc.partition_b, ma.partition_b) << gnn::model_name(model);
    EXPECT_EQ(mc.num_subgraphs, ma.num_subgraphs) << gnn::model_name(model);
    EXPECT_EQ(mc.dram_bytes, ma.dram_bytes) << gnn::model_name(model);

    const auto params = gnn::make_reference_params(model, 32, 16, rng);
    (void)functional.run_layer(ds, model, x, params);
    const core::FunctionalStats& fs = functional.stats();
    EXPECT_EQ(fs.tiles, mc.num_subgraphs) << gnn::model_name(model);
    EXPECT_EQ(fs.sub_a_pes, mc.partition_a) << gnn::model_name(model);
    EXPECT_EQ(fs.sub_b_pes, mc.partition_b) << gnn::model_name(model);
  }
}

TEST(CrossEngine, FunctionalEngineAgreesOnLocalityStressGraph) {
  // A graph with strong id-locality (the regime the mapper exploits): the
  // distributed values must still match the golden executor exactly.
  Rng rng(31);
  graph::PowerLawParams gp;
  gp.n = 120;
  gp.undirected_edges = 500;
  gp.locality = 0.9;
  gp.locality_window = 0.05;
  const auto g = graph::generate_power_law(gp, rng);
  graph::Dataset ds;
  ds.graph = g;
  ds.degree_stats = graph::compute_degree_stats(g);
  gnn::Matrix x(g.num_vertices(), 10);
  x.randomize(rng);
  const auto params =
      gnn::make_reference_params(gnn::GnnModel::kGcn, 10, 5, rng);
  core::FunctionalEngine engine(tiny_config());
  const auto got = engine.run_layer(ds, gnn::GnnModel::kGcn, x, params);
  const auto want = gnn::reference_layer(gnn::GnnModel::kGcn, g, x, params);
  for (std::size_t r = 0; r < got.rows(); ++r) {
    EXPECT_LT(gnn::max_abs_diff(got.row(r), want.row(r)), 1e-9);
  }
}

// ------------------------------------------------- generator property sweep

TEST(GeneratorProperties, LocalityKnobControlsEdgeLocality) {
  auto local_fraction = [](double locality) {
    Rng rng(3);
    graph::PowerLawParams gp;
    gp.n = 2000;
    gp.undirected_edges = 8000;
    gp.locality = locality;
    gp.locality_window = 0.02;
    const auto g = graph::generate_power_law(gp, rng);
    const auto window = static_cast<std::int64_t>(0.02 * 2000);
    EdgeId local = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      for (VertexId u : g.neighbors(v)) {
        const auto d = std::abs(static_cast<std::int64_t>(v) -
                                static_cast<std::int64_t>(u));
        local += (d <= window);
      }
    }
    return static_cast<double>(local) / static_cast<double>(g.num_edges());
  };
  const double none = local_fraction(0.0);
  const double strong = local_fraction(0.8);
  EXPECT_GT(strong, none + 0.3);
}

TEST(GeneratorProperties, AlphaControlsSkew) {
  auto gini = [](double alpha) {
    Rng rng(9);
    graph::PowerLawParams gp;
    gp.n = 3000;
    gp.undirected_edges = 12000;
    gp.alpha = alpha;
    return graph::compute_degree_stats(graph::generate_power_law(gp, rng))
        .gini;
  };
  EXPECT_GT(gini(1.8), gini(3.5));
}

TEST(GeneratorProperties, DatasetDegreeStatsTrackSpecs) {
  // Reddit's synthetic stand-in must be the densest; citation graphs the
  // most skew-prone among the sparse ones.
  const auto cora = graph::make_dataset(graph::DatasetId::kCora, 0.2);
  const auto reddit = graph::make_dataset(graph::DatasetId::kReddit, 0.002);
  EXPECT_GT(reddit.degree_stats.mean_degree,
            5.0 * cora.degree_stats.mean_degree);
  EXPECT_GT(cora.degree_stats.gini, 0.2);
}


// -------------------------------------------------------------- batching

TEST(Batch, BlockDiagonalMergeAndExtract) {
  Rng rng(3);
  std::vector<graph::CsrGraph> members;
  members.push_back(graph::generate_ring(8));
  members.push_back(graph::generate_star(5));
  members.push_back(graph::generate_grid(3, 3));
  const graph::Batch batch = graph::make_batch(members);

  EXPECT_EQ(batch.num_members(), 3u);
  EXPECT_EQ(batch.graph.num_vertices(), 8u + 5 + 9);
  EdgeId total_edges = 0;
  for (const auto& g : members) total_edges += g.num_edges();
  EXPECT_EQ(batch.graph.num_edges(), total_edges);

  // Membership queries.
  EXPECT_EQ(batch.member_of(0), 0u);
  EXPECT_EQ(batch.member_of(8), 1u);
  EXPECT_EQ(batch.member_of(12), 1u);
  EXPECT_EQ(batch.member_of(13), 2u);
  EXPECT_EQ(batch.local_id(9), 1u);

  // No cross-member edges.
  for (VertexId v = 0; v < batch.graph.num_vertices(); ++v) {
    for (VertexId u : batch.graph.neighbors(v)) {
      EXPECT_EQ(batch.member_of(v), batch.member_of(u));
    }
  }

  // Round trip.
  for (std::size_t i = 0; i < members.size(); ++i) {
    const auto back = graph::extract_member(batch, i);
    EXPECT_EQ(back.row_ptr(), members[i].row_ptr());
    EXPECT_EQ(back.col_idx(), members[i].col_idx());
  }
}

TEST(Batch, BatchedInferenceEqualsPerGraphInference) {
  // EdgeConv on a batch of point clouds == EdgeConv per cloud: the
  // block-diagonal structure keeps members independent.
  Rng rng(5);
  std::vector<graph::CsrGraph> clouds;
  for (int i = 0; i < 3; ++i) {
    clouds.push_back(graph::generate_erdos_renyi(12, 30, rng));
  }
  const graph::Batch batch = graph::make_batch(clouds);

  const std::size_t f = 6, h = 4;
  Rng prng(9);
  const auto params =
      gnn::make_reference_params(gnn::GnnModel::kEdgeConv1, f, h, prng);
  gnn::Matrix x(batch.graph.num_vertices(), f);
  Rng xrng(11);
  x.randomize(xrng);

  const gnn::Matrix batched =
      gnn::reference_layer(gnn::GnnModel::kEdgeConv1, batch.graph, x, params);
  for (std::size_t i = 0; i < clouds.size(); ++i) {
    gnn::Matrix xi(clouds[i].num_vertices(), f);
    for (VertexId v = 0; v < clouds[i].num_vertices(); ++v) {
      const auto src = x.row(batch.offsets[i] + v);
      std::copy(src.begin(), src.end(), xi.row(v).begin());
    }
    const gnn::Matrix solo =
        gnn::reference_layer(gnn::GnnModel::kEdgeConv1, clouds[i], xi, params);
    for (VertexId v = 0; v < clouds[i].num_vertices(); ++v) {
      EXPECT_LT(gnn::max_abs_diff(solo.row(v),
                                  batched.row(batch.offsets[i] + v)),
                1e-12);
    }
  }
}

TEST(Batch, RejectsEmpty) {
  EXPECT_THROW((void)graph::make_batch({}), Error);
}

// -------------------------------------------------------------- roofline

TEST(Roofline, ClassifiesDramBoundGcn) {
  core::AuroraConfig cfg = core::AuroraConfig::paper();
  core::AuroraAccelerator accel(cfg);
  const auto ds = graph::make_dataset(graph::DatasetId::kCora, 1.0);
  const auto m = accel.run_layer(ds, gnn::GnnModel::kGcn,
                                 {ds.spec.feature_dim, 16}, 0);
  const auto r = core::analyze_roofline(m, cfg);
  EXPECT_GT(r.arithmetic_intensity, 0.0);
  EXPECT_GT(r.achieved_ops_per_cycle, 0.0);
  EXPECT_LE(r.efficiency, 1.05);  // cannot beat the roof (rounding slack)
  EXPECT_FALSE(r.summary().empty());
  // Low-AI GNN layers on a big chip: DRAM ceiling below compute ceiling.
  EXPECT_LT(r.dram_ceiling_ops_per_cycle, r.peak_ops_per_cycle);
  EXPECT_EQ(r.bound, core::Bound::kDram);
}

TEST(Roofline, ComputeBoundWhenChipIsTiny) {
  core::AuroraConfig cfg = core::AuroraConfig::bench();
  cfg.array_dim = 4;
  cfg.noc.k = 4;
  cfg.mode = core::SimMode::kAnalytic;
  core::AuroraAccelerator accel(cfg);
  const auto ds = graph::make_dataset(graph::DatasetId::kCora, 0.2);
  // Dense hidden layer: high intensity relative to a 16-PE chip.
  const auto m = accel.run_layer(ds, gnn::GnnModel::kGin, {256, 256}, 1);
  const auto r = core::analyze_roofline(m, cfg);
  EXPECT_EQ(r.bound, core::Bound::kCompute);
}

}  // namespace
}  // namespace aurora
