// Randomized property sweeps across modules: partition optimality over
// random inputs, NoC conservation over parameter grids, dataset statistics
// against their published specs, and PE utilization reporting.
#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.hpp"
#include "core/aurora.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "noc/network.hpp"
#include "partition/partition.hpp"
#include "sim/simulator.hpp"

namespace aurora {
namespace {

// ------------------------------------------------ partition: random inputs

class PartitionRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PartitionRandom, ChosenSplitIsArgmin) {
  Rng rng(GetParam());
  partition::PartitionInput in;
  in.ops_edge_update = rng.next_below(1'000'000);
  in.ops_aggregation = 1 + rng.next_below(1'000'000);
  in.ops_vertex_update = 1 + rng.next_below(1'000'000);
  in.edge_feature_dim = static_cast<std::uint32_t>(1 + rng.next_below(512));
  in.num_edges = 1 + rng.next_below(100'000);
  in.total_pes = static_cast<std::uint32_t>(2 + rng.next_below(1023));
  in.flops_per_pe = 1.0 + rng.next_double(0, 31);

  const auto r = partition::partition(in);
  ASSERT_EQ(r.a + r.b, in.total_pes);
  double best = -1.0;
  for (std::uint32_t a = 1; a < in.total_pes; ++a) {
    const double diff = std::abs(partition::time_sub_a(in, a) -
                                 partition::time_sub_b(in, in.total_pes - a));
    if (best < 0.0 || diff < best) best = diff;
  }
  EXPECT_NEAR(r.diff, best, 1e-9 * std::max(1.0, best));
  // Stage times are positive and consistent with the reported split.
  EXPECT_GT(r.t_a, 0.0);
  EXPECT_GT(r.t_b, 0.0);
  EXPECT_DOUBLE_EQ(r.t_a, partition::time_sub_a(in, r.a));
  EXPECT_DOUBLE_EQ(r.t_b, partition::time_sub_b(in, r.b));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionRandom,
                         ::testing::Range<std::uint64_t>(1, 21));

// -------------------------------------------- NoC: conservation over a grid

using NocGridParam = std::tuple<std::uint32_t /*k*/, std::uint32_t /*vcs*/,
                                std::uint32_t /*buffer*/>;

class NocGrid : public ::testing::TestWithParam<NocGridParam> {};

TEST_P(NocGrid, EveryPacketDeliveredOnceUnderRandomTraffic) {
  const auto [k, vcs, buffer] = GetParam();
  noc::NocParams p;
  p.k = k;
  p.num_vcs = vcs;
  p.input_buffer_flits = buffer;
  noc::Network net(p);
  sim::Simulator s;
  s.add(&net);

  std::uint64_t delivered = 0;
  Bytes delivered_bytes = 0;
  net.set_delivery_callback([&](const noc::Packet& pkt, Cycle) {
    ++delivered;
    delivered_bytes += pkt.payload_bytes;
  });

  Rng rng(k * 100 + vcs * 10 + buffer);
  constexpr int kPackets = 300;
  Bytes injected_bytes = 0;
  for (int i = 0; i < kPackets; ++i) {
    const Bytes bytes = 16 + 16 * rng.next_below(20);
    injected_bytes += bytes;
    net.send(static_cast<noc::NodeId>(rng.next_below(k * k)),
             static_cast<noc::NodeId>(rng.next_below(k * k)), bytes, i,
             s.now());
  }
  s.run_until_idle(10'000'000);
  EXPECT_EQ(delivered, static_cast<std::uint64_t>(kPackets));
  EXPECT_EQ(delivered_bytes, injected_bytes);
  EXPECT_TRUE(net.idle());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, NocGrid,
    ::testing::Combine(::testing::Values(4u, 8u), ::testing::Values(1u, 2u, 4u),
                       ::testing::Values(2u, 8u)),
    [](const auto& param_info) {
      return "k" + std::to_string(std::get<0>(param_info.param)) + "_vc" +
             std::to_string(std::get<1>(param_info.param)) + "_buf" +
             std::to_string(std::get<2>(param_info.param));
    });

// ------------------------------------ datasets: statistics follow the specs

class DatasetStats : public ::testing::TestWithParam<graph::DatasetId> {};

TEST_P(DatasetStats, ScaledInstancePreservesMeanDegree) {
  const auto& spec = graph::dataset_spec(GetParam());
  const double scale = GetParam() == graph::DatasetId::kReddit ? 0.004 : 0.2;
  const auto ds = graph::make_dataset(GetParam(), scale);
  const double spec_mean = static_cast<double>(spec.num_directed_edges) /
                           static_cast<double>(spec.num_vertices);
  // Mean degree survives scaling within 35 % (density caps can bind for the
  // densest instances).
  EXPECT_GT(ds.degree_stats.mean_degree, 0.5 * spec_mean);
  EXPECT_LT(ds.degree_stats.mean_degree, 1.35 * spec_mean);
}

INSTANTIATE_TEST_SUITE_P(All, DatasetStats,
                         ::testing::ValuesIn(graph::kAllDatasets),
                         [](const auto& param_info) {
                           return std::string(
                               graph::dataset_name(param_info.param));
                         });

// ------------------------------------------------- PE utilization reporting

TEST(PeUtilization, ReportedByCycleEngine) {
  core::AuroraConfig cfg = core::AuroraConfig::bench();
  cfg.array_dim = 8;
  cfg.noc.k = 8;
  core::AuroraAccelerator accel(cfg);
  const auto ds = graph::make_dataset(graph::DatasetId::kCora, 0.05);
  const auto m = accel.run_layer(ds, gnn::GnnModel::kGcn, {32, 8}, 1);
  EXPECT_GT(m.pe_utilization, 0.0);
  EXPECT_LE(m.pe_utilization, 1.0);
  EXPECT_FALSE(m.pe_heatmap.empty());
  EXPECT_EQ(std::count(m.pe_heatmap.begin(), m.pe_heatmap.end(), '\n'), 8);
}


// ------------------------------------------- randomized engine fuzz sweep

using FuzzParam = std::uint64_t;

class EngineFuzz : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(EngineFuzz, RandomWorkloadsNeverWedgeTheCycleEngine) {
  Rng rng(GetParam() * 7919 + 13);
  // Random small graph.
  graph::PowerLawParams gp;
  gp.n = static_cast<VertexId>(40 + rng.next_below(160));
  gp.undirected_edges = gp.n + rng.next_below(4 * gp.n);
  gp.alpha = 1.9 + rng.next_double(0, 1.2);
  gp.locality = rng.next_double(0, 0.9);
  graph::Dataset ds;
  ds.graph = graph::generate_power_law(gp, rng);
  ds.degree_stats = graph::compute_degree_stats(ds.graph);
  ds.spec.feature_density = 1.0;

  // Random model + layer shape.
  const auto model =
      gnn::kAllModels[rng.next_below(gnn::kAllModels.size())];
  const gnn::LayerConfig layer{
      static_cast<std::uint32_t>(4 + rng.next_below(60)),
      static_cast<std::uint32_t>(2 + rng.next_below(40))};

  core::AuroraConfig cfg = core::AuroraConfig::bench();
  cfg.array_dim = 8;
  cfg.noc.k = 8;
  cfg.ring_size = static_cast<std::uint32_t>(2 + rng.next_below(7));
  core::AuroraAccelerator accel(cfg);
  const auto m = accel.run_layer(ds, model, layer, 1);
  EXPECT_GT(m.total_cycles, 0u);
  EXPECT_GT(m.dram_bytes, 0u);
  EXPECT_EQ(m.partition_a + m.partition_b, 64u);
  EXPECT_GE(m.total_cycles, m.reconfig_cycles);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzz,
                         ::testing::Range<FuzzParam>(1, 25));

}  // namespace
}  // namespace aurora
