// Error-path coverage: every module's preconditions reject bad inputs with
// AURORA_CHECK rather than corrupting state or crashing later.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/aurora.hpp"
#include "core/functional_engine.hpp"
#include "graph/generators.hpp"
#include "noc/network.hpp"
#include "pe/pe.hpp"
#include "sim/simulator.hpp"

namespace aurora {
namespace {

TEST(Errors, RngRejectsDegenerateArguments) {
  Rng rng(1);
  EXPECT_THROW((void)rng.next_below(0), Error);
  EXPECT_THROW((void)rng.next_range(5, 4), Error);
  EXPECT_THROW((void)rng.next_power_law(1.0, 10), Error);
  EXPECT_THROW((void)rng.next_weighted({}), Error);
  EXPECT_THROW((void)rng.next_weighted({-1.0}), Error);
  EXPECT_THROW((void)rng.next_weighted({0.0, 0.0}), Error);
}

TEST(Errors, GeneratorsRejectBadShapes) {
  Rng rng(1);
  EXPECT_THROW((void)graph::generate_erdos_renyi(1, 1, rng), Error);
  EXPECT_THROW((void)graph::generate_erdos_renyi(4, 100, rng), Error);
  EXPECT_THROW((void)graph::generate_star(1), Error);
  EXPECT_THROW((void)graph::generate_ring(2), Error);
  graph::PowerLawParams p;
  p.n = 1;
  p.undirected_edges = 1;
  EXPECT_THROW((void)graph::generate_power_law(p, rng), Error);
  graph::RmatParams r;
  r.scale = 1;  // below minimum
  r.undirected_edges = 4;
  EXPECT_THROW((void)graph::generate_rmat(r, rng), Error);
}

TEST(Errors, NetworkRejectsOutOfRangeEndpoints) {
  noc::NocParams p;
  p.k = 4;
  noc::Network net(p);
  EXPECT_THROW((void)net.send(0, 16, 64, 0, 0), Error);
  EXPECT_THROW((void)net.send(99, 0, 64, 0, 0), Error);
}

TEST(Errors, NetworkRejectsMismatchedConfig) {
  noc::NocParams p;
  p.k = 4;
  noc::Network net(p);
  noc::NocConfig wrong_size(8);
  EXPECT_THROW((void)net.configure(wrong_size), Error);
}

TEST(Errors, AcceleratorRejectsInconsistentMeshSize) {
  core::AuroraConfig cfg = core::AuroraConfig::bench();
  cfg.noc.k = cfg.array_dim + 1;
  EXPECT_THROW(core::AuroraAccelerator accel(cfg), Error);
}

TEST(Errors, AcceleratorRejectsEmptyJob) {
  core::AuroraAccelerator accel(core::AuroraConfig::bench());
  const auto ds = graph::make_dataset(graph::DatasetId::kCora, 0.03);
  core::GnnJob empty;
  empty.model = gnn::GnnModel::kGcn;
  EXPECT_THROW((void)accel.run(ds, empty), Error);
}

TEST(Errors, FunctionalEngineRejectsShapeMismatch) {
  core::AuroraConfig cfg = core::AuroraConfig::bench();
  cfg.array_dim = 8;
  cfg.noc.k = 8;
  core::FunctionalEngine engine(cfg);
  Rng rng(2);
  graph::Dataset ds;
  ds.graph = graph::generate_ring(10);
  ds.degree_stats = graph::compute_degree_stats(ds.graph);
  gnn::Matrix wrong_rows(5, 4);  // graph has 10 vertices
  const auto params =
      gnn::make_reference_params(gnn::GnnModel::kGcn, 4, 2, rng);
  EXPECT_THROW(
      (void)engine.run_layer(ds, gnn::GnnModel::kGcn, wrong_rows, params),
      Error);
}

TEST(Errors, PeRejectsZeroLengthArithmeticTask) {
  pe::PeModel pe("pe", pe::PeModelParams{});
  pe::PeTask task;
  task.op.kind = pe::PeConfigKind::kMatVec;
  task.op.length = 0;
  EXPECT_THROW(pe.submit(task), Error);
}

TEST(Errors, WorkflowRejectsZeroDims) {
  EXPECT_THROW(
      (void)gnn::generate_workflow(gnn::GnnModel::kGcn, {0, 4}, 10, 20),
      Error);
  EXPECT_THROW(
      (void)gnn::generate_workflow(gnn::GnnModel::kGcn, {4, 0}, 10, 20),
      Error);
  EXPECT_THROW(
      (void)gnn::generate_workflow(gnn::GnnModel::kGcn, {4, 4}, 0, 20),
      Error);
}

TEST(Errors, TensorShapeChecks) {
  gnn::Matrix m(2, 3);
  EXPECT_THROW((void)m.at(2, 0), Error);
  EXPECT_THROW((void)m.at(0, 3), Error);
  EXPECT_THROW((void)gnn::mat_vec(m, gnn::Vector{1.0}), Error);
  EXPECT_THROW((void)gnn::dot(gnn::Vector{1.0}, gnn::Vector{1.0, 2.0}),
               Error);
  EXPECT_THROW((void)gnn::softmax(gnn::Vector{}), Error);
}

}  // namespace
}  // namespace aurora
