// Tests for the reconfigurable PE: datapath math vs the reference kernels,
// cycle cost model, buffers, PPU and the timing component.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "gnn/reference.hpp"
#include "pe/buffers.hpp"
#include "pe/datapath.hpp"
#include "pe/pe.hpp"
#include "pe/ppu.hpp"
#include "sim/simulator.hpp"

namespace aurora::pe {
namespace {

// ----------------------------------------------------------- config mapping

TEST(PeConfig, TableIIOpsMapToDatapathConfigs) {
  EXPECT_EQ(config_for_op(gnn::OpKind::kMatVec), PeConfigKind::kMatVec);
  EXPECT_EQ(config_for_op(gnn::OpKind::kDotProduct), PeConfigKind::kDotProduct);
  EXPECT_EQ(config_for_op(gnn::OpKind::kScalarVec), PeConfigKind::kScalarVec);
  EXPECT_EQ(config_for_op(gnn::OpKind::kElementwiseMul),
            PeConfigKind::kElementwiseMul);
  EXPECT_EQ(config_for_op(gnn::OpKind::kAccumulate), PeConfigKind::kAccumulate);
  EXPECT_EQ(config_for_op(gnn::OpKind::kElementwiseMax),
            PeConfigKind::kAccumulate);
  // PPU ops bypass the MAC array.
  EXPECT_EQ(config_for_op(gnn::OpKind::kActivation), PeConfigKind::kBypass);
  EXPECT_EQ(config_for_op(gnn::OpKind::kConcat), PeConfigKind::kBypass);
}

// --------------------------------------------------- structural correctness

class DatapathMath : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DatapathMath, MatVecMatchesReference) {
  const std::uint32_t len = GetParam();
  Rng rng(len);
  gnn::Matrix w(5, len);
  w.randomize(rng);
  gnn::Vector x(len);
  for (double& v : x) v = rng.next_double(-2, 2);

  PeDatapath dp{PeParams{}};
  dp.configure(PeConfigKind::kMatVec);
  const gnn::Vector got = dp.run_mat_vec(w, x);
  const gnn::Vector want = gnn::mat_vec(w, x);
  // The lane-grouped adder chain reassociates; allow round-off only.
  EXPECT_LT(gnn::max_abs_diff(got, want), 1e-9);
}

TEST_P(DatapathMath, DotMatchesReference) {
  const std::uint32_t len = GetParam();
  Rng rng(len + 100);
  gnn::Vector a(len), b(len);
  for (double& v : a) v = rng.next_double(-1, 1);
  for (double& v : b) v = rng.next_double(-1, 1);
  PeDatapath dp{PeParams{}};
  dp.configure(PeConfigKind::kDotProduct);
  EXPECT_NEAR(dp.run_dot(a, b), gnn::dot(a, b), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Lengths, DatapathMath,
                         ::testing::Values(1u, 3u, 8u, 13u, 64u, 100u));

TEST(Datapath, ScalarAndElementwise) {
  PeDatapath dp{PeParams{}};
  dp.configure(PeConfigKind::kScalarVec);
  const gnn::Vector s = dp.run_scalar_vec(2.5, gnn::Vector{1, 2, 4});
  EXPECT_DOUBLE_EQ(s[2], 10.0);

  dp.configure(PeConfigKind::kElementwiseMul);
  const gnn::Vector m =
      dp.run_elementwise_mul(gnn::Vector{1, 2, 3}, gnn::Vector{4, 5, 6});
  EXPECT_DOUBLE_EQ(m[1], 10.0);

  dp.configure(PeConfigKind::kAccumulate);
  gnn::Vector acc{1, 1};
  dp.run_accumulate(acc, gnn::Vector{2, 3});
  EXPECT_DOUBLE_EQ(acc[1], 4.0);
}

TEST(Datapath, WrongConfigThrows) {
  PeDatapath dp{PeParams{}};
  dp.configure(PeConfigKind::kScalarVec);
  gnn::Matrix w(2, 2, 1.0);
  EXPECT_THROW((void)dp.run_mat_vec(w, gnn::Vector{1, 2}), Error);
}

TEST(Datapath, ReconfigurationCountsAndCost) {
  PeParams p;
  p.reconfig_cycles = 2;
  PeDatapath dp{p};
  EXPECT_EQ(dp.configure(PeConfigKind::kMatVec), 2u);
  EXPECT_EQ(dp.configure(PeConfigKind::kMatVec), 0u);  // no-op
  EXPECT_EQ(dp.configure(PeConfigKind::kAccumulate), 2u);
  EXPECT_EQ(dp.reconfigurations(), 2u);
}


TEST(Datapath, SubtractAndMaxInAdderWiring) {
  PeDatapath dp{PeParams{}};
  dp.configure(PeConfigKind::kAccumulate);
  const gnn::Vector d = dp.run_subtract(gnn::Vector{5, 2}, gnn::Vector{1, 7});
  EXPECT_DOUBLE_EQ(d[0], 4.0);
  EXPECT_DOUBLE_EQ(d[1], -5.0);
  gnn::Vector acc{0.5, 9.0};
  dp.run_elementwise_max(acc, gnn::Vector{3.0, 1.0});
  EXPECT_DOUBLE_EQ(acc[0], 3.0);
  EXPECT_DOUBLE_EQ(acc[1], 9.0);
  // Both require the adders-only wiring.
  dp.configure(PeConfigKind::kMatVec);
  EXPECT_THROW((void)dp.run_subtract(gnn::Vector{1}, gnn::Vector{1}), Error);
}

// -------------------------------------------------------------- cost model

TEST(CostModel, MatVecCyclesScaleWithWork) {
  PeParams p;  // 8 multipliers, pipeline 3
  const Cycle c1 = micro_op_cycles({PeConfigKind::kMatVec, 16, 4}, p);
  EXPECT_EQ(c1, 64u / 8 + 3);
  const Cycle c2 = micro_op_cycles({PeConfigKind::kMatVec, 16, 8}, p);
  EXPECT_EQ(c2, 128u / 8 + 3);
}

TEST(CostModel, ElementwiseUsesMultipliersOnly) {
  PeParams p;
  EXPECT_EQ(micro_op_cycles({PeConfigKind::kVecVec, 16, 1}, p), 2u + 1);
  EXPECT_EQ(micro_op_cycles({PeConfigKind::kScalarVec, 7, 1}, p), 1u + 1);
}

TEST(CostModel, AccumulateUsesAdders) {
  PeParams p;
  p.num_adders = 4;
  EXPECT_EQ(micro_op_cycles({PeConfigKind::kAccumulate, 16, 1}, p), 4u + 1);
}

TEST(CostModel, EnergyEventCounts) {
  const auto mv = micro_op_events({PeConfigKind::kMatVec, 16, 4});
  EXPECT_EQ(mv.fp_multiplies, 64u);
  EXPECT_EQ(mv.fp_adds, 64u);
  const auto sc = micro_op_events({PeConfigKind::kScalarVec, 16, 1});
  EXPECT_EQ(sc.fp_multiplies, 16u);
  EXPECT_EQ(sc.fp_adds, 0u);
  const auto acc = micro_op_events({PeConfigKind::kAccumulate, 16, 1});
  EXPECT_EQ(acc.fp_adds, 16u);
  EXPECT_EQ(acc.fp_multiplies, 0u);
}

// ------------------------------------------------------------------ buffers

TEST(BankBuffer, AccessCyclesAndAccounting) {
  BankBuffer b(1 << 20, 4);  // 4 banks x 8 B = 32 B per cycle
  EXPECT_EQ(b.access(64, false), 2u);
  EXPECT_EQ(b.access(65, true), 3u);
  EXPECT_EQ(b.bytes_read(), 64u);
  EXPECT_EQ(b.bytes_written(), 65u);
}

// ---------------------------------------------------------------------- ppu

TEST(Ppu, FunctionalActivations) {
  Ppu ppu{PpuParams{}};
  const gnn::Vector x{-2.0, 0.5};
  EXPECT_DOUBLE_EQ(ppu.apply(Activation::kRelu, x)[0], 0.0);
  EXPECT_DOUBLE_EQ(ppu.apply(Activation::kNone, x)[1], 0.5);
  const auto sm = ppu.apply(Activation::kSoftmax, x);
  EXPECT_NEAR(sm[0] + sm[1], 1.0, 1e-12);
}

TEST(Ppu, CycleCosts) {
  PpuParams p;
  p.lanes = 4;
  p.softmax_overhead = 4;
  Ppu ppu{p};
  EXPECT_EQ(ppu.activation_cycles(Activation::kNone, 100), 0u);
  EXPECT_EQ(ppu.activation_cycles(Activation::kRelu, 8), 2u);
  EXPECT_EQ(ppu.activation_cycles(Activation::kSoftmax, 8), 2u * 2 + 4);
  EXPECT_EQ(ppu.concat_cycles(10), 3u);
}

// ------------------------------------------------------------- PE component

TEST(PeModel, ExecutesTasksSeriallyWithCallbacks) {
  PeModelParams params;
  PeModel pe("pe0", params);
  sim::Simulator s;
  s.add(&pe);

  std::vector<std::pair<std::uint64_t, Cycle>> done;
  pe.set_completion_callback(
      [&](std::uint64_t tag, Cycle at) { done.emplace_back(tag, at); });

  PeTask t1;
  t1.op = {PeConfigKind::kMatVec, 16, 4};
  t1.tag = 1;
  PeTask t2;
  t2.op = {PeConfigKind::kMatVec, 16, 4};
  t2.tag = 2;
  pe.submit(t1);
  pe.submit(t2);
  s.run_until_idle(10'000);

  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].first, 1u);
  EXPECT_EQ(done[1].first, 2u);
  EXPECT_GT(done[1].second, done[0].second);
  // Second task needs no reconfiguration, so it finishes faster.
  const Cycle d1 = done[0].second;
  const Cycle d2 = done[1].second - done[0].second;
  EXPECT_LT(d2, d1);
  EXPECT_EQ(pe.stats().tasks_completed, 2u);
  EXPECT_GT(pe.stats().busy_cycles, 0u);
  EXPECT_EQ(pe.stats().energy.fp_multiplies, 128u);
}

TEST(PeModel, AccountsBufferTrafficEnergy) {
  PeModelParams params;
  PeModel pe("pe0", params);
  sim::Simulator s;
  s.add(&pe);
  PeTask t;
  t.op = {PeConfigKind::kAccumulate, 32, 1};
  t.buffer_read_bytes = 256;
  t.buffer_write_bytes = 256;
  pe.submit(t);
  s.run_until_idle(10'000);
  EXPECT_EQ(pe.stats().energy.sram_large_bytes, 512u);
  EXPECT_EQ(pe.bank_buffer().bytes_read(), 256u);
}

TEST(PeModel, IdleSemantics) {
  PeModelParams params;
  PeModel pe("pe0", params);
  EXPECT_TRUE(pe.idle());
  PeTask t;
  t.op = {PeConfigKind::kScalarVec, 8, 1};
  pe.submit(t);
  EXPECT_FALSE(pe.idle());
  sim::Simulator s;
  s.add(&pe);
  s.run_until_idle(1000);
  EXPECT_TRUE(pe.idle());
}

TEST(PeModel, StaticTaskCyclesMatchesDynamic) {
  PeModelParams params;
  PeTask t;
  t.op = {PeConfigKind::kMatVec, 32, 8};
  t.post_activation = Activation::kRelu;
  const Cycle expected =
      PeModel::task_cycles(t, params, PeConfigKind::kBypass);

  PeModel pe("pe0", params);
  sim::Simulator s;
  s.add(&pe);
  Cycle finished = 0;
  pe.set_completion_callback([&](std::uint64_t, Cycle at) { finished = at; });
  pe.submit(t);
  s.run_until_idle(10'000);
  // Task starts on the first tick (cycle 0) and completes `expected` later.
  EXPECT_EQ(finished, expected);
}

}  // namespace
}  // namespace aurora::pe
