// Tests for the shared flag groups (src/scenario): which flags each serving
// level reads, the unit conversions and the fault plan's horizon.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "scenario/scenario.hpp"

namespace aurora::scenario {
namespace {

CliArgs parse(std::vector<const char*> flags) {
  flags.insert(flags.begin(), "prog");
  return CliArgs(static_cast<int>(flags.size()), flags.data());
}

TEST(Scenario, ClosedLoopReadsOnlyRequests) {
  const CliArgs args = parse({"--requests=5", "--rate=9"});
  const ServingScenario s =
      read_serving(args, Arrivals::kClosedLoop, {.requests = 6},
                   cluster::DispatchMode::kShardParallel, 1000.0);
  EXPECT_EQ(s.params.num_requests, 5u);
  EXPECT_EQ(s.params.queue_depth, 0u);  // unbounded: nothing is shed
  EXPECT_EQ(s.params.max_batch, 1u);
  EXPECT_EQ(s.params.mode, cluster::DispatchMode::kShardParallel);
  EXPECT_THROW(args.reject_unread("a closed-loop run"), Error);
}

TEST(Scenario, ServingConvertsUnitsAtTheChipClock) {
  const CliArgs args = parse(
      {"--rate=2000", "--slo-us=800", "--arrival=diurnal", "--period-us=500"});
  const ServingScenario s =
      read_serving(args, Arrivals::kAnyProcess, {},
                   cluster::DispatchMode::kDataParallel, 700.0);
  EXPECT_DOUBLE_EQ(s.params.arrival.rate_per_mcycle, 2000.0 / 700.0);
  EXPECT_EQ(s.params.slo_cycles, 560000u);
  EXPECT_EQ(s.params.arrival.kind, serving::ArrivalKind::kDiurnal);
  EXPECT_DOUBLE_EQ(s.params.arrival.period_mcycles, 500.0 * 700.0 / 1e6);
  EXPECT_EQ(s.params.queue_depth, 64u);  // the caller's default
  args.reject_unread("an open-loop run");
}

TEST(Scenario, PoissonLevelLeavesTheProcessShapeUnread) {
  const CliArgs args = parse({"--arrival=bursty", "--burst-mult=4"});
  (void)read_serving(args, Arrivals::kPoisson, {},
                     cluster::DispatchMode::kDataParallel, 700.0);
  try {
    args.reject_unread("a dynamic-graph run");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(),
                 "a dynamic-graph run does not use --arrival --burst-mult");
  }
}

TEST(Scenario, FaultFlagsNeedFaultsAndSetTheHorizon) {
  const CliArgs off = parse({"--mtbf-us=100"});
  ServingScenario s = read_serving(off, Arrivals::kPoisson, {},
                                   cluster::DispatchMode::kDataParallel, 1e3);
  read_faults(off, 1e3, s);
  EXPECT_FALSE(s.params.faults.enabled());
  EXPECT_FALSE(s.params.proactive_shedding);
  EXPECT_THROW(off.reject_unread("a rate sweep"), Error);

  const CliArgs on = parse({"--faults", "--requests=10", "--rate=1000"});
  s = read_serving(on, Arrivals::kPoisson, {},
                   cluster::DispatchMode::kDataParallel, 1e3);
  read_faults(on, 1e3, s);
  EXPECT_TRUE(s.faults);
  EXPECT_EQ(s.params.faults.seed, 1u);  // a bare --faults
  EXPECT_DOUBLE_EQ(s.params.faults.chip_mtbf, 400.0 * 1e3);
  EXPECT_DOUBLE_EQ(s.params.faults.chip_mttr, 60.0 * 1e3);
  // 10 requests at 1000 req/s span 10 ms, 1e7 cycles at 1 GHz: the plan
  // covers eight times that plus a fixed margin.
  EXPECT_EQ(s.params.faults.horizon, Cycle{80000000 + 1000000});
  EXPECT_EQ(s.params.max_retries, 3u);
  EXPECT_TRUE(s.params.proactive_shedding);
  on.reject_unread("a fault sweep");
}

}  // namespace
}  // namespace aurora::scenario
