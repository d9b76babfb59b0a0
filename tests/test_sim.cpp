// Unit tests for the cycle-driven simulation kernel.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include <algorithm>
#include <fstream>
#include <sstream>

#include "sim/perfetto.hpp"
#include "sim/sampler.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace aurora::sim {
namespace {

/// Component that stays busy for a fixed number of ticks.
class BusyFor final : public Component {
 public:
  explicit BusyFor(Cycle busy) : Component("busy"), remaining_(busy) {}
  void tick(Cycle now) override {
    last_tick_ = now;
    ++ticks_;
    if (remaining_ > 0) --remaining_;
  }
  [[nodiscard]] bool idle() const override { return remaining_ == 0; }

  Cycle last_tick_ = 0;
  Cycle ticks_ = 0;

 private:
  Cycle remaining_;
};

TEST(Simulator, StartsAtCycleZero) {
  Simulator s;
  EXPECT_EQ(s.now(), 0u);
  EXPECT_TRUE(s.all_idle());
}

TEST(Simulator, StepAdvancesClockAndTicksComponents) {
  Simulator s;
  BusyFor c(3);
  s.add(&c);
  s.step();
  EXPECT_EQ(s.now(), 1u);
  EXPECT_EQ(c.ticks_, 1u);
  EXPECT_EQ(c.last_tick_, 0u);
}

TEST(Simulator, RunUntilIdleStopsExactlyWhenDrained) {
  Simulator s;
  BusyFor c(5);
  s.add(&c);
  const Cycle end = s.run_until_idle(100);
  EXPECT_EQ(end, 5u);
  EXPECT_TRUE(s.all_idle());
}

TEST(Simulator, RunUntilIdleWaitsForSlowestComponent) {
  Simulator s;
  BusyFor fast(2), slow(9);
  s.add(&fast);
  s.add(&slow);
  EXPECT_EQ(s.run_until_idle(100), 9u);
}

TEST(Simulator, DeadlockGuardThrows) {
  /// Component that is never idle.
  class Stuck final : public Component {
   public:
    Stuck() : Component("stuck") {}
    void tick(Cycle) override {}
    [[nodiscard]] bool idle() const override { return false; }
  };
  Simulator s;
  Stuck c;
  s.add(&c);
  EXPECT_THROW(s.run_until_idle(50), Error);
}

TEST(Simulator, RunCyclesIgnoresIdleness) {
  Simulator s;
  BusyFor c(1);
  s.add(&c);
  s.run_cycles(10);
  EXPECT_EQ(s.now(), 10u);
  EXPECT_EQ(c.ticks_, 10u);
}

TEST(Simulator, RejectsNullComponent) {
  Simulator s;
  EXPECT_THROW(s.add(nullptr), Error);
}

// ------------------------------------------------- event-driven fast-forward

/// Component with one scheduled event: ticks are no-ops until `fire_at`,
/// where it does one unit of work. Counts every tick and skipped cycle so
/// tests can see exactly what the scheduler did.
class FiresAt final : public Component {
 public:
  explicit FiresAt(Cycle fire_at) : Component("fires-at"), fire_at_(fire_at) {}
  void tick(Cycle now) override {
    ++ticks_;
    if (pending_ && now >= fire_at_) pending_ = false;
  }
  [[nodiscard]] bool idle() const override { return !pending_; }
  [[nodiscard]] Cycle next_event_cycle(Cycle now) const override {
    if (!pending_) return kNoEvent;
    return std::max(now, fire_at_);
  }
  void skip_cycles(Cycle from, Cycle to) override { skipped_ += to - from; }
  void rearm(Cycle fire_at) {
    fire_at_ = fire_at;
    pending_ = true;
    wake();
  }

  Cycle ticks_ = 0;
  Cycle skipped_ = 0;

 private:
  Cycle fire_at_;
  bool pending_ = true;
};

TEST(FastForward, JumpsOverDeadCyclesWithoutTickingThem) {
  Simulator s;
  FiresAt c(1000);
  s.add(&c);
  EXPECT_EQ(s.run_until_idle(10'000), 1001u);
  // Tick at 0, jump to 1000, tick there: two ticks for 1001 cycles.
  EXPECT_EQ(c.ticks_, 2u);
  EXPECT_EQ(c.skipped_, 999u);
  EXPECT_EQ(s.cycles_skipped(), 999u);
}

TEST(FastForward, DisabledModeTicksEveryCycle) {
  Simulator s;
  s.set_fast_forward(false);
  FiresAt c(1000);
  s.add(&c);
  EXPECT_EQ(s.run_until_idle(10'000), 1001u);
  EXPECT_EQ(c.ticks_, 1001u);
  EXPECT_EQ(s.cycles_skipped(), 0u);
}

TEST(FastForward, EndCycleMatchesLockstepExactly) {
  for (Cycle fire : {0u, 1u, 2u, 7u, 63u, 5000u}) {
    Simulator ff, ls;
    ls.set_fast_forward(false);
    FiresAt a(fire), b(fire);
    ff.add(&a);
    ls.add(&b);
    EXPECT_EQ(ff.run_until_idle(100'000), ls.run_until_idle(100'000))
        << "fire_at=" << fire;
  }
}

TEST(FastForward, LegacyComponentPinsTheClock) {
  // A lockstep-default component ("tick me every cycle") must prevent jumps
  // even when an event-aware peer sees its next event far away.
  Simulator s;
  FiresAt aware(500);
  BusyFor legacy(200);
  s.add(&aware);
  s.add(&legacy);
  s.run_until_idle(10'000);
  // No jumps while the legacy component was busy; after it drains it reports
  // kNoEvent via... it doesn't — BusyFor keeps the default next_event_cycle,
  // so it pins the clock right up to cycle 500. Everything stays lockstep.
  EXPECT_EQ(aware.ticks_, 501u);
  EXPECT_EQ(s.cycles_skipped(), 0u);
}

TEST(FastForward, QuiescentComponentRetiresAndWakes) {
  Simulator s;
  FiresAt a(3), b(10);
  s.add(&a);
  s.add(&b);
  s.run_until_idle(1000);
  const Cycle a_ticks_after_drain = a.ticks_;
  // a drained at cycle 3 and reported kNoEvent: it must not be ticked while
  // b finishes out (cycles 4..10 are jumped or ticked only on b).
  EXPECT_LE(a_ticks_after_drain, 3u);

  // wake() re-enters the tick loop: rearm and run again on the same sim.
  a.rearm(s.now() + 50);
  EXPECT_FALSE(s.all_idle());
  s.run_until_idle(1000);
  EXPECT_TRUE(s.all_idle());
  EXPECT_GT(a.ticks_, a_ticks_after_drain);
}

TEST(FastForward, DeadlineStillTripsUnderFastForward) {
  /// Never idle, but always claims its next event is far away — a livelocked
  /// component must still hit the deadline guard, clamped like lockstep.
  class Stalled final : public Component {
   public:
    Stalled() : Component("stalled") {}
    void tick(Cycle) override {}
    [[nodiscard]] bool idle() const override { return false; }
    [[nodiscard]] Cycle next_event_cycle(Cycle now) const override {
      return now + 1'000'000;
    }
  };
  Simulator s;
  Stalled c;
  s.add(&c);
  EXPECT_THROW(s.run_until_idle(500), Error);
  EXPECT_LE(s.now(), 500u);
}

TEST(FastForward, SkipCyclesSpansExactlyTheJumpedRange) {
  Simulator s;
  FiresAt a(100), b(40);
  s.add(&a);
  s.add(&b);
  s.run_until_idle(1000);
  // Jumps: 1 -> 40 (b's event), then 41 -> 100 (a's event, b now quiescent).
  EXPECT_EQ(s.now(), 101u);
  EXPECT_EQ(a.skipped_, 98u);
  EXPECT_EQ(s.cycles_skipped(), 98u);
}


// ------------------------------------------------------------------- tracer

TEST(Tracer, DisabledByDefaultAndDropsEvents) {
  Tracer t;
  t.record(5, TraceEvent::kDramRequest, 1, 2);
  EXPECT_EQ(t.size(), 0u);
  t.enable();
  t.record(5, TraceEvent::kDramRequest, 1, 2);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.count(TraceEvent::kDramRequest), 1u);
  EXPECT_EQ(t.count(TraceEvent::kTileStart), 0u);
}

TEST(Tracer, TimelineRendersOneRowPerActiveKind) {
  Tracer t;
  t.enable();
  for (Cycle c = 0; c < 100; c += 10) {
    t.record(c, TraceEvent::kPacketInjected, 0, 0);
  }
  t.record(50, TraceEvent::kReconfigure, 0, 0);
  const std::string timeline = t.render_timeline(20);
  EXPECT_NE(timeline.find("packet-injected"), std::string::npos);
  EXPECT_NE(timeline.find("reconfigure"), std::string::npos);
  EXPECT_EQ(timeline.find("dram-request"), std::string::npos);
  EXPECT_NE(timeline.find("10 events"), std::string::npos);
}

TEST(Tracer, EmptyTimeline) {
  Tracer t;
  EXPECT_EQ(t.render_timeline(), "(empty trace)\n");
}

TEST(Tracer, CsvOutput) {
  Tracer t;
  t.enable();
  t.record(3, TraceEvent::kTileStart, 7, 8);
  t.record(5, TraceEvent::kDramSpan, 1, 2, 3, 4);
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(),
            "cycle,event,arg0,arg1,arg2,arg3\n"
            "3,tile-start,7,8,0,0\n"
            "5,dram-span,1,2,3,4\n");
}

TEST(Tracer, ClearResets) {
  Tracer t;
  t.enable();
  t.record(1, TraceEvent::kTaskComplete);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
}

TEST(Tracer, RingBufferEvictsOldestAndCountsDrops) {
  Tracer t;
  t.enable();
  t.set_capacity(4);
  for (Cycle c = 0; c < 10; ++c) {
    t.record(c, TraceEvent::kTaskComplete, c, 0);
  }
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.dropped(), 6u);
  // A suffix trace survives: the oldest records were evicted.
  EXPECT_EQ(t.records().front().at, 6u);
  EXPECT_EQ(t.records().back().at, 9u);
  // CSV output stays stable over the retained records.
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(),
            "cycle,event,arg0,arg1,arg2,arg3\n"
            "6,task-complete,6,0,0,0\n7,task-complete,7,0,0,0\n"
            "8,task-complete,8,0,0,0\n9,task-complete,9,0,0,0\n");
  t.clear();
  EXPECT_EQ(t.dropped(), 0u);
  EXPECT_THROW(t.set_capacity(0), Error);
}

TEST(Tracer, ShrinkingCapacityEvictsImmediately) {
  Tracer t;
  t.enable();
  for (Cycle c = 0; c < 8; ++c) t.record(c, TraceEvent::kTaskComplete);
  t.set_capacity(3);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.dropped(), 5u);
  EXPECT_EQ(t.records().front().at, 5u);
}

// ------------------------------------------------------------------ sampler

TEST(Sampler, SamplesAtIntervalBoundaries) {
  Simulator s;
  s.set_fast_forward(false);
  BusyFor busy(10);
  Sampler sampler(4);
  sampler.watch("ticks", [&busy] { return static_cast<double>(busy.ticks_); });
  s.add(&busy);
  s.add(&sampler);  // after busy: samples see post-tick state
  s.run_until_idle(100);
  ASSERT_EQ(sampler.num_samples(), 3u);
  EXPECT_EQ(sampler.sample_cycles(), (std::vector<Cycle>{0, 4, 8}));
  ASSERT_EQ(sampler.series().size(), 1u);
  EXPECT_EQ(sampler.series()[0].values, (std::vector<double>{1, 5, 9}));
}

TEST(Sampler, FastForwardSamplesMatchLockstep) {
  // The sampler pins fast-forward jumps to sample boundaries, where every
  // skipped component's ticks were no-ops — so the sampled series must be
  // bit-identical between the two scheduler modes.
  auto run = [](bool fast_forward, Cycle& skipped) {
    Simulator s;
    s.set_fast_forward(fast_forward);
    FiresAt a(100), b(40);
    Sampler sampler(8);
    sampler.watch("pending", [&a, &b] {
      return (a.idle() ? 0.0 : 1.0) + (b.idle() ? 0.0 : 1.0);
    });
    s.add(&a);
    s.add(&b);
    s.add(&sampler);
    s.run_until_idle(1000);
    skipped = s.cycles_skipped();
    return std::make_pair(sampler.sample_cycles(), sampler.series()[0].values);
  };
  Cycle ff_skipped = 0, ls_skipped = 0;
  const auto ff = run(true, ff_skipped);
  const auto ls = run(false, ls_skipped);
  EXPECT_EQ(ff.first, ls.first);
  EXPECT_EQ(ff.second, ls.second);
  // The interesting path was exercised: jumps happened, pinned to
  // boundaries rather than disabled.
  EXPECT_GT(ff_skipped, 0u);
  EXPECT_EQ(ls_skipped, 0u);
}

TEST(Sampler, NeverProlongsTheRun) {
  Simulator s;
  BusyFor busy(5);
  Sampler sampler(1000);  // next boundary far beyond the drain point
  s.add(&busy);
  s.add(&sampler);
  EXPECT_EQ(s.run_until_idle(100), 5u);
}

TEST(Sampler, DetachKeepsRecordedSeries) {
  std::uint64_t count = 3;
  Sampler sampler(2);
  sampler.watch("noc.packets", &count);
  sampler.watch("pe.depth", [] { return 2.5; });
  ASSERT_EQ(sampler.series().size(), 2u);
  sampler.tick(0);
  sampler.detach();  // probes dropped, data kept
  EXPECT_EQ(sampler.num_samples(), 1u);
  sampler.tick(2);  // detached probes sample as zero rather than dangle
  EXPECT_EQ(sampler.num_samples(), 2u);
  EXPECT_EQ(sampler.series()[0].values, (std::vector<double>{3.0, 0.0}));
  EXPECT_EQ(sampler.series()[1].values, (std::vector<double>{2.5, 0.0}));
  EXPECT_THROW(Sampler(0), Error);
}

// ----------------------------------------------------------------- perfetto

TEST(Perfetto, ExportsSpansInstantsAndDerivedCounters) {
  Tracer t;
  t.enable();
  t.record(10, TraceEvent::kPhaseSpan, 1, 5);  // aggregation, cycles 10..14
  t.record(0, TraceEvent::kDramSpan, 4096, 7);
  t.record(2, TraceEvent::kPacketInjected, 0, 64);
  t.record(6, TraceEvent::kPacketDelivered, 3, 64);
  t.record(1, TraceEvent::kDramRequest, 0, 4096);
  t.record(0, TraceEvent::kReconfigure, 0, 12);
  const std::string json = perfetto_trace_json(t);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);  // duration spans
  EXPECT_NE(json.find("\"aggregation\""), std::string::npos);
  EXPECT_NE(json.find("\"dram-stream\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);  // instants
  // Both derived counter tracks are present even without a sampler.
  EXPECT_NE(json.find("\"noc.packets_in_flight\""), std::string::npos);
  EXPECT_NE(json.find("\"dram.bytes_requested\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
  // Structurally sound JSON: balanced braces and brackets.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(Perfetto, SampledSeriesBecomeCounterTracks) {
  Tracer t;
  t.enable();
  Sampler sampler(2);
  double level = 1.0;
  sampler.watch("pe.queue_depth_total", [&level] { return level; });
  sampler.tick(0);
  level = 4.0;
  sampler.tick(2);
  const std::string json = perfetto_trace_json(t, &sampler);
  EXPECT_NE(json.find("\"pe.queue_depth_total\""), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"value\": 4}"), std::string::npos);
}

TEST(Perfetto, WritesLoadableFile) {
  Tracer t;
  t.enable();
  t.record(0, TraceEvent::kPhaseSpan, 0, 3);
  const std::string path = ::testing::TempDir() + "/aurora_trace.json";
  write_perfetto_trace(path, t);
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), perfetto_trace_json(t) + "\n");
}

}  // namespace
}  // namespace aurora::sim
