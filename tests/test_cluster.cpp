// Tests for the multi-chip scale-out subsystem: the shard planner's cut and
// ghost bookkeeping, the inter-chip link's cycle-level behaviour and
// conservation laws, the cluster engine's single-chip equivalence and
// multi-chip halo exchange, and the dispatch-mode names.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster_engine.hpp"
#include "cluster/cluster_scheduler.hpp"
#include "cluster/interchip.hpp"
#include "cluster/shard.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/aurora.hpp"
#include "core/report.hpp"
#include "graph/degree.hpp"
#include "graph/generators.hpp"
#include "sim/invariants.hpp"
#include "sim/perfetto.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace aurora {
namespace {

graph::Dataset make_test_dataset(VertexId n, EdgeId undirected_edges,
                                 std::uint64_t seed) {
  Rng rng(seed);
  graph::Dataset ds;
  ds.spec.name = "cluster-test";
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

// ------------------------------------------------------------------ shard

TEST(ShardPlanner, OneChipPlanIsIdentity) {
  const graph::Dataset ds = make_test_dataset(40, 90, 3);
  for (const auto strategy :
       {cluster::ShardStrategy::kRange, cluster::ShardStrategy::kHash}) {
    const cluster::ShardPlan plan = make_shard_plan(ds, 1, strategy);
    ASSERT_EQ(plan.shards.size(), 1u);
    const cluster::Shard& shard = plan.shards[0];
    EXPECT_EQ(shard.num_owned, ds.num_vertices());
    EXPECT_EQ(shard.num_ghosts, 0u);
    EXPECT_EQ(plan.cut_edges, 0u);
    EXPECT_DOUBLE_EQ(plan.replication_factor, 1.0);
    // Bit-identical CSR vectors — the property the 1-chip engine
    // equivalence rests on.
    EXPECT_EQ(shard.dataset.graph.row_ptr(), ds.graph.row_ptr());
    EXPECT_EQ(shard.dataset.graph.col_idx(), ds.graph.col_idx());
  }
}

TEST(ShardPlanner, ShardsPartitionVerticesAndConserveEdges) {
  const graph::Dataset ds = make_test_dataset(60, 150, 5);
  for (const auto strategy :
       {cluster::ShardStrategy::kRange, cluster::ShardStrategy::kHash}) {
    for (const std::uint32_t chips : {2u, 3u, 4u}) {
      const cluster::ShardPlan plan = make_shard_plan(ds, chips, strategy);
      ASSERT_EQ(plan.shards.size(), chips);
      VertexId owned_total = 0;
      EdgeId owned_edges_total = 0;
      EdgeId ghost_edges_total = 0;
      VertexId ghosts_total = 0;
      std::vector<bool> seen(ds.num_vertices(), false);
      for (const cluster::Shard& shard : plan.shards) {
        owned_total += shard.num_owned;
        ghosts_total += shard.num_ghosts;
        ASSERT_EQ(shard.global_ids.size(),
                  static_cast<std::size_t>(shard.num_owned) +
                      shard.num_ghosts);
        for (VertexId local = 0; local < shard.num_owned; ++local) {
          const VertexId global = shard.global_ids[local];
          EXPECT_FALSE(seen[global]) << "vertex owned twice";
          seen[global] = true;
          // Every owned vertex keeps its full neighbor list locally.
          EXPECT_EQ(shard.dataset.graph.degree(local), ds.graph.degree(global));
          owned_edges_total += shard.dataset.graph.degree(local);
        }
        // Ghost rows mirror exactly the cut edges back into the owned side
        // (the shard is a symmetric CSR).
        EdgeId ghost_edges = 0;
        for (VertexId local = shard.num_owned;
             local < shard.global_ids.size(); ++local) {
          EXPECT_GT(shard.dataset.graph.degree(local), 0u);
          ghost_edges += shard.dataset.graph.degree(local);
          for (const VertexId nb : shard.dataset.graph.neighbors(local)) {
            EXPECT_LT(nb, shard.num_owned);
          }
        }
        EXPECT_EQ(ghost_edges, shard.cut_edges);
        ghost_edges_total += ghost_edges;
        VertexId ghosts_from_total = 0;
        for (const VertexId g : shard.ghosts_from) ghosts_from_total += g;
        EXPECT_EQ(ghosts_from_total, shard.num_ghosts);
        EXPECT_EQ(shard.ghosts_from[shard.chip], 0u);
      }
      EXPECT_EQ(owned_total, ds.num_vertices());
      EXPECT_EQ(owned_edges_total, ds.num_edges());
      EXPECT_EQ(ghost_edges_total, plan.cut_edges);
      EXPECT_EQ(ghosts_total, plan.total_ghosts);
      EXPECT_GE(plan.replication_factor, 1.0);
      EXPECT_GT(plan.cut_edges, 0u);  // an ER graph always cuts somewhere
    }
  }
}

TEST(ShardPlanner, HashOwnerIsVertexModChips) {
  const graph::Dataset ds = make_test_dataset(30, 60, 7);
  const cluster::ShardPlan plan =
      make_shard_plan(ds, 3, cluster::ShardStrategy::kHash);
  for (const cluster::Shard& shard : plan.shards) {
    for (VertexId local = 0; local < shard.num_owned; ++local) {
      EXPECT_EQ(shard.global_ids[local] % 3, shard.chip);
    }
  }
}

TEST(ShardPlanner, HaloBytesFollowGhostCounts) {
  const graph::Dataset ds = make_test_dataset(50, 120, 9);
  const cluster::ShardPlan plan =
      make_shard_plan(ds, 2, cluster::ShardStrategy::kRange);
  EXPECT_EQ(plan.halo_bytes(0, 1, 4, 8),
            static_cast<Bytes>(plan.shards[1].ghosts_from[0]) * 4 * 8);
  EXPECT_EQ(plan.halo_bytes(1, 0, 4, 8),
            static_cast<Bytes>(plan.shards[0].ghosts_from[1]) * 4 * 8);
}

// ------------------------------------------------------------------- link

struct Delivery {
  cluster::LinkMessage msg;
  Cycle at = 0;
};

std::vector<Delivery> drive_link(cluster::InterChipLink& link,
                                 bool fast_forward, Cycle max_cycles = 4096) {
  std::vector<Delivery> deliveries;
  link.set_delivery_callback(
      [&](const cluster::LinkMessage& msg, Cycle now) {
        deliveries.push_back({msg, now});
      });
  sim::Simulator simulator;
  simulator.set_fast_forward(fast_forward);
  simulator.add(&link);
  simulator.run_until_idle(max_cycles);
  return deliveries;
}

TEST(InterChipLink, SerializationAndFlightTiming) {
  cluster::LinkParams params;
  params.bytes_per_cycle = 32;
  params.hop_latency = 10;
  cluster::InterChipLink link(2, params);
  cluster::LinkMessage msg;
  msg.src = 0;
  msg.dst = 1;
  msg.bytes = 64;
  link.send(msg, 0);
  const auto deliveries = drive_link(link, /*fast_forward=*/true);
  ASSERT_EQ(deliveries.size(), 1u);
  // Eligible at 1, serialises 64/32 = 2 cycles, flies 10: arrives at 13.
  EXPECT_EQ(deliveries[0].at, 13u);
  EXPECT_EQ(link.stats().messages_delivered, 1u);
  EXPECT_EQ(link.stats().bytes_delivered, 64u);
  EXPECT_EQ(link.stats().hops, 1u);
  EXPECT_EQ(link.stats().stall_cycles, 0u);
}

TEST(InterChipLink, RingRoutesShortestPathStoreAndForward) {
  cluster::LinkParams params;
  params.topology = cluster::ClusterTopology::kRing;
  cluster::InterChipLink ring(4, params);
  EXPECT_EQ(cluster::link_route_hops(params, 4, 0, 2), 2u);
  EXPECT_EQ(cluster::link_route_hops(params, 4, 0, 3), 1u);
  EXPECT_EQ(cluster::link_route_hops(params, 4, 3, 1), 2u);
  cluster::LinkMessage msg;
  msg.src = 0;
  msg.dst = 2;
  msg.bytes = 16;
  ring.send(msg, 0);
  const auto deliveries = drive_link(ring, true);
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(ring.stats().hops, 2u);  // forwarded once through chip 1
  EXPECT_EQ(ring.stats().bytes_hopped, 32u);

  params.topology = cluster::ClusterTopology::kFullyConnected;
  cluster::InterChipLink full(4, params);
  EXPECT_EQ(cluster::link_route_hops(params, 4, 0, 2), 1u);
  EXPECT_EQ(full.num_wires(), 12u);  // N(N-1) directed wires
  full.send(msg, 0);
  (void)drive_link(full, true);
  EXPECT_EQ(full.stats().hops, 1u);
}

TEST(InterChipLink, QueueingBehindBusyWireCountsStalls) {
  cluster::LinkParams params;
  params.bytes_per_cycle = 8;
  params.hop_latency = 5;
  cluster::InterChipLink link(2, params);
  cluster::LinkMessage msg;
  msg.src = 0;
  msg.dst = 1;
  msg.bytes = 80;  // 10 serialisation cycles
  link.send(msg, 0);
  link.send(msg, 0);  // same wire: waits for the first to serialise
  const auto deliveries = drive_link(link, true);
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(link.stats().stall_cycles, 10u);
  EXPECT_EQ(link.stats().serialize_cycles, 20u);
}

TEST(InterChipLink, LockstepAndFastForwardBitIdentical) {
  for (const auto topology : {cluster::ClusterTopology::kRing,
                              cluster::ClusterTopology::kFullyConnected}) {
    cluster::LinkParams params;
    params.topology = topology;
    params.bytes_per_cycle = 16;
    params.hop_latency = 33;
    const auto run = [&](bool fast_forward) {
      cluster::InterChipLink link(5, params);
      Rng rng(42);
      Cycle now = 0;
      sim::Simulator simulator;
      simulator.set_fast_forward(fast_forward);
      simulator.add(&link);
      std::vector<Delivery> deliveries;
      link.set_delivery_callback(
          [&](const cluster::LinkMessage& msg, Cycle at) {
            deliveries.push_back({msg, at});
          });
      for (int i = 0; i < 20; ++i) {
        cluster::LinkMessage msg;
        msg.src = static_cast<std::uint32_t>(rng.next_below(5));
        do {
          msg.dst = static_cast<std::uint32_t>(rng.next_below(5));
        } while (msg.dst == msg.src);
        msg.bytes = 1 + rng.next_below(256);
        link.send(msg, now);
        // Interleave sends with simulation progress.
        const Cycle until = now + rng.next_below(41);
        while (simulator.now() < until && !simulator.all_idle()) {
          simulator.step();
        }
        now = simulator.now();
      }
      simulator.run_until_idle(100000);
      sim::InvariantReport report(simulator.now(), /*drained=*/true);
      report.set_subject(link.name());
      link.verify_invariants(report);
      EXPECT_TRUE(report.ok()) << report.to_string();
      return std::make_pair(deliveries, link.stats());
    };
    const auto [d_lock, s_lock] = run(false);
    const auto [d_fast, s_fast] = run(true);
    ASSERT_EQ(d_lock.size(), d_fast.size());
    for (std::size_t i = 0; i < d_lock.size(); ++i) {
      EXPECT_EQ(d_lock[i].at, d_fast[i].at) << "delivery " << i;
      EXPECT_EQ(d_lock[i].msg.bytes, d_fast[i].msg.bytes);
    }
    EXPECT_EQ(s_lock.messages_delivered, s_fast.messages_delivered);
    EXPECT_EQ(s_lock.stall_cycles, s_fast.stall_cycles);
    EXPECT_EQ(s_lock.serialize_cycles, s_fast.serialize_cycles);
    EXPECT_EQ(s_lock.hops, s_fast.hops);
  }
}

TEST(InterChipLink, ConservationInvariantsHoldMidFlight) {
  cluster::LinkParams params;
  params.hop_latency = 50;
  cluster::InterChipLink link(3, params);
  cluster::LinkMessage msg;
  msg.src = 0;
  msg.dst = 2;
  msg.bytes = 100;
  link.send(msg, 0);
  sim::Simulator simulator;
  simulator.add(&link);
  simulator.run_cycles(10);  // message is mid-flight
  EXPECT_GT(link.messages_in_flight(), 0u);
  sim::InvariantReport mid(simulator.now(), /*drained=*/false);
  link.verify_invariants(mid);
  EXPECT_TRUE(mid.ok()) << mid.to_string();
  simulator.run_until_idle(10000);
  sim::InvariantReport drained(simulator.now(), /*drained=*/true);
  link.verify_invariants(drained);
  EXPECT_TRUE(drained.ok()) << drained.to_string();
}

// ----------------------------------------------------------------- engine

TEST(ClusterEngine, OneChipReproducesPlainEngineBitForBit) {
  const graph::Dataset ds = make_test_dataset(48, 100, 11);
  const core::GnnJob job =
      core::GnnJob::two_layer(gnn::GnnModel::kGcn, ds.spec, 8);
  for (const bool fast_forward : {false, true}) {
    core::AuroraConfig cfg = small_config();
    cfg.fast_forward = fast_forward;

    core::AuroraAccelerator plain(cfg);
    const core::RunMetrics reference = plain.run(ds, job);

    cluster::ClusterParams params;
    params.num_chips = 1;
    cluster::ClusterEngine engine(cfg, params);
    const cluster::ClusterRunMetrics clustered = engine.run(ds, job);

    ASSERT_EQ(clustered.chips.size(), 1u);
    const auto diffs =
        core::diff_run_metrics(reference, clustered.chips[0].metrics);
    EXPECT_TRUE(diffs.empty())
        << "fast_forward=" << fast_forward << ": " << diffs.size()
        << " field(s) diverge; first: "
        << (diffs.empty() ? std::string() : diffs.front());
    EXPECT_EQ(clustered.total_cycles, reference.total_cycles);
    EXPECT_EQ(clustered.link.messages_sent, 0u);
    EXPECT_EQ(clustered.chips[0].halo_bytes_sent, 0u);
    EXPECT_EQ(clustered.ghost_vertices, 0u);
  }
}

TEST(ClusterEngine, TwoChipShardParallelExchangesHalos) {
  const graph::Dataset ds = make_test_dataset(60, 140, 17);
  const core::GnnJob job =
      core::GnnJob::two_layer(gnn::GnnModel::kGcn, ds.spec, 8);
  core::AuroraConfig cfg = small_config();
  cfg.check_invariants = true;  // cluster conservation laws on the hot path
  cfg.invariant_interval = 64;
  cluster::ClusterParams params;
  params.num_chips = 2;
  cluster::ClusterEngine engine(cfg, params);
  const cluster::ClusterRunMetrics out = engine.run(ds, job);

  ASSERT_EQ(out.chips.size(), 2u);
  EXPECT_GT(out.ghost_vertices, 0u);
  EXPECT_GT(out.cut_edges, 0u);
  EXPECT_GT(out.replication_factor, 1.0);
  EXPECT_GT(out.link.messages_sent, 0u);
  EXPECT_EQ(out.link.messages_sent, out.link.messages_delivered);
  EXPECT_EQ(out.link.bytes_sent, out.link.bytes_delivered);
  EXPECT_GT(out.counters.get("cluster.halo_bytes_sent"), 0u);
  Bytes sent = 0;
  Bytes received = 0;
  for (const cluster::ChipRun& chip : out.chips) {
    EXPECT_GT(chip.metrics.total_cycles, 0u);
    EXPECT_LE(chip.finish_cycle, out.total_cycles);
    sent += chip.halo_bytes_sent;
    received += chip.halo_bytes_received;
  }
  EXPECT_EQ(sent, out.link.bytes_sent);
  EXPECT_EQ(received, out.link.bytes_delivered);
  // The cluster clock covers at least the slowest chip's own work.
  Cycle slowest = 0;
  for (const cluster::ChipRun& chip : out.chips) {
    slowest = std::max(slowest, chip.metrics.total_cycles);
  }
  EXPECT_GE(out.total_cycles, slowest);
}

TEST(ClusterEngine, LockstepAndFastForwardClusterBitIdentical) {
  const graph::Dataset ds = make_test_dataset(50, 120, 23);
  const core::GnnJob job =
      core::GnnJob::two_layer(gnn::GnnModel::kAgnn, ds.spec, 8);
  const auto run = [&](bool fast_forward) {
    core::AuroraConfig cfg = small_config();
    cfg.fast_forward = fast_forward;
    cfg.check_invariants = true;
    cluster::ClusterParams params;
    params.num_chips = 3;
    params.strategy = cluster::ShardStrategy::kHash;
    cluster::ClusterEngine engine(cfg, params);
    return engine.run(ds, job);
  };
  const cluster::ClusterRunMetrics lockstep = run(false);
  const cluster::ClusterRunMetrics fastfwd = run(true);
  EXPECT_EQ(lockstep.total_cycles, fastfwd.total_cycles);
  ASSERT_EQ(lockstep.chips.size(), fastfwd.chips.size());
  for (std::size_t c = 0; c < lockstep.chips.size(); ++c) {
    const auto diffs = core::diff_run_metrics(lockstep.chips[c].metrics,
                                              fastfwd.chips[c].metrics);
    EXPECT_TRUE(diffs.empty())
        << "chip " << c << ": "
        << (diffs.empty() ? std::string() : diffs.front());
    EXPECT_EQ(lockstep.chips[c].finish_cycle, fastfwd.chips[c].finish_cycle);
    EXPECT_EQ(lockstep.chips[c].halo_wait_cycles,
              fastfwd.chips[c].halo_wait_cycles);
  }
  EXPECT_EQ(lockstep.link.stall_cycles, fastfwd.link.stall_cycles);
  EXPECT_EQ(lockstep.link.serialize_cycles, fastfwd.link.serialize_cycles);
  EXPECT_EQ(lockstep.counters.all(), fastfwd.counters.all());
}

TEST(ClusterEngine, PerfettoTraceCarriesPerChipTracks) {
  const graph::Dataset ds = make_test_dataset(40, 90, 31);
  const core::GnnJob job =
      core::GnnJob::two_layer(gnn::GnnModel::kGcn, ds.spec, 8);
  cluster::ClusterParams params;
  params.num_chips = 2;
  cluster::ClusterEngine engine(small_config(), params);
  sim::Tracer cluster_tracer;
  cluster_tracer.enable();
  sim::Tracer chip0_tracer;
  chip0_tracer.enable();
  engine.set_tracer(&cluster_tracer);
  engine.set_chip_tracer(0, &chip0_tracer);
  (void)engine.run(ds, job);

  EXPECT_GT(cluster_tracer.count(sim::TraceEvent::kClusterSegment), 0u);
  EXPECT_GT(cluster_tracer.count(sim::TraceEvent::kHaloSent), 0u);
  EXPECT_EQ(cluster_tracer.count(sim::TraceEvent::kHaloSent),
            cluster_tracer.count(sim::TraceEvent::kHaloDelivered));

  const std::string json = sim::perfetto_trace_json(
      {{"cluster", &cluster_tracer, nullptr}, {"chip0", &chip0_tracer}});
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"chip0\""), std::string::npos);
  EXPECT_NE(json.find("\"chip1\""), std::string::npos);
  EXPECT_NE(json.find("compute-pre"), std::string::npos);
  EXPECT_NE(json.find("halo-wait"), std::string::npos);
  EXPECT_NE(json.find("link.halo_bytes_in_flight"), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 1"), std::string::npos);
}

// -------------------------------------------------- parallel engine

// ClusterParams::parallel fans the per-chip engine runs (Phase A) out over
// worker threads; the timeline replay is the same serial Simulator either
// way, so the whole ClusterRunMetrics must match the serial run bit for bit.
TEST(ParallelEngine, BitIdenticalToSerialAcrossTopologiesAndModes) {
  const graph::Dataset ds = make_test_dataset(60, 150, 41);
  const core::GnnJob job =
      core::GnnJob::two_layer(gnn::GnnModel::kGcn, ds.spec, 8);
  const auto run = [&](bool parallel) {
    cluster::ClusterParams params;
    params.num_chips = 4;
    params.strategy = cluster::ShardStrategy::kHash;
    params.parallel = parallel;
    params.parallel_jobs = 2;
    cluster::ClusterEngine engine(small_config(), params);
    return engine.run(ds, job);
  };
  const cluster::ClusterRunMetrics serial = run(false);
  const cluster::ClusterRunMetrics parallel = run(true);
  const auto diffs = cluster::diff_cluster_run_metrics(serial, parallel);
  EXPECT_TRUE(diffs.empty())
      << diffs.size() << " mismatch(es), first: "
      << (diffs.empty() ? std::string() : diffs.front());
}

// Worker count is a performance knob, never a result knob: any jobs value
// (including oversubscribed) and any repetition yields the same metrics.
TEST(ParallelEngine, DeterministicAcrossWorkerCountsAndRepeats) {
  const graph::Dataset ds = make_test_dataset(50, 120, 43);
  const core::GnnJob job =
      core::GnnJob::two_layer(gnn::GnnModel::kAgnn, ds.spec, 8);
  const auto run = [&](unsigned jobs) {
    core::AuroraConfig cfg = small_config();
    cfg.fast_forward = true;
    cluster::ClusterParams params;
    params.num_chips = 3;
    params.parallel = true;
    params.parallel_jobs = jobs;
    cluster::ClusterEngine engine(cfg, params);
    return engine.run(ds, job);
  };
  const cluster::ClusterRunMetrics reference = run(1);
  for (const unsigned jobs : {1u, 2u, 5u}) {
    for (int rep = 0; rep < 2; ++rep) {
      const auto diffs =
          cluster::diff_cluster_run_metrics(reference, run(jobs));
      EXPECT_TRUE(diffs.empty())
          << jobs << " worker(s), rep " << rep << ": "
          << (diffs.empty() ? std::string() : diffs.front());
    }
  }
}

// -------------------------------------------------------------- scheduler

TEST(ClusterScheduler, DispatchModeNamesRoundTrip) {
  for (const cluster::DispatchMode mode :
       {cluster::DispatchMode::kDataParallel,
        cluster::DispatchMode::kShardParallel}) {
    EXPECT_EQ(cluster::dispatch_mode_by_name(cluster::dispatch_mode_name(mode),
                                             "mode"),
              mode);
  }
  // The CLI short forms (--mode=data|shard).
  EXPECT_EQ(cluster::dispatch_mode_by_name("data", "--mode"),
            cluster::DispatchMode::kDataParallel);
  EXPECT_EQ(cluster::dispatch_mode_by_name("shard", "--mode"),
            cluster::DispatchMode::kShardParallel);
  // Anything else throws, naming the source of the value.
  for (const char* bad : {"shardd", "parallel", ""}) {
    try {
      (void)cluster::dispatch_mode_by_name(bad, "--mode");
      FAIL() << "expected Error for " << bad;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--mode=") + bad),
                std::string::npos);
    }
  }
}

}  // namespace
}  // namespace aurora
