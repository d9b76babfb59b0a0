// Tests for the reconfigurable NoC: configuration validation, routing,
// flit-level delivery, bypass links, rings and flow control.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "noc/config.hpp"
#include "noc/network.hpp"
#include "noc/routing.hpp"
#include "sim/simulator.hpp"

namespace aurora::noc {
namespace {

// ------------------------------------------------------------ configuration

TEST(NocConfig, AcceptsDisjointSegments) {
  NocConfig c(8);
  c.add_row_segment({0, 0, 3});
  c.add_row_segment({0, 4, 7});
  c.add_row_segment({1, 0, 7});
  EXPECT_EQ(c.row_segments().size(), 3u);
}

TEST(NocConfig, RejectsOverlappingSegments) {
  NocConfig c(8);
  c.add_row_segment({0, 0, 4});
  EXPECT_THROW(c.add_row_segment({0, 3, 7}), Error);
  EXPECT_THROW(c.add_row_segment({0, 4, 6}), Error);  // shared endpoint
}

TEST(NocConfig, RejectsTrivialAndOutOfRangeSegments) {
  NocConfig c(8);
  EXPECT_THROW(c.add_row_segment({0, 3, 3}), Error);
  EXPECT_THROW(c.add_row_segment({0, 3, 4}), Error);  // length 1
  EXPECT_THROW(c.add_row_segment({0, 5, 9}), Error);
  EXPECT_THROW(c.add_row_segment({9, 0, 3}), Error);
}

TEST(NocConfig, SegmentLookupAtEndpointsOnly) {
  NocConfig c(8);
  c.add_row_segment({2, 1, 6});
  EXPECT_TRUE(c.row_segment_at(2, 1).has_value());
  EXPECT_TRUE(c.row_segment_at(2, 6).has_value());
  EXPECT_FALSE(c.row_segment_at(2, 3).has_value());  // interior
  EXPECT_FALSE(c.row_segment_at(3, 1).has_value());  // other row
}

TEST(NocConfig, RingRequiresPhysicalLinks) {
  NocConfig c(4);
  // 2x2 block of mesh-adjacent nodes: 0,1,5,4.
  c.add_ring({{0, 1, 5, 4}});
  EXPECT_EQ(c.ring_successor(0), 1u);
  EXPECT_EQ(c.ring_successor(4), 0u);
  // Non-adjacent jump is rejected.
  NocConfig bad(4);
  EXPECT_THROW(bad.add_ring({{0, 2, 10, 8}}), Error);
}

TEST(NocConfig, RingMayUseBypassAsWrapLink) {
  NocConfig c(8);
  c.add_row_segment({0, 0, 7});
  // Row 0 left-to-right with the bypass wrapping 7 -> 0.
  RingConfig ring;
  for (NodeId i = 0; i < 8; ++i) ring.nodes.push_back(i);
  c.add_ring(ring);
  EXPECT_EQ(c.ring_successor(7), 0u);
}

TEST(NocConfig, NodeInTwoRingsRejected) {
  NocConfig c(4);
  c.add_ring({{0, 1}});
  EXPECT_THROW(c.add_ring({{1, 2}}), Error);
}

TEST(NocConfig, RingDuplicateNodeRejected) {
  // Regression: ring_of/ring_successor resolve by first occurrence, so a
  // node appearing twice short-circuits the traversal and livelocks flits
  // circulating the ring. Every consecutive hop here is physically linked
  // (the column segment joins 1 and 7), so only a duplicate check can
  // reject it.
  NocConfig c(3);
  c.add_col_segment({1, 0, 2});
  EXPECT_THROW(c.add_ring({{7, 4, 1, 7, 6}}), Error);
}

TEST(NocConfig, RingWrapWithoutSegmentIsUnroutableAndFallsBackToMesh) {
  // Regression: a full-row ring whose wrap column has no bypass segment
  // used to send route_output down the ring branch, and resolve_hop then
  // threw on the wrap hop (bypass port with no segment endpoint). Such a
  // ring is now flagged unroutable and ignored by routing.
  NocConfig c(4);
  RingConfig ring;
  for (NodeId i = 0; i < 4; ++i) ring.nodes.push_back(i);  // row 0, no wrap
  c.add_ring_unchecked(ring);
  ASSERT_EQ(c.rings().size(), 1u);
  EXPECT_FALSE(c.ring_routable(0));
  EXPECT_FALSE(c.all_rings_routable());
  // Plain dimension-order routing takes over for traffic between members.
  EXPECT_EQ(route_output(3, 0, c), Port::kWest);
  EXPECT_EQ(path_hops(3, 0, c), 3u);
}

TEST(NocConfig, LaterWrapSegmentMakesRingRoutable) {
  // Routability is cached per ring; a segment added after the ring can
  // supply its missing wrap link, while a ring that shadows an earlier
  // one's node stays unroutable whatever links appear.
  NocConfig c(4);
  RingConfig row0;
  for (NodeId i = 0; i < 4; ++i) row0.nodes.push_back(i);
  c.add_ring_unchecked(row0);
  c.add_ring_unchecked({{3, 7}});  // 3 already belongs to the first ring
  EXPECT_FALSE(c.ring_routable(0));
  c.add_row_segment({0, 0, 3});
  EXPECT_TRUE(c.ring_routable(0));
  EXPECT_FALSE(c.ring_routable(1));
  EXPECT_EQ(route_output(3, 0, c), Port::kBypassRow);
}

TEST(NocConfig, RoutableRingReportsRoutable) {
  NocConfig c(4);
  c.add_ring({{0, 1, 5, 4}});
  EXPECT_TRUE(c.ring_routable(0));
  EXPECT_TRUE(c.all_rings_routable());
}

TEST(Network, ConfigureRejectsUnroutableRing) {
  NocParams p;
  p.k = 4;
  Network net(p);
  NocConfig c(4);
  RingConfig ring;
  for (NodeId i = 0; i < 4; ++i) ring.nodes.push_back(i);
  c.add_ring_unchecked(ring);
  EXPECT_THROW(net.configure(c), Error);
}

// The per-node ring and segment tables must answer exactly as the linear
// scans they replaced, kept here as the reference: first occurrence across
// and within rings, and answers for out-of-range nodes, lines and endpoints.
std::optional<std::size_t> scan_ring_of(const NocConfig& c, NodeId node) {
  for (std::size_t i = 0; i < c.rings().size(); ++i) {
    const auto& nodes = c.rings()[i].nodes;
    if (std::find(nodes.begin(), nodes.end(), node) != nodes.end()) return i;
  }
  return std::nullopt;
}

std::optional<NodeId> scan_ring_successor(const NocConfig& c, NodeId node) {
  const auto ring = scan_ring_of(c, node);
  if (!ring.has_value()) return std::nullopt;
  const auto& nodes = c.rings()[*ring].nodes;
  const auto idx = static_cast<std::size_t>(
      std::find(nodes.begin(), nodes.end(), node) - nodes.begin());
  return nodes[(idx + 1) % nodes.size()];
}

std::optional<BypassSegment> scan_segment_at(
    const std::vector<BypassSegment>& segments, std::uint32_t line,
    std::uint32_t endpoint) {
  for (const auto& s : segments) {
    if (s.line == line && (s.from == endpoint || s.to == endpoint)) return s;
  }
  return std::nullopt;
}

void expect_tables_match_scans(const NocConfig& c) {
  std::vector<NodeId> probes;
  for (NodeId n = 0; n < c.k() * c.k() + 4; ++n) probes.push_back(n);
  for (const auto& ring : c.rings()) {
    probes.insert(probes.end(), ring.nodes.begin(), ring.nodes.end());
  }
  for (const NodeId node : probes) {
    EXPECT_EQ(c.ring_of(node), scan_ring_of(c, node)) << "node " << node;
    const auto succ = scan_ring_successor(c, node);
    if (succ.has_value()) {
      EXPECT_EQ(c.ring_successor(node), *succ) << "node " << node;
    } else {
      EXPECT_THROW((void)c.ring_successor(node), Error) << "node " << node;
    }
  }
  for (std::uint32_t line = 0; line < c.k() + 2; ++line) {
    for (std::uint32_t end = 0; end < c.k() + 2; ++end) {
      EXPECT_TRUE(c.row_segment_at(line, end) ==
                  scan_segment_at(c.row_segments(), line, end))
          << "row " << line << " col " << end;
      EXPECT_TRUE(c.col_segment_at(line, end) ==
                  scan_segment_at(c.col_segments(), line, end))
          << "col " << line << " row " << end;
    }
  }
}

TEST(NocConfig, TablesMatchLinearScansOnRandomConfigs) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const auto k = static_cast<std::uint32_t>(3 + rng.next_below(7));
    NocConfig c(k);
    for (int step = 0; step < 12; ++step) {
      const std::uint32_t line = static_cast<std::uint32_t>(rng.next_below(k));
      const std::uint32_t a = static_cast<std::uint32_t>(rng.next_below(k));
      const std::uint32_t b = static_cast<std::uint32_t>(rng.next_below(k));
      const NodeId r = static_cast<NodeId>(rng.next_below(k - 1));
      const NodeId col = static_cast<NodeId>(rng.next_below(k - 1));
      // Overlapping segments and rings over taken nodes are rejected;
      // the tables must be unchanged by a rejected addition.
      try {
        switch (rng.next_below(3)) {
          case 0:
            c.add_row_segment({line, std::min(a, b), std::max(a, b)});
            break;
          case 1:
            c.add_col_segment({line, std::min(a, b), std::max(a, b)});
            break;
          default:
            c.add_ring({{r * k + col, r * k + col + 1, (r + 1) * k + col + 1,
                         (r + 1) * k + col}});
            break;
        }
      } catch (const Error&) {
      }
      expect_tables_match_scans(c);
    }
  }
}

TEST(NocConfig, TablesMatchLinearScansOnUncheckedRings) {
  NocConfig c(4);
  c.add_ring({{0, 1, 5, 4}});
  c.add_ring_unchecked({{5, 6, 10, 9}});    // 5 shadowed by the first ring
  c.add_ring_unchecked({{9, 13, 9, 14}});   // 9 shadowed, then repeated
  c.add_ring_unchecked({{2, 100, 3, 100}});  // out-of-range member, twice
  c.add_ring_unchecked({{100, 7}});          // out-of-range, shadowed
  c.add_ring_unchecked({{12}});
  c.add_ring_unchecked({});
  c.add_row_segment({3, 0, 3});
  c.add_col_segment({3, 0, 2});
  expect_tables_match_scans(c);
  EXPECT_EQ(c.ring_of(5), std::optional<std::size_t>(0));
  EXPECT_EQ(c.ring_successor(9), 5u);
  EXPECT_EQ(c.ring_successor(100), 3u);
  EXPECT_EQ(c.ring_successor(12), 12u);

  // A configuration without a mesh size holds only out-of-range nodes.
  NocConfig unsized;
  unsized.add_ring_unchecked({{3, 1, 3}});
  unsized.add_ring_unchecked({{1, 2}});
  expect_tables_match_scans(unsized);
  EXPECT_EQ(unsized.ring_of(1), std::optional<std::size_t>(0));
  EXPECT_EQ(unsized.ring_successor(3), 1u);
}

TEST(NocConfig, SwitchWriteDelta) {
  NocConfig a(8), b(8);
  a.add_row_segment({0, 0, 7});  // 8 switch states
  b.add_row_segment({0, 0, 7});
  EXPECT_EQ(NocConfig::switch_writes_between(a, b), 0u);
  b.add_col_segment({1, 0, 3});  // length 3 -> 3+1 switch states
  EXPECT_EQ(NocConfig::switch_writes_between(a, b), 4u);
  EXPECT_EQ(NocConfig::switch_writes_between(b, a), 4u);  // symmetric teardown
}

// ------------------------------------------------------------------ routing

TEST(Routing, XyOrderColumnFirst) {
  const NocConfig c(4);
  // node (0,0) -> (3,3): move east until column matches, then south.
  EXPECT_EQ(route_output(to_node({0, 0}, 4), to_node({3, 3}, 4), c),
            Port::kEast);
  EXPECT_EQ(route_output(to_node({0, 3}, 4), to_node({3, 3}, 4), c),
            Port::kSouth);
  EXPECT_EQ(route_output(to_node({3, 3}, 4), to_node({3, 3}, 4), c),
            Port::kLocal);
  EXPECT_EQ(route_output(to_node({2, 2}, 4), to_node({2, 0}, 4), c),
            Port::kWest);
  EXPECT_EQ(route_output(to_node({2, 2}, 4), to_node({0, 2}, 4), c),
            Port::kNorth);
}

TEST(Routing, MeshHopsAreManhattanDistance) {
  const NocConfig c(8);
  EXPECT_EQ(path_hops(to_node({0, 0}, 8), to_node({7, 7}, 8), c), 14u);
  EXPECT_EQ(path_hops(to_node({3, 4}, 8), to_node({3, 4}, 8), c), 0u);
  EXPECT_EQ(path_hops(to_node({2, 1}, 8), to_node({2, 2}, 8), c), 1u);
}

TEST(Routing, BypassShortensLongRowTrips) {
  NocConfig c(8);
  c.add_row_segment({0, 0, 7});
  // (0,0) -> (0,7): one bypass hop instead of 7 mesh hops.
  EXPECT_EQ(route_output(to_node({0, 0}, 8), to_node({0, 7}, 8), c),
            Port::kBypassRow);
  EXPECT_EQ(path_hops(to_node({0, 0}, 8), to_node({0, 7}, 8), c), 1u);
  // Other rows are unaffected.
  EXPECT_EQ(path_hops(to_node({1, 0}, 8), to_node({1, 7}, 8), c), 7u);
}

TEST(Routing, BypassNotTakenWhenItOvershoots) {
  NocConfig c(8);
  c.add_row_segment({0, 0, 7});
  // (0,0) -> (0,3): the segment jumps to column 7, overshooting; use mesh.
  EXPECT_EQ(route_output(to_node({0, 0}, 8), to_node({0, 3}, 8), c),
            Port::kEast);
  EXPECT_EQ(path_hops(to_node({0, 0}, 8), to_node({0, 3}, 8), c), 3u);
}

TEST(Routing, ColumnBypassAfterXCorrection) {
  NocConfig c(8);
  c.add_col_segment({5, 0, 7});
  // (0,0) -> (7,5): east to column 5, then a single column-bypass hop.
  EXPECT_EQ(path_hops(to_node({0, 0}, 8), to_node({7, 5}, 8), c), 6u);
}

TEST(Routing, MidpointSegmentUsedFromItsEndpoint) {
  NocConfig c(8);
  c.add_row_segment({2, 2, 6});
  // (2,0) -> (2,6): two mesh hops to the endpoint at column 2, then bypass.
  EXPECT_EQ(path_hops(to_node({2, 0}, 8), to_node({2, 6}, 8), c), 3u);
}

TEST(Routing, RingOverrideFollowsSuccessor) {
  NocConfig c(4);
  c.add_ring({{0, 1, 5, 4}});
  // 4 -> 1 inside the ring goes through successor 0, not directly east.
  EXPECT_EQ(route_output(4, 1, c), Port::kNorth);  // 4 -> 0 is row 1 -> row 0
  EXPECT_EQ(path_hops(4, 1, c), 2u);               // 4 -> 0 -> 1
}

TEST(Routing, ResolveHopBypassLength) {
  NocConfig c(8);
  c.add_row_segment({0, 1, 6});
  const Hop hop = resolve_hop(to_node({0, 1}, 8), Port::kBypassRow, c);
  EXPECT_EQ(hop.next_node, to_node({0, 6}, 8));
  EXPECT_EQ(hop.length, 5u);
  EXPECT_TRUE(hop.via_bypass);
}

TEST(Routing, ResolveHopThrowsWithoutSegment) {
  const NocConfig c(8);
  EXPECT_THROW((void)resolve_hop(0, Port::kBypassRow, c), Error);
}

// ------------------------------------------------------------------ network

struct NetHarness {
  explicit NetHarness(NocParams p = {}) : net(p) { s.add(&net); }

  /// Send and run to drain; returns (arrival cycle, packet) of last delivery.
  void run(Cycle max_cycles = 200000) { s.run_until_idle(max_cycles); }

  sim::Simulator s;
  Network net;
};

TEST(Network, DeliversSinglePacket) {
  NetHarness h;
  std::uint64_t delivered_tag = 0;
  Cycle arrival = 0;
  h.net.set_delivery_callback([&](const Packet& p, Cycle at) {
    delivered_tag = p.tag;
    arrival = at;
  });
  h.net.send(0, 63, 256, /*tag=*/42, h.s.now());
  h.run();
  EXPECT_EQ(delivered_tag, 42u);
  EXPECT_GT(arrival, 0u);
  EXPECT_EQ(h.net.stats().packets_delivered, 1u);
  // 256 B / 32 B = 8 flits.
  EXPECT_EQ(h.net.stats().packet_hops.count(), 1u);
  EXPECT_DOUBLE_EQ(h.net.stats().packet_hops.mean(), 14.0);
}

TEST(Network, ZeroByteMessageStillOneFlit) {
  NetHarness h;
  h.net.send(0, 1, 0, 0, h.s.now());
  h.run();
  EXPECT_EQ(h.net.stats().packets_delivered, 1u);
  EXPECT_EQ(h.net.stats().flit_hops, 1u);
}

TEST(Network, LocalDeliveryWithoutHops) {
  NetHarness h;
  h.net.send(5, 5, 128, 9, h.s.now());
  h.run();
  EXPECT_EQ(h.net.stats().packets_delivered, 1u);
  EXPECT_DOUBLE_EQ(h.net.stats().packet_hops.mean(), 0.0);
}

TEST(Network, AllPairsDeliveryOnSmallMesh) {
  NocParams p;
  p.k = 4;
  NetHarness h(p);
  std::map<std::uint64_t, bool> seen;
  h.net.set_delivery_callback(
      [&](const Packet& pkt, Cycle) { seen[pkt.tag] = true; });
  std::uint64_t tag = 0;
  for (NodeId s = 0; s < 16; ++s) {
    for (NodeId d = 0; d < 16; ++d) {
      h.net.send(s, d, 64, tag++, h.s.now());
    }
  }
  h.run(1'000'000);
  EXPECT_EQ(seen.size(), 256u);
  EXPECT_EQ(h.net.stats().packets_delivered, 256u);
}

TEST(Network, WormholeKeepsPacketsContiguous) {
  // Two long packets crossing the same column must not interleave flits —
  // verified indirectly: both arrive complete (eject asserts tail-last).
  NetHarness h;
  h.net.send(0, 56, 1024, 1, h.s.now());   // (0,0) -> (7,0)
  h.net.send(7, 63, 1024, 2, h.s.now());   // (0,7) -> (7,7)
  h.net.send(3, 59, 1024, 3, h.s.now());   // crossing traffic
  h.run();
  EXPECT_EQ(h.net.stats().packets_delivered, 3u);
}

TEST(Network, BypassReducesLatencyForLongTrips) {
  NocParams p;
  p.k = 16;
  // Plain mesh.
  NetHarness plain(p);
  plain.net.send(0, 15, 512, 0, 0);
  plain.run();
  const double mesh_latency = plain.net.stats().packet_latency.mean();

  // Same trip with a full-row bypass.
  NetHarness fast(p);
  NocConfig cfg(16);
  cfg.add_row_segment({0, 0, 15});
  fast.net.configure(cfg);
  fast.net.send(0, 15, 512, 0, 0);
  fast.run();
  const double bypass_latency = fast.net.stats().packet_latency.mean();
  EXPECT_LT(bypass_latency, 0.5 * mesh_latency);
  EXPECT_GT(fast.net.stats().bypass_flit_hops, 0u);
}

TEST(Network, HotspotContentionSlowsDelivery) {
  // Many senders to one sink: average latency far above the uncontended
  // trip time, demonstrating modeled contention.
  NocParams p;
  p.k = 4;
  NetHarness h(p);
  for (NodeId s = 1; s < 16; ++s) h.net.send(s, 0, 512, s, 0);
  h.run(1'000'000);
  EXPECT_EQ(h.net.stats().packets_delivered, 15u);
  // Uncontended worst trip on a 4x4 is ~6 hops * ~3 cycles + 16 flits.
  EXPECT_GT(h.net.stats().packet_latency.max(),
            2.0 * h.net.stats().packet_latency.min());
}

TEST(Network, ConfigureRequiresDrainedNetwork) {
  NetHarness h;
  h.net.send(0, 9, 64, 0, 0);
  NocConfig cfg(8);
  EXPECT_THROW(h.net.configure(cfg), Error);
  h.run();
  EXPECT_NO_THROW(h.net.configure(cfg));
}

TEST(Network, ConfigureReportsSwitchWrites) {
  NetHarness h;
  NocConfig cfg(8);
  cfg.add_row_segment({0, 0, 7});  // 7+1 states
  EXPECT_EQ(h.net.configure(cfg), 8u);
  // Reapplying the same config writes nothing.
  NocConfig same(8);
  same.add_row_segment({0, 0, 7});
  EXPECT_EQ(h.net.configure(same), 0u);
}

TEST(Network, RingTrafficCirculates) {
  NocParams p;
  p.k = 4;
  NetHarness h(p);
  NocConfig cfg(4);
  cfg.add_ring({{0, 1, 5, 4}});
  h.net.configure(cfg);
  // 5 -> 1 must go 5 -> 4 -> 0 -> 1 (3 hops), not 1 mesh hop.
  h.net.send(5, 1, 32, 0, 0);
  h.run();
  EXPECT_DOUBLE_EQ(h.net.stats().packet_hops.mean(), 3.0);
}

TEST(Network, StatsCountFlitHops) {
  NetHarness h;
  h.net.send(0, 3, 96, 0, 0);  // 3 flits, 3 hops
  h.run();
  EXPECT_EQ(h.net.stats().flit_hops, 9u);
  EXPECT_EQ(h.net.stats().link_bytes, 9u * 32);
}

TEST(Network, DeterministicUnderFixedWorkload) {
  auto run_once = [] {
    NetHarness h;
    Rng rng(5);
    for (int i = 0; i < 200; ++i) {
      const auto s = static_cast<NodeId>(rng.next_below(64));
      const auto d = static_cast<NodeId>(rng.next_below(64));
      h.net.send(s, d, 32 + 32 * rng.next_below(8), i, 0);
    }
    h.run(1'000'000);
    return h.net.stats().packet_latency.mean();
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}


TEST(Network, MultipleVcsInterleavePackets) {
  // Two long packets sharing every link still both arrive; with 2 VCs the
  // second is not fully serialized behind the first.
  NocParams p;
  p.k = 8;
  p.num_vcs = 2;
  NetHarness h(p);
  Cycle first = 0, second = 0;
  h.net.set_delivery_callback([&](const Packet&, Cycle at) {
    (first == 0 ? first : second) = at;
  });
  h.net.send(0, 7, 2048, 1, 0);
  h.net.send(0, 7, 2048, 2, 0);
  h.run();
  EXPECT_EQ(h.net.stats().packets_delivered, 2u);
  // With a single VC the second packet waits for the whole first; with two
  // VCs they share link bandwidth and finish close together.
  NocParams p1 = p;
  p1.num_vcs = 1;
  NetHarness h1(p1);
  Cycle s1_first = 0, s1_second = 0;
  h1.net.set_delivery_callback([&](const Packet&, Cycle at) {
    (s1_first == 0 ? s1_first : s1_second) = at;
  });
  h1.net.send(0, 7, 2048, 1, 0);
  h1.net.send(0, 7, 2048, 2, 0);
  h1.run();
  const Cycle vc2_gap = second > first ? second - first : first - second;
  const Cycle vc1_gap =
      s1_second > s1_first ? s1_second - s1_first : s1_first - s1_second;
  EXPECT_LT(vc2_gap, vc1_gap);
}

TEST(Network, SingleVcStillWorks) {
  NocParams p;
  p.num_vcs = 1;
  NetHarness h(p);
  for (int i = 0; i < 50; ++i) {
    h.net.send(static_cast<NodeId>(i % 64),
               static_cast<NodeId>((i * 13) % 64), 96, i, 0);
  }
  h.run();
  EXPECT_EQ(h.net.stats().packets_delivered, 50u);
}

TEST(Network, RejectsTooManyVcs) {
  NocParams p;
  p.num_vcs = 9;
  EXPECT_THROW(Network bad(p), Error);
}

TEST(Network, VcsDeterministic) {
  auto run_once = [] {
    NocParams p;
    p.num_vcs = 4;
    NetHarness h(p);
    Rng rng(17);
    for (int i = 0; i < 300; ++i) {
      h.net.send(static_cast<NodeId>(rng.next_below(64)),
                 static_cast<NodeId>(rng.next_below(64)),
                 32 + 32 * rng.next_below(6), i, 0);
    }
    h.run(1'000'000);
    return h.net.stats().packet_latency.mean();
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

// Arbitration pin: seeded mixed traffic (uniform, long bypass trips and
// traffic within two rings, one of which wraps over a row bypass segment),
// injected over 400 cycles so packets contend for outputs, credits and
// wormhole locks. The checksum folds every delivered packet's (id, arrival
// cycle, hops) in delivery order; the pinned values come from the original
// lane-by-lane switch allocator, so any change to arbitration order,
// credits, locks or delays moves them.
std::uint64_t arbitration_checksum(RoutingPolicy policy,
                                   std::uint32_t num_vcs) {
  NocParams p;
  p.k = 8;
  p.num_vcs = num_vcs;
  NetHarness h(p);
  NocConfig cfg(8);
  cfg.set_routing(policy);
  cfg.add_row_segment({1, 0, 5});
  cfg.add_row_segment({5, 2, 7});
  cfg.add_row_segment({7, 0, 3});  // the row-7 ring's wrap link
  cfg.add_col_segment({2, 0, 6});
  cfg.add_col_segment({6, 3, 7});
  const std::vector<NodeId> block = {27, 28, 36, 35};
  const std::vector<NodeId> row7 = {56, 57, 58, 59};
  cfg.add_ring({block});
  cfg.add_ring({row7});
  h.net.configure(cfg);

  std::uint64_t checksum = 0xcbf29ce484222325ull;  // FNV-1a, 64 bit
  auto fold = [&checksum](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      checksum ^= (v >> (8 * i)) & 0xffu;
      checksum *= 0x100000001b3ull;
    }
  };
  double hop_sum = 0;
  std::uint64_t delivered = 0;
  h.net.set_delivery_callback([&](const Packet& pkt, Cycle at) {
    const std::uint32_t hops = path_hops(pkt.src, pkt.dst, cfg);
    fold(pkt.id);
    fold(at);
    fold(hops);
    hop_sum += hops;
    ++delivered;
  });

  Rng rng(2024);
  std::uint64_t sent = 0;
  for (Cycle cycle = 0; cycle < 400; ++cycle) {
    const std::uint64_t sends = rng.next_below(4);
    for (std::uint64_t i = 0; i < sends; ++i) {
      NodeId src = static_cast<NodeId>(rng.next_below(64));
      NodeId dst = 0;
      const std::uint64_t kind = rng.next_below(4);
      if (kind == 0) {
        // One ring hop to the successor (the vertex-update rotation). Longer
        // ring trips, or mesh traffic into a ring member, can close a cycle
        // of channel dependencies and deadlock under this load.
        const auto& ring = rng.next_bool(0.5) ? block : row7;
        const std::size_t at = rng.next_below(ring.size());
        src = ring[at];
        dst = ring[(at + 1) % ring.size()];
      } else {
        const auto in_ring = [&](NodeId n) {
          return std::find(block.begin(), block.end(), n) != block.end() ||
                 std::find(row7.begin(), row7.end(), n) != row7.end();
        };
        do {
          // kind 1 crosses a row, over its bypass segment where one helps.
          dst = kind == 1
                    ? (src / 8) * 8 + static_cast<NodeId>(rng.next_below(8))
                    : static_cast<NodeId>(rng.next_below(64));
        } while (in_ring(dst));
      }
      const Bytes bytes = 32 * (1 + rng.next_below(12));
      h.net.send(src, dst, bytes, sent++, h.s.now());
    }
    h.s.step();
  }
  h.run(1'000'000);
  EXPECT_EQ(delivered, sent);
  EXPECT_DOUBLE_EQ(h.net.stats().packet_hops.sum(), hop_sum);
  fold(h.net.stats().flit_hops);
  fold(h.net.stats().bypass_flit_hops);
  fold(h.net.stats().busy_cycles);
  return checksum;
}

TEST(Network, ArbitrationPinnedUnderMixedTraffic) {
  struct Pin {
    RoutingPolicy policy;
    std::uint32_t num_vcs;
    std::uint64_t checksum;
  };
  const Pin pins[] = {
      {RoutingPolicy::kXYFirst, 1, 0x6aa81f357f92fe57ull},
      {RoutingPolicy::kXYFirst, 2, 0x6cc788f046b3fe5aull},
      {RoutingPolicy::kXYFirst, 4, 0x9e09b685138a99c1ull},
      {RoutingPolicy::kYXFirst, 1, 0x944ab176957976d0ull},
      {RoutingPolicy::kYXFirst, 2, 0xb6c53ccc30f5bcebull},
      {RoutingPolicy::kYXFirst, 4, 0x71214a340c1629a1ull},
  };
  for (const Pin& pin : pins) {
    const std::uint64_t got = arbitration_checksum(pin.policy, pin.num_vcs);
    EXPECT_EQ(got, pin.checksum)
        << (pin.policy == RoutingPolicy::kXYFirst ? "XY" : "YX") << " vcs "
        << pin.num_vcs << ": 0x" << std::hex << got;
  }
}


TEST(Routing, YxPolicyCorrectsRowsFirst) {
  NocConfig xy(4);
  NocConfig yx(4);
  yx.set_routing(RoutingPolicy::kYXFirst);
  const NodeId src = to_node({0, 0}, 4);
  const NodeId dst = to_node({3, 3}, 4);
  EXPECT_EQ(route_output(src, dst, xy), Port::kEast);
  EXPECT_EQ(route_output(src, dst, yx), Port::kSouth);
  // Same hop count, different path.
  EXPECT_EQ(path_hops(src, dst, xy), path_hops(src, dst, yx));
}

TEST(Network, YxPolicyDeliversEverything) {
  NocParams p;
  p.k = 4;
  NetHarness h(p);
  NocConfig cfg(4);
  cfg.set_routing(RoutingPolicy::kYXFirst);
  h.net.configure(cfg);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    h.net.send(static_cast<NodeId>(rng.next_below(16)),
               static_cast<NodeId>(rng.next_below(16)), 96, i, 0);
  }
  h.run(1'000'000);
  EXPECT_EQ(h.net.stats().packets_delivered, 200u);
}

}  // namespace
}  // namespace aurora::noc
