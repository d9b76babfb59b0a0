// NoC configuration: mesh parameters, bypass-link segmentation and ring
// overlays (paper Sec III-B/III-C, Fig 2).
//
// The physical substrate is a K x K mesh plus ONE bi-directional bypass wire
// per row and per column. Link switches cut each bypass wire into disjoint
// segments; an active segment [a, b] attaches to the routers at columns
// (rows) a and b and lets a flit cross the span in a single traversal.
// Rings overlay the mesh for the weight-stationary vertex-update dataflow:
// consecutive ring nodes must be physically linked (mesh-adjacent or the two
// endpoints of an active bypass segment).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "noc/types.hpp"

namespace aurora::noc {

/// One active bypass segment on a row's (or column's) bypass wire.
/// `line` is the row index for row segments / column index for column
/// segments; the segment spans [from, to] with to > from.
struct BypassSegment {
  std::uint32_t line = 0;
  std::uint32_t from = 0;
  std::uint32_t to = 0;

  [[nodiscard]] std::uint32_t length() const { return to - from; }
  friend bool operator==(const BypassSegment&, const BypassSegment&) = default;
};

/// A unidirectional ring overlay: nodes in traversal order. Flits between
/// ring members travel successor-to-successor (weight-stationary rotation).
struct RingConfig {
  std::vector<NodeId> nodes;

  friend bool operator==(const RingConfig&, const RingConfig&) = default;
};

/// Dimension-order variant. The reconfigurable routers support either
/// order; alternating it between phases spreads link load across the two
/// dimensions.
enum class RoutingPolicy : std::uint8_t {
  kXYFirst,  // correct columns, then rows (default)
  kYXFirst,  // correct rows, then columns
};

/// Full NoC configuration (what the paper's "NoC configuration unit" emits).
class NocConfig {
 public:
  NocConfig() = default;
  explicit NocConfig(std::uint32_t k) : k_(k) {}

  [[nodiscard]] std::uint32_t k() const { return k_; }

  void set_routing(RoutingPolicy policy) { routing_ = policy; }
  [[nodiscard]] RoutingPolicy routing() const { return routing_; }

  /// Add an active segment on row `line`'s bypass wire. Throws if it
  /// overlaps an existing segment on the same wire (including endpoints:
  /// each router has a single bypass port per direction).
  void add_row_segment(BypassSegment segment);
  void add_col_segment(BypassSegment segment);

  /// Add a ring overlay. Adjacency of consecutive nodes is validated against
  /// the mesh + active segments, and nodes may appear at most once across
  /// all rings (ring_successor resolves by first occurrence, so a duplicate
  /// silently reroutes — and can livelock — the later ring).
  void add_ring(RingConfig ring);

  /// Add a ring without any validation (testing/fuzzing hook for exercising
  /// the routability checks downstream). Network::configure rejects
  /// configurations whose rings are not routable; route_output ignores
  /// unroutable rings and falls back to dimension-order routing.
  void add_ring_unchecked(RingConfig ring);

  [[nodiscard]] const std::vector<BypassSegment>& row_segments() const {
    return row_segments_;
  }
  [[nodiscard]] const std::vector<BypassSegment>& col_segments() const {
    return col_segments_;
  }
  [[nodiscard]] const std::vector<RingConfig>& rings() const { return rings_; }

  /// Segment on `row`'s wire with one endpoint at `col`, if any. O(1).
  [[nodiscard]] std::optional<BypassSegment> row_segment_at(
      std::uint32_t row, std::uint32_t col) const;
  /// Segment on `col`'s wire with one endpoint at `row`, if any. O(1).
  [[nodiscard]] std::optional<BypassSegment> col_segment_at(
      std::uint32_t col, std::uint32_t row) const;

  /// Ring membership: index of the first ring listing `node`, or nullopt.
  /// O(1) for mesh nodes.
  [[nodiscard]] std::optional<std::size_t> ring_of(NodeId node) const;
  /// Successor of `node`'s first occurrence in its ring (node must be a
  /// ring member). O(1) for mesh nodes.
  [[nodiscard]] NodeId ring_successor(NodeId node) const;

  /// True when ring `i` can actually carry circulating traffic: every node
  /// in range and claimed by this ring (no duplicate membership), and every
  /// consecutive pair — including the wrap-around — mesh-adjacent or the
  /// two endpoints of an active bypass segment (i.e. resolvable by
  /// resolve_hop). Rings added through add_ring() are routable by
  /// construction; add_ring_unchecked() may produce unroutable ones.
  [[nodiscard]] bool ring_routable(std::size_t i) const {
    return ring_routable_.at(i) != 0;
  }
  [[nodiscard]] bool all_rings_routable() const;

  /// Number of link-switch/mux state bits that differ between two
  /// configurations — the paper's reconfiguration energy driver.
  [[nodiscard]] static std::uint64_t switch_writes_between(
      const NocConfig& from, const NocConfig& to);

  /// Total switch state used by this configuration.
  [[nodiscard]] std::uint64_t total_switch_states() const;

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  /// What the overlays attach to one mesh node.
  struct NodeOverlay {
    std::uint32_t ring = kNone;  // first ring listing the node
    NodeId successor = 0;        // after its first occurrence there
    std::uint32_t row_segment = kNone;  // row_segments_ index
    std::uint32_t col_segment = kNone;  // col_segments_ index
  };
  struct Membership {
    std::size_t ring = 0;
    NodeId successor = 0;
  };

  [[nodiscard]] std::optional<Membership> membership(NodeId node) const;
  /// The overlay entry of mesh node `node`, creating the table on first use.
  NodeOverlay& overlay_at(NodeId node);
  void index_ring(std::size_t i);
  [[nodiscard]] bool physically_linked(NodeId a, NodeId b) const;
  [[nodiscard]] bool compute_ring_routable(std::size_t i) const;
  void refresh_ring_routability();

  std::uint32_t k_ = 0;
  RoutingPolicy routing_ = RoutingPolicy::kXYFirst;
  std::vector<BypassSegment> row_segments_;
  std::vector<BypassSegment> col_segments_;
  std::vector<RingConfig> rings_;
  /// Per mesh node, filled as rings and segments are added, so routing
  /// lookups are O(1). Empty until the first overlay is added; ring
  /// members outside the mesh (add_ring_unchecked) are found by a scan.
  std::vector<NodeOverlay> overlay_;
  /// Cached routability per ring (parallel to rings_), refreshed whenever a
  /// ring or segment is added, so the per-flit routing check is O(1).
  std::vector<std::uint8_t> ring_routable_;
};

}  // namespace aurora::noc
