#include "noc/config.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/error.hpp"

namespace aurora::noc {
namespace {

void check_segment(const BypassSegment& s, std::uint32_t k,
                   const std::vector<BypassSegment>& existing) {
  AURORA_CHECK_MSG(k > 0, "NocConfig not initialised with a mesh size");
  AURORA_CHECK_MSG(s.line < k, "segment line out of range");
  AURORA_CHECK_MSG(s.from < s.to, "segment must span at least one tile");
  AURORA_CHECK_MSG(s.to < k, "segment end out of range");
  AURORA_CHECK_MSG(s.length() >= 2,
                   "length-1 segments duplicate the mesh link; not allowed");
  for (const auto& other : existing) {
    if (other.line != s.line) continue;
    const bool disjoint = s.to < other.from || other.to < s.from;
    AURORA_CHECK_MSG(disjoint, "bypass segments overlap on line " << s.line);
  }
}

}  // namespace

NocConfig::NodeOverlay& NocConfig::overlay_at(NodeId node) {
  if (overlay_.empty()) overlay_.resize(std::size_t{k_} * k_);
  return overlay_[node];
}

void NocConfig::add_row_segment(BypassSegment segment) {
  check_segment(segment, k_, row_segments_);
  // Segments on one wire share no endpoint, so each entry is set once.
  const auto index = static_cast<std::uint32_t>(row_segments_.size());
  overlay_at(to_node({segment.line, segment.from}, k_)).row_segment = index;
  overlay_at(to_node({segment.line, segment.to}, k_)).row_segment = index;
  row_segments_.push_back(segment);
  refresh_ring_routability();  // a new segment can make a ring routable
}

void NocConfig::add_col_segment(BypassSegment segment) {
  check_segment(segment, k_, col_segments_);
  const auto index = static_cast<std::uint32_t>(col_segments_.size());
  overlay_at(to_node({segment.from, segment.line}, k_)).col_segment = index;
  overlay_at(to_node({segment.to, segment.line}, k_)).col_segment = index;
  col_segments_.push_back(segment);
  refresh_ring_routability();
}

bool NocConfig::physically_linked(NodeId a, NodeId b) const {
  const Coord ca = to_coord(a, k_);
  const Coord cb = to_coord(b, k_);
  if (ca.row == cb.row) {
    const auto lo = std::min(ca.col, cb.col);
    const auto hi = std::max(ca.col, cb.col);
    if (hi - lo == 1) return true;
    const auto s = row_segment_at(ca.row, lo);
    if (s.has_value() && s->from == lo && s->to == hi) return true;
  }
  if (ca.col == cb.col) {
    const auto lo = std::min(ca.row, cb.row);
    const auto hi = std::max(ca.row, cb.row);
    if (hi - lo == 1) return true;
    const auto s = col_segment_at(ca.col, lo);
    if (s.has_value() && s->from == lo && s->to == hi) return true;
  }
  return false;
}

void NocConfig::add_ring(RingConfig ring) {
  AURORA_CHECK_MSG(ring.nodes.size() >= 2, "ring needs at least two nodes");
  for (std::size_t i = 0; i < ring.nodes.size(); ++i) {
    const NodeId n = ring.nodes[i];
    AURORA_CHECK_MSG(n < k_ * k_, "ring node out of range");
    AURORA_CHECK_MSG(!ring_of(n).has_value(),
                     "node " << n << " already belongs to a ring");
    // ring_successor resolves by first occurrence, so a node repeated
    // within one ring would short-circuit the traversal and livelock.
    for (std::size_t j = i + 1; j < ring.nodes.size(); ++j) {
      AURORA_CHECK_MSG(n != ring.nodes[j],
                       "node " << n << " appears twice in the ring");
    }
  }
  for (std::size_t i = 0; i < ring.nodes.size(); ++i) {
    const NodeId a = ring.nodes[i];
    const NodeId b = ring.nodes[(i + 1) % ring.nodes.size()];
    AURORA_CHECK_MSG(physically_linked(a, b),
                     "ring nodes " << a << " and " << b
                                   << " are not physically linked");
  }
  add_ring_unchecked(std::move(ring));
}

void NocConfig::add_ring_unchecked(RingConfig ring) {
  rings_.push_back(std::move(ring));
  index_ring(rings_.size() - 1);
  ring_routable_.push_back(
      compute_ring_routable(rings_.size() - 1) ? 1 : 0);
}

void NocConfig::index_ring(std::size_t i) {
  // Earlier rings, and earlier positions within this ring, keep the nodes
  // they list: membership resolves by first occurrence.
  const auto& nodes = rings_[i].nodes;
  for (std::size_t j = 0; j < nodes.size(); ++j) {
    if (nodes[j] >= std::size_t{k_} * k_) continue;
    NodeOverlay& entry = overlay_at(nodes[j]);
    if (entry.ring != kNone) continue;
    entry.ring = static_cast<std::uint32_t>(i);
    entry.successor = nodes[(j + 1) % nodes.size()];
  }
}

bool NocConfig::compute_ring_routable(std::size_t i) const {
  const auto& nodes = rings_[i].nodes;
  const std::size_t n = nodes.size();
  if (n < 2) return false;
  // First-occurrence membership must resolve uniquely to this ring: a node
  // repeated within the ring, or shadowed by an earlier ring, silently
  // reroutes the traversal through the wrong successor (livelock).
  for (std::size_t j = 0; j < n; ++j) {
    const NodeId node = nodes[j];
    if (node >= k_ * k_) return false;
    if (ring_of(node) != i) return false;
    for (std::size_t l = j + 1; l < n; ++l) {
      if (nodes[l] == node) return false;
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    if (!physically_linked(nodes[j], nodes[(j + 1) % n])) return false;
  }
  return true;
}

void NocConfig::refresh_ring_routability() {
  // A segment only adds links, so only an unroutable ring can change.
  for (std::size_t i = 0; i < rings_.size(); ++i) {
    if (ring_routable_[i] == 0) {
      ring_routable_[i] = compute_ring_routable(i) ? 1 : 0;
    }
  }
}

bool NocConfig::all_rings_routable() const {
  return std::all_of(ring_routable_.begin(), ring_routable_.end(),
                     [](std::uint8_t r) { return r != 0; });
}

std::optional<BypassSegment> NocConfig::row_segment_at(
    std::uint32_t row, std::uint32_t col) const {
  if (row >= k_ || col >= k_ || overlay_.empty()) return std::nullopt;
  const std::uint32_t index = overlay_[to_node({row, col}, k_)].row_segment;
  if (index == kNone) return std::nullopt;
  return row_segments_[index];
}

std::optional<BypassSegment> NocConfig::col_segment_at(
    std::uint32_t col, std::uint32_t row) const {
  if (row >= k_ || col >= k_ || overlay_.empty()) return std::nullopt;
  const std::uint32_t index = overlay_[to_node({row, col}, k_)].col_segment;
  if (index == kNone) return std::nullopt;
  return col_segments_[index];
}

std::optional<NocConfig::Membership> NocConfig::membership(
    NodeId node) const {
  if (node < overlay_.size()) {
    const NodeOverlay& entry = overlay_[node];
    if (entry.ring == kNone) return std::nullopt;
    return Membership{entry.ring, entry.successor};
  }
  // Outside the table: a node beyond the mesh, listed only by
  // add_ring_unchecked, or any node while no overlay exists.
  for (std::size_t i = 0; i < rings_.size(); ++i) {
    const auto& nodes = rings_[i].nodes;
    const auto it = std::find(nodes.begin(), nodes.end(), node);
    if (it == nodes.end()) continue;
    const auto idx = static_cast<std::size_t>(it - nodes.begin());
    return Membership{i, nodes[(idx + 1) % nodes.size()]};
  }
  return std::nullopt;
}

std::optional<std::size_t> NocConfig::ring_of(NodeId node) const {
  const auto found = membership(node);
  if (!found.has_value()) return std::nullopt;
  return found->ring;
}

NodeId NocConfig::ring_successor(NodeId node) const {
  const auto found = membership(node);
  AURORA_CHECK_MSG(found.has_value(), "node " << node << " not in any ring");
  return found->successor;
}

std::uint64_t NocConfig::total_switch_states() const {
  // Each active segment closes its interior link switches and opens the two
  // boundary ones (~length states); each ring node programs one mux.
  std::uint64_t states = 0;
  for (const auto& s : row_segments_) states += s.length() + 1;
  for (const auto& s : col_segments_) states += s.length() + 1;
  for (const auto& r : rings_) states += r.nodes.size();
  return states;
}

std::uint64_t NocConfig::switch_writes_between(const NocConfig& from,
                                               const NocConfig& to) {
  // Conservative estimate: tear down what is no longer present and program
  // what is new. Segments/rings present in both cost nothing.
  std::uint64_t writes = 0;
  auto segment_cost = [](const std::vector<BypassSegment>& a,
                         const std::vector<BypassSegment>& b) {
    std::uint64_t cost = 0;
    for (const auto& s : a) {
      if (std::find(b.begin(), b.end(), s) == b.end()) cost += s.length() + 1;
    }
    return cost;
  };
  writes += segment_cost(from.row_segments_, to.row_segments_);
  writes += segment_cost(to.row_segments_, from.row_segments_);
  writes += segment_cost(from.col_segments_, to.col_segments_);
  writes += segment_cost(to.col_segments_, from.col_segments_);
  auto ring_cost = [](const std::vector<RingConfig>& a,
                      const std::vector<RingConfig>& b) {
    std::uint64_t cost = 0;
    for (const auto& r : a) {
      if (std::find(b.begin(), b.end(), r) == b.end()) cost += r.nodes.size();
    }
    return cost;
  };
  writes += ring_cost(from.rings_, to.rings_);
  writes += ring_cost(to.rings_, from.rings_);
  return writes;
}

}  // namespace aurora::noc
