// Basic NoC data types: node coordinates, ports and packets.
#pragma once

#include <cstdint>
#include <functional>

#include "common/types.hpp"

namespace aurora::noc {

/// Node id = row * K + col in a K x K mesh.
using NodeId = std::uint32_t;

struct Coord {
  std::uint32_t row = 0;
  std::uint32_t col = 0;

  friend bool operator==(const Coord&, const Coord&) = default;
};

[[nodiscard]] constexpr NodeId to_node(Coord c, std::uint32_t k) {
  return c.row * k + c.col;
}
[[nodiscard]] constexpr Coord to_coord(NodeId id, std::uint32_t k) {
  return {id / k, id % k};
}

/// Router port indices. The two bypass ports attach to the per-row and
/// per-column bypass links (paper Fig 4: muxes at +x / +y).
enum class Port : std::uint8_t {
  kLocal = 0,
  kNorth,
  kEast,
  kSouth,
  kWest,
  kBypassRow,  // segmented horizontal bypass link
  kBypassCol,  // segmented vertical bypass link
};
inline constexpr std::size_t kNumPorts = 7;

[[nodiscard]] const char* port_name(Port p);

/// One message in flight. Payload is abstract (the simulator is
/// timing-directed; functional values travel in the orchestration layer).
struct Packet {
  std::uint64_t id = 0;
  NodeId src = 0;
  NodeId dst = 0;
  Bytes payload_bytes = 0;
  std::uint32_t num_flits = 0;
  Cycle injected_at = 0;
  /// Opaque tag the client uses to identify the message at delivery.
  std::uint64_t tag = 0;
};

/// Delivery notification: packet plus arrival cycle.
using DeliveryCallback =
    std::function<void(const Packet& packet, Cycle arrival)>;

}  // namespace aurora::noc
