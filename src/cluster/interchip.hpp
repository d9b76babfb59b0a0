// Cycle-level inter-chip interconnect for multi-chip scale-out.
//
// The link fabric is a set of directed point-to-point wires between chips —
// a bidirectional ring (2N wires, store-and-forward shortest-direction
// routing, ties broken clockwise) or a fully-connected mesh (N·(N-1) wires,
// single hop). Each wire serialises one message at a time at
// `bytes_per_cycle` and then flies it for `hop_latency` cycles; flight
// overlaps the next serialisation (pipelined wire), so a wire's occupancy
// is its serialisation time only.
//
// The component obeys the engine's two-phase discipline: a message handed
// to send() at cycle t becomes eligible to start serialising at t+1 (same
// convention as noc::Network), and a message forwarded at an intermediate
// hop at cycle t re-enters the next wire's queue with the same one-cycle
// eligibility gap — so results never depend on component registration
// order. All statistics accumulate at event points (transmission start,
// delivery), which makes lockstep and fast-forward runs bit-identical
// without any skip_cycles accounting.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "fault/fault.hpp"
#include "sim/component.hpp"

namespace aurora::sim {
class InvariantReport;
}

namespace aurora::cluster {

enum class ClusterTopology : std::uint8_t {
  kRing,
  kFullyConnected,
};

[[nodiscard]] const char* topology_name(ClusterTopology t);

struct LinkParams {
  ClusterTopology topology = ClusterTopology::kRing;
  /// Serialisation bandwidth of one directed wire.
  Bytes bytes_per_cycle = 32;
  /// Flight latency per hop once serialised.
  Cycle hop_latency = 64;
  /// Halo payloads above this are chunked into multiple messages, bounding
  /// head-of-line blocking on shared ring wires.
  Bytes max_message_bytes = 8192;
};

/// One halo message. `sent_at` is the original injection cycle (end-to-end
/// latency accounting); `enqueued_at` is the arrival cycle at the current
/// wire's tail and governs the two-phase eligibility gap.
struct LinkMessage {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  Bytes bytes = 0;
  /// GNN layer this halo exchange belongs to (receivers may lag senders).
  std::uint32_t layer = 0;
  Cycle sent_at = 0;
  Cycle enqueued_at = 0;
};

// Free so that the cluster engine's deadlock bound can use them before a
// link exists.

/// Serialisation cycles for `bytes` on one wire (>= 1).
[[nodiscard]] Cycle link_serialize_cycles(const LinkParams& params,
                                          Bytes bytes);
/// Wire traversals a message (src -> dst) makes under the topology.
[[nodiscard]] std::uint32_t link_route_hops(const LinkParams& params,
                                            std::uint32_t num_chips,
                                            std::uint32_t src,
                                            std::uint32_t dst);

struct LinkStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  Bytes bytes_sent = 0;
  Bytes bytes_delivered = 0;
  /// Wire traversals (a delivered 2-hop message counts 2) and the bytes they
  /// moved.
  std::uint64_t hops = 0;
  Bytes bytes_hopped = 0;
  /// Cycles wires spent serialising (summed over wires; concurrent wires
  /// each count).
  Cycle serialize_cycles = 0;
  /// Cycles messages spent queued behind a busy wire past their eligibility.
  Cycle stall_cycles = 0;
  /// Transmissions that started inside a fault-plan degradation window, and
  /// the extra cycles degradation added to their serialisation + flight.
  std::uint64_t degraded_sends = 0;
  Cycle degraded_extra_cycles = 0;
  /// Injection-to-delivery latency distribution (canonical cluster layout).
  Histogram latency{kLinkLatencyBucketCycles, kLinkLatencyBuckets};
};

class InterChipLink final : public sim::Component {
 public:
  using DeliveryCallback = std::function<void(const LinkMessage&, Cycle)>;

  InterChipLink(std::uint32_t num_chips, const LinkParams& params);

  void set_delivery_callback(DeliveryCallback cb) {
    on_delivery_ = std::move(cb);
  }

  /// Attach a fault plan whose link degradation windows stretch this link's
  /// transmissions (cluster-run clock). Null (the default) is fully inert.
  /// The plan must outlive the link.
  void set_fault_plan(const fault::FaultPlan* plan) { fault_plan_ = plan; }

  /// Inject a message at its source chip. Eligible to serialise from now+1.
  void send(LinkMessage msg, Cycle now);

  [[nodiscard]] std::uint64_t messages_in_flight() const;
  [[nodiscard]] Bytes bytes_in_flight() const;
  [[nodiscard]] const LinkStats& stats() const { return stats_; }
  [[nodiscard]] std::uint32_t num_wires() const {
    return static_cast<std::uint32_t>(wires_.size());
  }
  [[nodiscard]] const LinkParams& params() const { return params_; }

  void tick(Cycle now) override;
  [[nodiscard]] bool idle() const override;
  [[nodiscard]] Cycle next_event_cycle(Cycle now) const override;
  /// Conservation: messages/bytes sent == delivered + in flight; histogram
  /// totals match deliveries; after drain, every queue and wire is empty.
  void verify_invariants(sim::InvariantReport& report) const override;

 private:
  struct Flying {
    LinkMessage msg;
    Cycle arrives_at = 0;
  };
  /// One directed wire. `flying` is ordered by arrival (serialisation start
  /// times are increasing and flight latency is constant).
  struct Wire {
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    std::deque<LinkMessage> queue;
    std::deque<Flying> flying;
    Cycle free_at = 0;
  };

  /// The chip a message at `at` heads to next en route to `dst` (ring:
  /// shortest direction, ties clockwise; fully-connected: dst).
  [[nodiscard]] std::uint32_t next_hop(std::uint32_t at,
                                       std::uint32_t dst) const;
  /// Index of the directed wire from -> to in `wires_`. Ring: wire 2i =
  /// i -> i+1 (clockwise), 2i+1 = i -> i-1; fully-connected: row-major by
  /// source.
  [[nodiscard]] std::size_t wire_index(std::uint32_t from,
                                       std::uint32_t to) const;
  void arrive(const LinkMessage& msg, std::uint32_t at, Cycle now);

  std::uint32_t num_chips_;
  LinkParams params_;
  std::vector<Wire> wires_;
  DeliveryCallback on_delivery_;
  const fault::FaultPlan* fault_plan_ = nullptr;
  LinkStats stats_;
};

}  // namespace aurora::cluster
