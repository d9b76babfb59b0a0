// Flit-level network simulation: K x K mesh of reconfigurable routers with
// wormhole switching, credit-based flow control and the bypass/ring overlays.
//
// Router microarchitecture (paper Fig 4) is modelled as:
//   * one input FIFO per (port, VC) lane with credit-based backpressure;
//   * per-output round-robin switch allocation over the lanes, one flit per
//     output and per input port each cycle;
//   * wormhole locking: a granted input->output pairing persists until the
//     packet's tail flit passes;
//   * a two-stage (horizontal/vertical) crossbar: flits that turn between
//     dimensions pay one extra pipeline cycle;
//   * bypass ports attach to the segmented per-row/per-column bypass wires.
// Each physical port carries `num_vcs` virtual channels (allocated to a
// packet at injection, kept end to end); XY ordering plus monotone bypass
// jumps keep the channel dependency graph acyclic (see routing.hpp).
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "noc/config.hpp"
#include "noc/routing.hpp"
#include "noc/types.hpp"
#include "sim/component.hpp"

namespace aurora::sim {
class Sampler;
}

namespace aurora::noc {

struct NocParams {
  std::uint32_t k = 8;
  Bytes flit_bytes = 32;
  /// Virtual channels per physical port (paper Fig 4: VC buffers + VA).
  std::uint32_t num_vcs = 2;
  std::uint32_t input_buffer_flits = 8;
  /// Router pipeline depth in cycles (RC/SA + ST).
  Cycle router_delay = 2;
  /// Extra cycle for flits turning between the horizontal and vertical
  /// stages of the decomposed crossbar.
  Cycle turn_delay = 1;
  /// Wire delay of one tile span; bypass segments pay length/4 extra.
  Cycle link_delay = 1;
};

struct NocStats {
  std::uint64_t packets_injected = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t flits_injected = 0;     // flits entering at local ports
  std::uint64_t flits_ejected = 0;      // flits delivered at local ports
  std::uint64_t flit_hops = 0;          // flit traversals over any wire
  std::uint64_t bypass_flit_hops = 0;   // subset over bypass segments
  std::uint64_t router_traversals = 0;  // flits passing through a router
  Bytes link_bytes = 0;                 // payload bytes x mesh-link hops
  Bytes bypass_bytes = 0;               // payload bytes x bypass hops
  /// Cycles during which at least one flit was in flight — the network's
  /// contribution to "on-chip communication time".
  Cycle busy_cycles = 0;
  RunningStat packet_latency;
  RunningStat packet_hops;
  /// Injection-to-tail-delivery latency distribution (canonical layout, so
  /// it merges into RunMetrics::noc_packet_latency).
  Histogram packet_latency_hist{kNocLatencyBucketCycles, kNocLatencyBuckets};

  [[nodiscard]] double avg_hops() const { return packet_hops.mean(); }
};

/// The network component. Clients inject packets with `send` and receive
/// them through the delivery callback; without one, a delivery is only
/// counted.
class Network final : public sim::Component {
 public:
  /// Virtual channels per port a router has buffers for (num_vcs <= this).
  static constexpr std::uint32_t kMaxVcs = 4;

  explicit Network(const NocParams& params);

  /// Apply a new configuration. Only legal while the network is drained.
  /// Returns the number of switch writes (for reconfiguration energy).
  std::uint64_t configure(NocConfig config);

  [[nodiscard]] const NocConfig& config() const { return config_; }
  [[nodiscard]] const NocParams& params() const { return params_; }

  /// Inject a packet at `src`'s local port. Returns the packet id.
  std::uint64_t send(NodeId src, NodeId dst, Bytes payload_bytes,
                     std::uint64_t tag, Cycle now);

  void set_delivery_callback(DeliveryCallback cb) {
    on_delivery_ = std::move(cb);
  }

  void tick(Cycle now) override;
  [[nodiscard]] bool idle() const override;
  /// Earliest cycle at which any buffered flit can move: the min ready_at
  /// over the FIFO-front flits of occupied routers. A front flit that is
  /// already ready (possibly blocked on credits/locks) pins the clock —
  /// unblocking can only happen through other flit movements, which happen
  /// on ticks.
  [[nodiscard]] Cycle next_event_cycle(Cycle now) const override;
  /// Keeps busy_cycles identical to a lockstep run: every skipped cycle had
  /// flits in flight (otherwise the network would have been drained).
  void skip_cycles(Cycle from, Cycle to) override;

  /// Conservation checks: flit/packet balances, occupancy caches, lane and
  /// occupied-router masks, cached head routes, byte/hop
  /// consistency; after drain additionally empty FIFOs, released wormhole
  /// locks and fully restored credits (see docs/architecture.md,
  /// "Invariants").
  void verify_invariants(sim::InvariantReport& report) const override;

  [[nodiscard]] const NocStats& stats() const { return stats_; }
  [[nodiscard]] std::uint32_t num_nodes() const {
    return params_.k * params_.k;
  }

  /// Flits forwarded by each router since construction (congestion map).
  [[nodiscard]] const std::vector<std::uint64_t>& router_load() const {
    return router_load_;
  }
  /// K x K ASCII heatmap of router load (glyph darkness ~ traffic share) —
  /// makes the Fig 2 congestion story visible in a terminal.
  [[nodiscard]] std::string render_load_heatmap() const;

  /// Merge this component's event counts into `out` (prefixed "noc.").
  void export_counters(CounterSet& out) const;

  /// Watch the "noc." counters and the flit and packet occupancy gauges on
  /// `sampler`, in name order. The probes point into this network, so the
  /// caller detaches them before the network is destroyed.
  void watch_series(sim::Sampler& sampler) const;

 private:
  static constexpr std::uint8_t kUnlocked = 0xff;

  /// A flit in an input lane. Every flit counts the hops it has taken (a
  /// packet's flits follow one path, so the tail's count is the packet's);
  /// a head also carries the output it requests at this router, computed
  /// once, when it entered the lane.
  struct BufferedFlit {
    Cycle ready_at;
    std::uint32_t slot;  // the packet's index into packets_
    NodeId dst;
    std::uint32_t hops;
    Port route;
    bool is_head;
    bool is_tail;
  };
  /// One (port, VC) input FIFO, a ring over `slots`. Credits bound mesh and
  /// bypass lanes to `input_buffer_flits`, so their rings are fixed slices
  /// of buffer_slots_; the local injection lane is unbounded and grows.
  struct Lane {
    BufferedFlit* slots = nullptr;
    std::uint32_t capacity = 0;
    std::uint32_t head = 0;
    std::uint32_t size = 0;
    /// Output port this lane's packet is locked to (wormhole), or
    /// kUnlocked when the next head flit still needs switch allocation.
    std::uint8_t locked_output = kUnlocked;
  };
  /// A router's allocation state. Its lanes are numbered
  /// `port * num_vcs + vc`; lanes_ holds them from `node * lanes_per_router_`.
  struct Router {
    /// Bit `lane` is set while that lane holds a flit.
    std::uint32_t busy_lanes = 0;
    /// Round-robin pointers over lanes, one per output port.
    std::array<std::uint8_t, kNumPorts> rr{};
    /// Credits toward each downstream (port, vc) buffer.
    std::array<std::array<std::uint32_t, kMaxVcs>, kNumPorts> credits{};
  };
  struct PacketRecord {
    Packet packet;
    std::uint32_t flits_ejected = 0;
  };

  void allocate_switch(NodeId node, Cycle now);
  void move_flit(NodeId node, std::uint32_t lane, Port out, Cycle now);
  void push_flit(NodeId node, std::uint32_t lane, const BufferedFlit& flit);
  void grow_injection_lane(NodeId node, std::uint32_t lane);
  [[nodiscard]] BufferedFlit pop_flit(NodeId node, std::uint32_t lane);
  /// First occupied router at or after `from`, or num_nodes().
  [[nodiscard]] NodeId next_occupied(NodeId from) const;
  [[nodiscard]] std::uint64_t live_packets() const {
    return packets_.size() - free_slots_.size();
  }
  void return_credit(NodeId node, Port in_port, std::uint32_t vc);
  [[nodiscard]] bool is_horizontal(Port p) const {
    return p == Port::kEast || p == Port::kWest || p == Port::kBypassRow;
  }
  void eject_flit(NodeId node, const BufferedFlit& flit, Cycle now);

  NocParams params_;
  NocConfig config_;
  std::uint32_t lanes_per_router_ = 0;  // kNumPorts * num_vcs
  std::vector<Router> routers_;
  std::vector<Lane> lanes_;
  /// Ring storage of every mesh and bypass lane, `input_buffer_flits` each;
  /// left uninitialised, so pages no flit reaches are never touched.
  std::unique_ptr<BufferedFlit[]> buffer_slots_;
  /// Ring storage of each router's local injection lanes (grown on demand).
  std::vector<std::vector<BufferedFlit>> injection_slots_;
  /// Buffered-flit count per router, and a bit per occupied router, so
  /// tick() visits only routers holding flits.
  std::vector<std::uint32_t> router_occupancy_;
  std::vector<std::uint64_t> occupied_routers_;
  /// Flits forwarded per router (lifetime).
  std::vector<std::uint64_t> router_load_;
  /// In-flight packets by slot; a delivered packet's slot is reused.
  std::vector<PacketRecord> packets_;
  std::vector<std::uint32_t> free_slots_;
  DeliveryCallback on_delivery_;
  std::uint64_t next_packet_id_ = 1;
  std::uint64_t flits_in_flight_ = 0;
  NocStats stats_;
};

}  // namespace aurora::noc
