#include "noc/network.hpp"

#include <algorithm>
#include <bit>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "sim/invariants.hpp"
#include "sim/sampler.hpp"

namespace aurora::noc {

Network::Network(const NocParams& params)
    : sim::Component("noc"), params_(params), config_(params.k) {
  AURORA_CHECK(params.k >= 2);
  AURORA_CHECK(params.flit_bytes > 0);
  AURORA_CHECK(params.input_buffer_flits >= 2);
  AURORA_CHECK_MSG(params.num_vcs >= 1 && params.num_vcs <= kMaxVcs,
                   "num_vcs must be in [1, " << kMaxVcs << "]");
  lanes_per_router_ = static_cast<std::uint32_t>(kNumPorts) * params.num_vcs;
  routers_.resize(num_nodes());
  for (auto& r : routers_) {
    for (auto& per_port : r.credits) per_port.fill(params.input_buffer_flits);
  }
  // Every lane but the local ones (port 0) gets a fixed ring slice.
  const std::uint32_t depth = params.input_buffer_flits;
  const std::size_t rings = std::size_t{num_nodes()} *
                            (lanes_per_router_ - params.num_vcs);
  buffer_slots_ = std::make_unique_for_overwrite<BufferedFlit[]>(rings * depth);
  lanes_.resize(std::size_t{num_nodes()} * lanes_per_router_);
  std::size_t ring = 0;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (i % lanes_per_router_ < params.num_vcs) continue;  // local lane
    lanes_[i].slots = &buffer_slots_[ring++ * depth];
    lanes_[i].capacity = depth;
  }
  injection_slots_.resize(std::size_t{num_nodes()} * params.num_vcs);
  router_occupancy_.assign(num_nodes(), 0);
  occupied_routers_.assign((num_nodes() + 63) / 64, 0);
  router_load_.assign(num_nodes(), 0);
  // Sized for a typical injection wave up front so the per-packet
  // bookkeeping never reallocates on the per-cycle hot path.
  packets_.reserve(256);
}

std::uint64_t Network::configure(NocConfig config) {
  AURORA_CHECK_MSG(idle(), "reconfiguration requires a drained network");
  AURORA_CHECK_MSG(config.k() == params_.k,
                   "configuration mesh size mismatch");
  // An unroutable ring (wrap-around hop with no bypass segment, duplicate
  // membership) would either throw in resolve_hop mid-flight or livelock;
  // reject it here, where the configuration unit can still react.
  for (std::size_t i = 0; i < config.rings().size(); ++i) {
    AURORA_CHECK_MSG(config.ring_routable(i),
                     "ring " << i
                             << " is not routable (duplicate node, or a hop "
                                "with no mesh link or bypass segment)");
  }
  const std::uint64_t writes =
      NocConfig::switch_writes_between(config_, config);
  config_ = std::move(config);
  return writes;
}

std::uint64_t Network::send(NodeId src, NodeId dst, Bytes payload_bytes,
                            std::uint64_t tag, Cycle now) {
  AURORA_CHECK(src < num_nodes() && dst < num_nodes());
  Packet p;
  p.id = next_packet_id_++;
  p.src = src;
  p.dst = dst;
  p.payload_bytes = payload_bytes;
  p.num_flits = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>((payload_bytes + params_.flit_bytes - 1) /
                                    params_.flit_bytes));
  p.injected_at = now;
  p.tag = tag;

  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(packets_.size());
    packets_.push_back(PacketRecord{p, 0});
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    packets_[slot] = PacketRecord{p, 0};
  }

  // VC allocation at injection: packets spread round-robin over the VCs and
  // keep their channel end to end (no mid-route reallocation needed under
  // monotone XY + bypass routing). The local port is lane `vc`.
  const auto vc = static_cast<std::uint32_t>(p.id % params_.num_vcs);
  BufferedFlit flit{now + 1, slot, dst, 0, route_output(src, dst, config_),
                    true, false};
  for (std::uint32_t i = 0; i < p.num_flits; ++i) {
    flit.is_head = (i == 0);
    flit.is_tail = (i + 1 == p.num_flits);
    push_flit(src, vc, flit);
    ++flits_in_flight_;
    ++stats_.flits_injected;
  }
  ++stats_.packets_injected;
  wake();
  return p.id;
}

void Network::push_flit(NodeId node, std::uint32_t lane,
                        const BufferedFlit& flit) {
  Lane& in = lanes_[std::size_t{node} * lanes_per_router_ + lane];
  if (in.size == in.capacity) grow_injection_lane(node, lane);
  std::uint32_t tail = in.head + in.size;
  if (tail >= in.capacity) tail -= in.capacity;
  in.slots[tail] = flit;
  if (in.size++ == 0) routers_[node].busy_lanes |= 1u << lane;
  if (router_occupancy_[node]++ == 0) {
    occupied_routers_[node / 64] |= std::uint64_t{1} << (node % 64);
  }
}

void Network::grow_injection_lane(NodeId node, std::uint32_t lane) {
  // Credits keep every other lane within its buffer depth.
  AURORA_CHECK_MSG(lane < params_.num_vcs,
                   "input buffer overflow at node " << node << " lane "
                                                    << lane);
  Lane& in = lanes_[std::size_t{node} * lanes_per_router_ + lane];
  auto& storage = injection_slots_[std::size_t{node} * params_.num_vcs + lane];
  std::vector<BufferedFlit> grown(std::max<std::size_t>(8, 2 * storage.size()));
  for (std::uint32_t i = 0; i < in.size; ++i) {
    grown[i] = in.slots[(in.head + i) % in.capacity];
  }
  storage.swap(grown);
  in.slots = storage.data();
  in.capacity = static_cast<std::uint32_t>(storage.size());
  in.head = 0;
}

Network::BufferedFlit Network::pop_flit(NodeId node, std::uint32_t lane) {
  Lane& in = lanes_[std::size_t{node} * lanes_per_router_ + lane];
  const BufferedFlit flit = in.slots[in.head];
  if (++in.head == in.capacity) in.head = 0;
  if (--in.size == 0) routers_[node].busy_lanes &= ~(1u << lane);
  if (--router_occupancy_[node] == 0) {
    occupied_routers_[node / 64] &= ~(std::uint64_t{1} << (node % 64));
  }
  return flit;
}

NodeId Network::next_occupied(NodeId from) const {
  std::size_t word = from / 64;
  if (word >= occupied_routers_.size()) return num_nodes();
  std::uint64_t bits =
      occupied_routers_[word] & (~std::uint64_t{0} << (from % 64));
  while (bits == 0) {
    if (++word == occupied_routers_.size()) return num_nodes();
    bits = occupied_routers_[word];
  }
  return static_cast<NodeId>(word * 64 +
                             static_cast<std::size_t>(std::countr_zero(bits)));
}

void Network::return_credit(NodeId node, Port in_port, std::uint32_t vc) {
  // The local port is the injection queue — unbounded, no credits.
  if (in_port == Port::kLocal) return;
  const std::uint32_t k = params_.k;
  const Coord c = to_coord(node, k);
  NodeId upstream = 0;
  Port up_out = Port::kLocal;
  switch (in_port) {
    case Port::kWest:  // fed by the west neighbor's east output
      upstream = to_node({c.row, c.col - 1}, k);
      up_out = Port::kEast;
      break;
    case Port::kEast:
      upstream = to_node({c.row, c.col + 1}, k);
      up_out = Port::kWest;
      break;
    case Port::kNorth:  // fed by the north neighbor's south output
      upstream = to_node({c.row - 1, c.col}, k);
      up_out = Port::kSouth;
      break;
    case Port::kSouth:
      upstream = to_node({c.row + 1, c.col}, k);
      up_out = Port::kNorth;
      break;
    case Port::kBypassRow: {
      const auto seg = config_.row_segment_at(c.row, c.col);
      AURORA_CHECK(seg.has_value());
      const std::uint32_t far = (seg->from == c.col) ? seg->to : seg->from;
      upstream = to_node({c.row, far}, k);
      up_out = Port::kBypassRow;
      break;
    }
    case Port::kBypassCol: {
      const auto seg = config_.col_segment_at(c.col, c.row);
      AURORA_CHECK(seg.has_value());
      const std::uint32_t far = (seg->from == c.row) ? seg->to : seg->from;
      upstream = to_node({far, c.col}, k);
      up_out = Port::kBypassCol;
      break;
    }
    case Port::kLocal:
      return;
  }
  ++routers_[upstream].credits[static_cast<std::size_t>(up_out)][vc];
}

void Network::eject_flit(NodeId node, const BufferedFlit& flit, Cycle now) {
  PacketRecord& rec = packets_[flit.slot];
  ++rec.flits_ejected;
  ++stats_.flits_ejected;
  if (!flit.is_tail) return;
  AURORA_CHECK_MSG(rec.flits_ejected == rec.packet.num_flits,
                   "tail ejected before all body flits");
  AURORA_CHECK(node == rec.packet.dst);
  ++stats_.packets_delivered;
  stats_.packet_latency.add(static_cast<double>(now - rec.packet.injected_at));
  stats_.packet_latency_hist.add(
      static_cast<double>(now - rec.packet.injected_at));
  stats_.packet_hops.add(static_cast<double>(flit.hops));
  // Free the slot before the callback: a send from inside it may reuse it.
  const Packet packet = rec.packet;
  free_slots_.push_back(flit.slot);
  if (on_delivery_) on_delivery_(packet, now);
}

void Network::allocate_switch(NodeId node, Cycle now) {
  Router& router = routers_[node];
  const Lane* lanes = &lanes_[std::size_t{node} * lanes_per_router_];
  const std::uint32_t nv = params_.num_vcs;

  // Requests, per output: bit `lane` is set when that lane's front flit
  // could move through the output this cycle — ready, and either holding
  // the output's wormhole lock or a head whose route is the output and
  // whose (output, vc) is unlocked — with a credit for a downstream buffer.
  // Locks are held per (output, vc): a packet's flits stay contiguous
  // within its virtual channel, while different VCs interleave on the link.
  std::array<std::uint32_t, kNumPorts> requests{};
  for (std::uint32_t busy = router.busy_lanes; busy != 0; busy &= busy - 1) {
    const auto lane = static_cast<std::uint32_t>(std::countr_zero(busy));
    const Lane& in = lanes[lane];
    const BufferedFlit& front = in.slots[in.head];
    if (front.ready_at > now) continue;
    const std::uint32_t vc = lane % nv;
    std::size_t out = in.locked_output;
    if (in.locked_output == kUnlocked) {
      if (!front.is_head) continue;
      out = static_cast<std::size_t>(front.route);
      bool vc_taken = false;  // by another packet's lock
      for (std::uint32_t other = vc; other < lanes_per_router_; other += nv) {
        vc_taken = vc_taken || lanes[other].locked_output == out;
      }
      if (vc_taken) continue;
    }
    if (out != static_cast<std::size_t>(Port::kLocal) &&
        router.credits[out][vc] == 0) {
      continue;
    }
    requests[out] |= 1u << lane;
  }

  // Switch allocation, output by output in port order: grant the first
  // requesting lane in round-robin order from the output's pointer. The
  // crossbar takes one flit per input port per cycle, so a granted port's
  // lanes drop out of the later outputs' requests. No grant changes any
  // other request of this router: a grant only touches its own output's
  // lock and credits, and credits return to other routers.
  const std::uint32_t port_lanes = (1u << nv) - 1;
  std::uint32_t granted_ports = 0;
  for (std::size_t out = 0; out < kNumPorts; ++out) {
    const std::uint32_t req = requests[out] & ~granted_ports;
    if (req == 0) continue;
    const std::uint32_t from_rr = req & (~0u << router.rr[out]);
    const auto lane = static_cast<std::uint32_t>(
        std::countr_zero(from_rr != 0 ? from_rr : req));
    granted_ports |= port_lanes << (lane - lane % nv);
    move_flit(node, lane, static_cast<Port>(out), now);
  }
}

void Network::move_flit(NodeId node, std::uint32_t lane, Port out,
                        Cycle now) {
  Router& router = routers_[node];
  Lane& in = lanes_[std::size_t{node} * lanes_per_router_ + lane];
  const std::uint32_t vc = lane % params_.num_vcs;
  const auto in_port = static_cast<Port>(lane / params_.num_vcs);
  const auto out_idx = static_cast<std::size_t>(out);

  router.rr[out_idx] =
      static_cast<std::uint8_t>((lane + 1) % lanes_per_router_);
  BufferedFlit flit = pop_flit(node, lane);
  if (flit.is_tail) {
    in.locked_output = kUnlocked;
  } else if (in.locked_output == kUnlocked) {
    in.locked_output = static_cast<std::uint8_t>(out);
  }
  return_credit(node, in_port, vc);

  if (out == Port::kLocal) {
    --flits_in_flight_;
    eject_flit(node, flit, now);
    return;
  }

  --router.credits[out_idx][vc];
  const Hop hop = resolve_hop(node, out, config_);
  Cycle delay = params_.router_delay + params_.link_delay;
  if (hop.via_bypass) {
    delay += hop.length / 4;  // repeater-spaced wire delay on long segments
  }
  const bool turn = is_horizontal(in_port) != is_horizontal(out) &&
                    in_port != Port::kLocal;
  if (turn) delay += params_.turn_delay;

  flit.ready_at = now + delay;
  ++flit.hops;
  if (flit.is_head) flit.route = route_output(hop.next_node, flit.dst, config_);
  push_flit(hop.next_node,
            static_cast<std::uint32_t>(hop.next_in_port) * params_.num_vcs + vc,
            flit);

  ++stats_.flit_hops;
  ++stats_.router_traversals;
  ++router_load_[node];
  stats_.link_bytes += hop.via_bypass ? 0 : params_.flit_bytes;
  if (hop.via_bypass) {
    ++stats_.bypass_flit_hops;
    stats_.bypass_bytes += params_.flit_bytes;
  }
}

void Network::tick(Cycle now) {
  if (flits_in_flight_ == 0) return;
  ++stats_.busy_cycles;
  // Ascending node order is observable: a router sees the credits that
  // lower-numbered routers returned to it this cycle. The occupied mask is
  // re-read after each visit, so a router that a lower-numbered one just
  // fed is visited in the same tick.
  for (NodeId node = next_occupied(0); node < num_nodes();
       node = next_occupied(node + 1)) {
    allocate_switch(node, now);
  }
}

bool Network::idle() const { return flits_in_flight_ == 0; }

Cycle Network::next_event_cycle(Cycle now) const {
  if (flits_in_flight_ == 0) return sim::kNoEvent;
  // Only FIFO-front flits can move, so the earliest possible state change
  // is the min front ready_at. A front flit that is ready this cycle might
  // move next tick (subject to credits/locks we cannot cheaply predict), so
  // it conservatively pins the clock to `now`. Ticks where every buffered
  // front is still in transit (ready_at > now) provably mutate nothing:
  // switch allocation only updates rr/locks/credits when a flit moves.
  Cycle next = sim::kNoEvent;
  for (NodeId node = next_occupied(0); node < num_nodes();
       node = next_occupied(node + 1)) {
    const Lane* lanes = &lanes_[std::size_t{node} * lanes_per_router_];
    for (std::uint32_t busy = routers_[node].busy_lanes; busy != 0;
         busy &= busy - 1) {
      const Lane& in = lanes[std::countr_zero(busy)];
      const Cycle ready = in.slots[in.head].ready_at;
      if (ready <= now) return now;
      next = std::min(next, ready);
    }
  }
  return next;
}

void Network::skip_cycles(Cycle from, Cycle to) {
  // Lockstep counts every cycle with at least one flit in flight; the
  // in-flight count cannot change during a skipped span (flits only move on
  // ticks), so the whole span is busy iff it is busy now.
  if (flits_in_flight_ > 0) stats_.busy_cycles += to - from;
}

void Network::verify_invariants(sim::InvariantReport& report) const {
  // Flit conservation: everything injected is either ejected or buffered.
  report.require(
      stats_.flits_injected == stats_.flits_ejected + flits_in_flight_,
      "flits injected == ejected + in flight",
      std::to_string(stats_.flits_injected) + " != " +
          std::to_string(stats_.flits_ejected) + " + " +
          std::to_string(flits_in_flight_));
  report.require(stats_.packets_injected ==
                     stats_.packets_delivered + live_packets(),
                 "packets injected == delivered + live packet slots",
                 std::to_string(stats_.packets_injected) + " != " +
                     std::to_string(stats_.packets_delivered) + " + " +
                     std::to_string(live_packets()));

  // Occupancy caches, lane masks and cached head routes must match the
  // actual buffer contents.
  const std::uint32_t nv = params_.num_vcs;
  std::uint64_t total_occupancy = 0;
  for (NodeId node = 0; node < num_nodes(); ++node) {
    const Router& router = routers_[node];
    std::uint32_t buffered = 0;
    for (std::uint32_t lane = 0; lane < lanes_per_router_; ++lane) {
      const Lane& in = lanes_[std::size_t{node} * lanes_per_router_ + lane];
      const auto port = static_cast<Port>(lane / nv);
      const std::uint32_t vc = lane % nv;
      const std::string where = "node " + std::to_string(node) + " port " +
                                port_name(port) + " vc " + std::to_string(vc);
      buffered += in.size;
      const bool busy = (router.busy_lanes >> lane) & 1u;
      report.require(busy == (in.size > 0),
                     "lane mask bit set iff the lane holds a flit", where);
      for (std::uint32_t i = 0; i < in.size; ++i) {
        const BufferedFlit& flit = in.slots[(in.head + i) % in.capacity];
        if (!flit.is_head) continue;
        report.require(flit.route == route_output(node, flit.dst, config_),
                       "buffered head's cached route == route_output",
                       where);
      }
    }
    report.require(router_occupancy_[node] == buffered,
                   "router occupancy cache matches buffered flits",
                   "node " + std::to_string(node) + ": " +
                       std::to_string(router_occupancy_[node]) + " != " +
                       std::to_string(buffered));
    const bool occupied = (occupied_routers_[node / 64] >> (node % 64)) & 1u;
    report.require(occupied == (router_occupancy_[node] > 0),
                   "occupied-router bit set iff the router holds a flit",
                   "node " + std::to_string(node));
    total_occupancy += buffered;
  }
  report.require(total_occupancy == flits_in_flight_,
                 "sum of router occupancy == flits in flight",
                 std::to_string(total_occupancy) + " != " +
                     std::to_string(flits_in_flight_));

  // Byte counters are derived from the hop counters, flit by flit.
  report.require(stats_.bypass_flit_hops <= stats_.flit_hops,
                 "bypass hops are a subset of flit hops");
  report.require(stats_.link_bytes ==
                     (stats_.flit_hops - stats_.bypass_flit_hops) *
                         params_.flit_bytes,
                 "link bytes == mesh flit hops x flit size",
                 std::to_string(stats_.link_bytes));
  report.require(
      stats_.bypass_bytes == stats_.bypass_flit_hops * params_.flit_bytes,
      "bypass bytes == bypass flit hops x flit size",
      std::to_string(stats_.bypass_bytes));

  if (!report.drained()) return;
  // Drain-only laws: no residual flits/packets anywhere, wormhole locks all
  // released, and every credit returned to its initial buffer depth.
  report.require(flits_in_flight_ == 0, "drained: no flits in flight",
                 std::to_string(flits_in_flight_));
  report.require(live_packets() == 0, "drained: no live packets",
                 std::to_string(live_packets()));
  report.require(stats_.packets_injected == stats_.packets_delivered,
                 "drained: packets injected == delivered",
                 std::to_string(stats_.packets_injected) + " != " +
                     std::to_string(stats_.packets_delivered));
  for (NodeId node = 0; node < num_nodes(); ++node) {
    const Router& router = routers_[node];
    for (std::uint32_t lane = 0; lane < lanes_per_router_; ++lane) {
      const Lane& in = lanes_[std::size_t{node} * lanes_per_router_ + lane];
      const std::size_t p = lane / nv;
      const std::uint32_t v = lane % nv;
      const std::string where = "node " + std::to_string(node) + " port " +
                                port_name(static_cast<Port>(p)) + " vc " +
                                std::to_string(v);
      report.require(in.size == 0, "drained: input FIFO empty", where);
      report.require(in.locked_output == kUnlocked,
                     "drained: wormhole lock released", where);
      report.require(router.credits[p][v] == params_.input_buffer_flits,
                     "drained: credits restored to buffer depth",
                     where + ": " + std::to_string(router.credits[p][v]) +
                         " != " + std::to_string(params_.input_buffer_flits));
    }
  }
}

std::string Network::render_load_heatmap() const {
  static constexpr const char* kGlyphs = " .:-=+*#%@";
  std::uint64_t peak = 0;
  for (const auto l : router_load_) peak = std::max(peak, l);
  std::string out;
  for (std::uint32_t r = 0; r < params_.k; ++r) {
    out.push_back('|');
    for (std::uint32_t c = 0; c < params_.k; ++c) {
      const auto l = router_load_[r * params_.k + c];
      const auto level =
          peak == 0 || l == 0
              ? 0
              : 1 + static_cast<std::size_t>(8.0 * static_cast<double>(l) /
                                             static_cast<double>(peak));
      out.push_back(kGlyphs[std::min<std::size_t>(level, 9)]);
    }
    out.append("|\n");
  }
  return out;
}

void Network::export_counters(CounterSet& out) const {
  out.inc("noc.packets_injected", stats_.packets_injected);
  out.inc("noc.packets_delivered", stats_.packets_delivered);
  out.inc("noc.flits_injected", stats_.flits_injected);
  out.inc("noc.flits_ejected", stats_.flits_ejected);
  out.inc("noc.flit_hops", stats_.flit_hops);
  out.inc("noc.bypass_flit_hops", stats_.bypass_flit_hops);
  out.inc("noc.router_traversals", stats_.router_traversals);
  out.inc("noc.busy_cycles", stats_.busy_cycles);
}

void Network::watch_series(sim::Sampler& sampler) const {
  sampler.watch("noc.busy_cycles", &stats_.busy_cycles);
  sampler.watch("noc.bypass_flit_hops", &stats_.bypass_flit_hops);
  sampler.watch("noc.flit_hops", &stats_.flit_hops);
  sampler.watch("noc.flits_ejected", &stats_.flits_ejected);
  sampler.watch("noc.flits_in_flight",
                [this] { return static_cast<double>(flits_in_flight_); });
  sampler.watch("noc.flits_injected", &stats_.flits_injected);
  sampler.watch("noc.packets_delivered", &stats_.packets_delivered);
  sampler.watch("noc.packets_in_flight",
                [this] { return static_cast<double>(live_packets()); });
  sampler.watch("noc.packets_injected", &stats_.packets_injected);
  sampler.watch("noc.router_traversals", &stats_.router_traversals);
}

const char* port_name(Port p) {
  switch (p) {
    case Port::kLocal:
      return "local";
    case Port::kNorth:
      return "north";
    case Port::kEast:
      return "east";
    case Port::kSouth:
      return "south";
    case Port::kWest:
      return "west";
    case Port::kBypassRow:
      return "bypass-row";
    case Port::kBypassCol:
      return "bypass-col";
  }
  throw Error("invalid port");
}

}  // namespace aurora::noc
