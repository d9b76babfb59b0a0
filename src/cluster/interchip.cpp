#include "cluster/interchip.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "sim/invariants.hpp"

namespace aurora::cluster {

const char* topology_name(ClusterTopology t) {
  switch (t) {
    case ClusterTopology::kRing:
      return "ring";
    case ClusterTopology::kFullyConnected:
      return "fully-connected";
  }
  throw Error("invalid ClusterTopology");
}

Cycle link_serialize_cycles(const LinkParams& params, Bytes bytes) {
  return std::max<Cycle>(
      1, (bytes + params.bytes_per_cycle - 1) / params.bytes_per_cycle);
}

std::uint32_t link_route_hops(const LinkParams& params, std::uint32_t num_chips,
                              std::uint32_t src, std::uint32_t dst) {
  AURORA_CHECK(src < num_chips && dst < num_chips && src != dst);
  if (params.topology == ClusterTopology::kFullyConnected) return 1;
  const std::uint32_t cw = (dst + num_chips - src) % num_chips;
  const std::uint32_t ccw = (src + num_chips - dst) % num_chips;
  return std::min(cw, ccw);
}

InterChipLink::InterChipLink(std::uint32_t num_chips, const LinkParams& params)
    : sim::Component("interchip-link"), num_chips_(num_chips), params_(params) {
  AURORA_CHECK(num_chips >= 1);
  AURORA_CHECK_MSG(params.bytes_per_cycle > 0,
                   "link bandwidth must be positive");
  if (num_chips < 2) return;  // single chip: no wires, all ticks no-ops
  if (params_.topology == ClusterTopology::kRing) {
    // Wire 2i = i -> i+1 (clockwise), wire 2i+1 = i -> i-1.
    for (std::uint32_t i = 0; i < num_chips; ++i) {
      wires_.push_back({i, (i + 1) % num_chips, {}, {}, 0});
      wires_.push_back({i, (i + num_chips - 1) % num_chips, {}, {}, 0});
    }
  } else {
    for (std::uint32_t from = 0; from < num_chips; ++from) {
      for (std::uint32_t to = 0; to < num_chips; ++to) {
        if (to != from) wires_.push_back({from, to, {}, {}, 0});
      }
    }
  }
}

std::uint32_t InterChipLink::next_hop(std::uint32_t at,
                                      std::uint32_t dst) const {
  if (params_.topology == ClusterTopology::kFullyConnected) return dst;
  const std::uint32_t cw = (dst + num_chips_ - at) % num_chips_;
  const std::uint32_t ccw = (at + num_chips_ - dst) % num_chips_;
  return cw <= ccw ? (at + 1) % num_chips_
                   : (at + num_chips_ - 1) % num_chips_;
}

std::size_t InterChipLink::wire_index(std::uint32_t from,
                                      std::uint32_t to) const {
  if (params_.topology == ClusterTopology::kRing) {
    return 2 * static_cast<std::size_t>(from) +
           (to == (from + 1) % num_chips_ ? 0 : 1);
  }
  return static_cast<std::size_t>(from) * (num_chips_ - 1) +
         (to < from ? to : to - 1);
}

void InterChipLink::send(LinkMessage msg, Cycle now) {
  AURORA_CHECK(msg.src < num_chips_ && msg.dst < num_chips_);
  AURORA_CHECK_MSG(msg.src != msg.dst,
                   "local halo traffic never enters the link");
  msg.sent_at = now;
  msg.enqueued_at = now;
  stats_.messages_sent += 1;
  stats_.bytes_sent += msg.bytes;
  wires_[wire_index(msg.src, next_hop(msg.src, msg.dst))].queue.push_back(
      msg);
  wake();
}

void InterChipLink::arrive(const LinkMessage& msg, std::uint32_t at,
                           Cycle now) {
  stats_.hops += 1;
  stats_.bytes_hopped += msg.bytes;
  if (at == msg.dst) {
    stats_.messages_delivered += 1;
    stats_.bytes_delivered += msg.bytes;
    stats_.latency.add(static_cast<double>(now - msg.sent_at));
    if (on_delivery_) on_delivery_(msg, now);
    return;
  }
  LinkMessage forwarded = msg;
  forwarded.enqueued_at = now;
  wires_[wire_index(at, next_hop(at, msg.dst))].queue.push_back(forwarded);
}

void InterChipLink::tick(Cycle now) {
  // Phase 1: arrivals (fixed wire order, FIFO within a wire). A forwarded
  // message re-enters a queue with enqueued_at = now, so phase 2 below
  // cannot start it until the next cycle.
  for (Wire& w : wires_) {
    while (!w.flying.empty() && w.flying.front().arrives_at <= now) {
      const LinkMessage msg = w.flying.front().msg;
      w.flying.pop_front();
      arrive(msg, w.to, now);
    }
  }
  // Phase 2: transmission starts. Start/stall accounting happens here, at
  // event points, so fast-forward needs no per-cycle bookkeeping.
  for (Wire& w : wires_) {
    if (w.queue.empty() || w.free_at > now) continue;
    const LinkMessage& front = w.queue.front();
    if (front.enqueued_at >= now) continue;  // eligible from enqueued_at + 1
    stats_.stall_cycles += now - (front.enqueued_at + 1);
    Cycle serialize = link_serialize_cycles(params_, front.bytes);
    if (fault_plan_ != nullptr && !fault_plan_->empty()) {
      // The degradation multiplier is sampled once, here at the
      // transmission-start event point, and stretches serialisation only:
      // start times never move (next_event_cycle stays exact under
      // fast-forward) and hop flight is untouched (per-wire arrivals stay
      // ordered).
      const double mult = fault_plan_->wire_multiplier_at(w.from, w.to, now);
      if (mult > 1.0) {
        const auto stretched = static_cast<Cycle>(
            std::ceil(static_cast<double>(serialize) * mult));
        stats_.degraded_sends += 1;
        stats_.degraded_extra_cycles += stretched - serialize;
        serialize = stretched;
      }
    }
    stats_.serialize_cycles += serialize;
    w.free_at = now + serialize;
    w.flying.push_back({front, now + serialize + params_.hop_latency});
    w.queue.pop_front();
  }
}

bool InterChipLink::idle() const {
  for (const Wire& w : wires_) {
    if (!w.queue.empty() || !w.flying.empty()) return false;
  }
  return true;
}

Cycle InterChipLink::next_event_cycle(Cycle now) const {
  Cycle next = sim::kNoEvent;
  for (const Wire& w : wires_) {
    if (!w.flying.empty()) {
      next = std::min(next, w.flying.front().arrives_at);
    }
    if (!w.queue.empty()) {
      const Cycle start = std::max(
          {w.free_at, w.queue.front().enqueued_at + 1, now});
      next = std::min(next, start);
    }
    if (next <= now) return now;
  }
  return next;
}

std::uint64_t InterChipLink::messages_in_flight() const {
  std::uint64_t n = 0;
  for (const Wire& w : wires_) n += w.queue.size() + w.flying.size();
  return n;
}

Bytes InterChipLink::bytes_in_flight() const {
  Bytes b = 0;
  for (const Wire& w : wires_) {
    for (const LinkMessage& m : w.queue) b += m.bytes;
    for (const Flying& f : w.flying) b += f.msg.bytes;
  }
  return b;
}

void InterChipLink::verify_invariants(sim::InvariantReport& report) const {
  report.require(
      stats_.messages_sent == stats_.messages_delivered + messages_in_flight(),
      "halo message conservation",
      "sent " + std::to_string(stats_.messages_sent) + " != delivered " +
          std::to_string(stats_.messages_delivered) + " + in flight " +
          std::to_string(messages_in_flight()));
  report.require(
      stats_.bytes_sent == stats_.bytes_delivered + bytes_in_flight(),
      "halo byte conservation",
      "sent " + std::to_string(stats_.bytes_sent) + " != delivered " +
          std::to_string(stats_.bytes_delivered) + " + in flight " +
          std::to_string(bytes_in_flight()));
  report.require(stats_.latency.total() == stats_.messages_delivered,
                 "latency histogram counts deliveries");
  for (const Wire& w : wires_) {
    for (std::size_t i = 1; i < w.flying.size(); ++i) {
      report.require(w.flying[i - 1].arrives_at <= w.flying[i].arrives_at,
                     "wire arrivals ordered");
    }
  }
  if (report.drained()) {
    report.require(messages_in_flight() == 0,
                   "drained link holds no messages");
  }
}

}  // namespace aurora::cluster
