#include "cluster/cluster_engine.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/report.hpp"
#include "gnn/workflow.hpp"
#include "sim/invariants.hpp"
#include "sim/simulator.hpp"

namespace aurora::cluster {
namespace {

/// "No internal event, waiting on link deliveries": far enough that the
/// link's own events always bound the jump, but not kNoEvent — the proxy is
/// not drained and must not be retired from the tick loop.
constexpr Cycle kFarFuture = sim::kNoEvent - 1;

}  // namespace

ChipProxy::ChipProxy(std::uint32_t chip, std::vector<ChipLayerPlan> layers,
                     InterChipLink* link, sim::Tracer* tracer)
    : sim::Component("chip" + std::to_string(chip)),
      chip_(chip),
      layers_(std::move(layers)),
      link_(link),
      tracer_(tracer),
      arrived_(layers_.size(), 0),
      last_arrival_(layers_.size(), 0) {
  AURORA_CHECK(link_ != nullptr);
  if (layers_.empty()) {
    state_ = State::kDone;
  } else {
    seg_end_ = layers_[0].seg_pre;
  }
}

void ChipProxy::trace_segment(std::uint32_t kind, Cycle start,
                              Cycle end) const {
  if (tracer_ == nullptr) return;
  const auto arg0 = static_cast<std::uint64_t>(chip_) * 4 + kind;
  // Compute-pre segments carry the chip-local engine's breakdown of the
  // layer so the profiler can attribute the segment without the chip trace.
  std::uint64_t arg2 = 0;
  std::uint64_t arg3 = 0;
  if (kind == 0) {
    const ChipLayerPlan& plan = layers_[layer_];
    arg2 = plan.dram_cycles;
    arg3 = sim::pack_u32_pair(plan.noc_busy_cycles, plan.reconfig_cycles);
  }
  tracer_->record(start, sim::TraceEvent::kClusterSegment, arg0, end - start,
                  arg2, arg3);
}

void ChipProxy::on_halo(const LinkMessage& msg, Cycle now) {
  AURORA_CHECK_MSG(msg.layer < layers_.size(),
                   "halo chunk for layer beyond the chip's plan");
  ++arrived_[msg.layer];
  last_arrival_[msg.layer] = std::max(last_arrival_[msg.layer], now);
  halo_bytes_received_ += msg.bytes;
  wake();
}

void ChipProxy::tick(Cycle now) {
  bool progress = true;
  while (progress) {
    progress = false;
    switch (state_) {
      case State::kPre:
        if (now >= seg_end_) {
          trace_segment(0, seg_start_, seg_end_);
          for (const LinkMessage& msg : layers_[layer_].outgoing) {
            halo_bytes_sent_ += msg.bytes;
            if (tracer_ != nullptr) {
              tracer_->record(now, sim::TraceEvent::kHaloSent,
                              sim::pack_u32_pair(msg.src, msg.dst), msg.bytes,
                              msg.layer);
            }
            link_->send(msg, now);
          }
          wait_start_ = now;
          state_ = State::kWaitHalo;
          progress = true;
        }
        break;
      case State::kWaitHalo: {
        const ChipLayerPlan& plan = layers_[layer_];
        if (arrived_[layer_] >= plan.expected_chunks &&
            (plan.expected_chunks == 0 || now > last_arrival_[layer_])) {
          halo_wait_cycles_ += now - wait_start_;
          trace_segment(1, wait_start_, now);
          state_ = State::kPost;
          seg_start_ = now;
          seg_end_ = now + plan.seg_post;
          progress = true;
        }
        break;
      }
      case State::kPost:
        if (now >= seg_end_) {
          trace_segment(2, seg_start_, seg_end_);
          ++layer_;
          if (layer_ == layers_.size()) {
            state_ = State::kDone;
            finish_cycle_ = now;
          } else {
            state_ = State::kPre;
            seg_start_ = now;
            seg_end_ = now + layers_[layer_].seg_pre;
            progress = true;
          }
        }
        break;
      case State::kDone:
        break;
    }
  }
}

Cycle ChipProxy::next_event_cycle(Cycle now) const {
  switch (state_) {
    case State::kPre:
    case State::kPost:
      return seg_end_;
    case State::kWaitHalo:
      if (arrived_[layer_] < layers_[layer_].expected_chunks) {
        return kFarFuture;  // unblocked only by a delivery (external stimulus)
      }
      return layers_[layer_].expected_chunks == 0 ? now
                                                  : last_arrival_[layer_] + 1;
    case State::kDone:
      return sim::kNoEvent;
  }
  throw Error("invalid ChipProxy state");
}

void ChipProxy::verify_invariants(sim::InvariantReport& report) const {
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    report.require(arrived_[l] <= layers_[l].expected_chunks,
                   "halo arrivals bounded by expectations",
                   "layer " + std::to_string(l) + ": " +
                       std::to_string(arrived_[l]) + " > " +
                       std::to_string(layers_[l].expected_chunks));
  }
  if (report.drained()) {
    report.require(state_ == State::kDone, "chip finished its plan");
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      report.require(arrived_[l] == layers_[l].expected_chunks,
                     "every halo barrier fully satisfied",
                     "layer " + std::to_string(l));
    }
  }
}

Cycle ClusterRunMetrics::max_halo_wait_cycles() const {
  Cycle m = 0;
  for (const ChipRun& c : chips) m = std::max(m, c.halo_wait_cycles);
  return m;
}

ClusterEngine::ClusterEngine(const core::AuroraConfig& config,
                             const ClusterParams& params)
    : config_(config), params_(params) {
  AURORA_CHECK(params.num_chips >= 1);
}

void ClusterEngine::set_chip_tracer(std::uint32_t chip, sim::Tracer* tracer) {
  AURORA_CHECK(chip < params_.num_chips);
  if (chip_tracers_.size() < params_.num_chips) {
    chip_tracers_.resize(params_.num_chips, nullptr);
  }
  chip_tracers_[chip] = tracer;
}

ClusterRunMetrics ClusterEngine::run(const graph::Dataset& dataset,
                                     const core::GnnJob& job) {
  AURORA_CHECK(!job.layers.empty());
  const std::uint32_t n = params_.num_chips;
  const ShardPlan plan = make_shard_plan(dataset, n, params_.strategy);

  ClusterRunMetrics out;
  out.cut_edges = plan.cut_edges;
  out.ghost_vertices = plan.total_ghosts;
  out.replication_factor = plan.replication_factor;
  out.chips.resize(n);

  // Phase A: chip-local engine runs fix each chip's exact per-layer timing
  // and split it at the halo-exchange point. The chips are independent
  // (each gets its own accelerator, shard and result slot), so the
  // parallel mode fans them out — this is where the wall-clock goes; the
  // Phase C replay below is a small fraction of a run.
  std::vector<std::vector<ChipLayerPlan>> chip_plans(n);
  parallel_for(n, params_.parallel ? params_.parallel_jobs : 1,
               [&](std::size_t c) {
    core::AuroraAccelerator accelerator(config_);
    if (c < chip_tracers_.size() && chip_tracers_[c] != nullptr) {
      accelerator.set_tracer(chip_tracers_[c]);
    }
    chip_plans[c].resize(job.layers.size());
    for (std::size_t l = 0; l < job.layers.size(); ++l) {
      core::RunMetrics m =
          accelerator.run_layer(plan.shards[c].dataset, job.model,
                                job.layers[l], static_cast<std::uint32_t>(l));
      const Cycle post = std::min(
          m.phase(gnn::Phase::kVertexUpdate).active_cycles, m.total_cycles);
      chip_plans[c][l].seg_post = post;
      chip_plans[c][l].seg_pre = m.total_cycles - post;
      chip_plans[c][l].dram_cycles = m.dram_cycles;
      chip_plans[c][l].noc_busy_cycles = m.onchip_comm_cycles;
      chip_plans[c][l].reconfig_cycles = m.reconfig_cycles;
      out.chips[c].metrics += m;
    }
  });

  // Halo widths per layer: the feature width flowing into vertex-update
  // under the layer's (possibly update-first) dataflow.
  std::vector<std::uint32_t> halo_dims(job.layers.size());
  for (std::size_t l = 0; l < job.layers.size(); ++l) {
    const gnn::Workflow wf =
        gnn::generate_workflow(job.model, job.layers[l], dataset.num_vertices(),
                               dataset.num_edges());
    halo_dims[l] = std::max<std::uint32_t>(1, wf.edge_feature_dim);
  }

  // Phase B: outgoing chunks and per-chip expectations, chunked to the
  // link's message size so one fat halo cannot monopolise a ring wire.
  for (std::size_t l = 0; l < job.layers.size(); ++l) {
    for (std::uint32_t src = 0; src < n; ++src) {
      for (std::uint32_t dst = 0; dst < n; ++dst) {
        if (src == dst) continue;
        Bytes remaining =
            plan.halo_bytes(src, dst, halo_dims[l], config_.element_bytes);
        while (remaining > 0) {
          LinkMessage msg;
          msg.src = src;
          msg.dst = dst;
          msg.bytes = std::min(remaining, params_.link.max_message_bytes);
          msg.layer = static_cast<std::uint32_t>(l);
          remaining -= msg.bytes;
          chip_plans[src][l].outgoing.push_back(msg);
          ++chip_plans[dst][l].expected_chunks;
        }
      }
    }
  }

  // Deadlock guard headroom: every segment plus every chunk's worst-case
  // serialisation, queueing-free flight and per-hop forwarding gap. A fault
  // plan can stretch every serialisation by its largest multiplier, so the
  // per-chunk term scales by that worst case.
  const Cycle serialize_scale =
      params_.fault_plan == nullptr
          ? 1
          : static_cast<Cycle>(
                std::ceil(params_.fault_plan->max_link_multiplier()));
  Cycle bound = 1000;
  for (std::uint32_t c = 0; c < n; ++c) {
    for (const ChipLayerPlan& lp : chip_plans[c]) {
      bound += lp.seg_pre + lp.seg_post;
      for (const LinkMessage& msg : lp.outgoing) {
        bound += (link_serialize_cycles(params_.link, msg.bytes) *
                      serialize_scale +
                  params_.link.hop_latency + 2) *
                 link_route_hops(params_.link, n, msg.src, msg.dst);
      }
    }
  }
  bound *= 2;

  // Phase C: replay on the shared cluster clock.
  if (tracer_ != nullptr) {
    tracer_->record(0, sim::TraceEvent::kRunBegin, sim::kRunKindCluster, n);
    // Annotate the run with the plan's link fault windows (cluster clock)
    // so the profiler and trace viewers can attribute degraded stretches.
    if (params_.fault_plan != nullptr) {
      for (const fault::FaultEvent& e : params_.fault_plan->events()) {
        if (e.kind == fault::FaultKind::kLinkDegraded) {
          tracer_->record(
              e.at, sim::TraceEvent::kLinkDegraded,
              sim::pack_u32_pair(e.chip, e.peer),
              static_cast<std::uint64_t>(std::llround(e.multiplier * 1000.0)));
        } else if (e.kind == fault::FaultKind::kLinkRestored) {
          tracer_->record(e.at, sim::TraceEvent::kLinkRestored,
                          sim::pack_u32_pair(e.chip, e.peer), 1000);
        }
      }
    }
  }
  run_timeline(std::move(chip_plans), bound, out);
  if (tracer_ != nullptr) {
    tracer_->record(out.total_cycles, sim::TraceEvent::kRunEnd,
                    out.total_cycles, 0);
  }

  out.counters.inc("cluster.chips", n);
  out.counters.inc("cluster.cut_edges", plan.cut_edges);
  out.counters.inc("cluster.ghost_vertices", plan.total_ghosts);
  out.counters.inc("cluster.halo_messages_sent", out.link.messages_sent);
  out.counters.inc("cluster.halo_messages_delivered",
                   out.link.messages_delivered);
  out.counters.inc("cluster.halo_bytes_sent", out.link.bytes_sent);
  out.counters.inc("cluster.halo_bytes_delivered", out.link.bytes_delivered);
  out.counters.inc("cluster.link_hops", out.link.hops);
  out.counters.inc("cluster.link_serialize_cycles",
                   out.link.serialize_cycles);
  out.counters.inc("cluster.link_stall_cycles", out.link.stall_cycles);
  out.counters.inc("cluster.link_degraded_sends", out.link.degraded_sends);
  out.counters.inc("cluster.link_degraded_extra_cycles",
                   out.link.degraded_extra_cycles);
  Cycle barrier_total = 0;
  for (const ChipRun& chip : out.chips) barrier_total += chip.halo_wait_cycles;
  out.counters.inc("cluster.barrier_wait_cycles", barrier_total);
  return out;
}

void ClusterEngine::run_timeline(
    std::vector<std::vector<ChipLayerPlan>>&& chip_plans, Cycle bound,
    ClusterRunMetrics& out) {
  const std::uint32_t n = params_.num_chips;
  InterChipLink link(n, params_.link);
  link.set_fault_plan(params_.fault_plan.get());
  std::vector<std::unique_ptr<ChipProxy>> proxies;
  for (std::uint32_t c = 0; c < n; ++c) {
    proxies.push_back(std::make_unique<ChipProxy>(
        c, std::move(chip_plans[c]), &link, tracer_));
  }
  link.set_delivery_callback([&](const LinkMessage& msg, Cycle now) {
    if (tracer_ != nullptr) {
      tracer_->record(now, sim::TraceEvent::kHaloDelivered,
                      sim::pack_u32_pair(msg.src, msg.dst), msg.bytes,
                      msg.layer);
    }
    proxies[msg.dst]->on_halo(msg, now);
  });

  sim::Simulator simulator;
  simulator.set_fast_forward(config_.fast_forward);
  for (auto& proxy : proxies) simulator.add(proxy.get());
  simulator.add(&link);

  sim::InvariantChecker checker(config_.invariant_interval);
  if (config_.check_invariants) {
    for (auto& proxy : proxies) checker.watch(proxy.get());
    checker.watch(&link);
    simulator.add(&checker);
  }

  simulator.run_until_idle(bound);
  if (config_.check_invariants) checker.check_now(simulator.now(), true);

  out.link = link.stats();
  for (std::uint32_t c = 0; c < n; ++c) {
    ChipRun& chip = out.chips[c];
    chip.finish_cycle = proxies[c]->finish_cycle();
    chip.halo_wait_cycles = proxies[c]->halo_wait_cycles();
    chip.halo_bytes_sent = proxies[c]->halo_bytes_sent();
    chip.halo_bytes_received = proxies[c]->halo_bytes_received();
    out.total_cycles = std::max(out.total_cycles, chip.finish_cycle);
  }
}

namespace {

void diff_field(std::vector<std::string>& out, const std::string& name,
                std::uint64_t a, std::uint64_t b) {
  if (a != b) {
    out.push_back(name + ": " + std::to_string(a) + " != " +
                  std::to_string(b));
  }
}

void diff_link_stats(std::vector<std::string>& out, const std::string& prefix,
                     const LinkStats& a, const LinkStats& b) {
  diff_field(out, prefix + ".messages_sent", a.messages_sent,
             b.messages_sent);
  diff_field(out, prefix + ".messages_delivered", a.messages_delivered,
             b.messages_delivered);
  diff_field(out, prefix + ".bytes_sent", a.bytes_sent, b.bytes_sent);
  diff_field(out, prefix + ".bytes_delivered", a.bytes_delivered,
             b.bytes_delivered);
  diff_field(out, prefix + ".hops", a.hops, b.hops);
  diff_field(out, prefix + ".bytes_hopped", a.bytes_hopped, b.bytes_hopped);
  diff_field(out, prefix + ".serialize_cycles", a.serialize_cycles,
             b.serialize_cycles);
  diff_field(out, prefix + ".stall_cycles", a.stall_cycles, b.stall_cycles);
  diff_field(out, prefix + ".degraded_sends", a.degraded_sends,
             b.degraded_sends);
  diff_field(out, prefix + ".degraded_extra_cycles", a.degraded_extra_cycles,
             b.degraded_extra_cycles);
  diff_field(out, prefix + ".latency.total", a.latency.total(),
             b.latency.total());
  for (std::size_t i = 0; i < a.latency.num_buckets(); ++i) {
    diff_field(out, prefix + ".latency.bucket" + std::to_string(i),
               a.latency.bucket_count(i), b.latency.bucket_count(i));
  }
}

}  // namespace

std::vector<std::string> diff_cluster_run_metrics(const ClusterRunMetrics& a,
                                                  const ClusterRunMetrics& b) {
  std::vector<std::string> out;
  diff_field(out, "total_cycles", a.total_cycles, b.total_cycles);
  diff_field(out, "cut_edges", a.cut_edges, b.cut_edges);
  diff_field(out, "ghost_vertices", a.ghost_vertices, b.ghost_vertices);
  if (a.replication_factor != b.replication_factor) {
    out.push_back("replication_factor differs");
  }
  diff_field(out, "chips.size", a.chips.size(), b.chips.size());
  if (a.chips.size() == b.chips.size()) {
    for (std::size_t c = 0; c < a.chips.size(); ++c) {
      const std::string prefix = "chip" + std::to_string(c);
      for (const std::string& d :
           core::diff_run_metrics(a.chips[c].metrics, b.chips[c].metrics)) {
        out.push_back(prefix + ".metrics." + d);
      }
      diff_field(out, prefix + ".finish_cycle", a.chips[c].finish_cycle,
                 b.chips[c].finish_cycle);
      diff_field(out, prefix + ".halo_wait_cycles",
                 a.chips[c].halo_wait_cycles, b.chips[c].halo_wait_cycles);
      diff_field(out, prefix + ".halo_bytes_sent", a.chips[c].halo_bytes_sent,
                 b.chips[c].halo_bytes_sent);
      diff_field(out, prefix + ".halo_bytes_received",
                 a.chips[c].halo_bytes_received,
                 b.chips[c].halo_bytes_received);
    }
  }
  diff_link_stats(out, "link", a.link, b.link);
  for (const auto& [name, value] : a.counters.all()) {
    diff_field(out, "counter." + name, value, b.counters.get(name));
  }
  for (const auto& [name, value] : b.counters.all()) {
    if (a.counters.all().count(name) == 0) {
      out.push_back("counter." + name + ": missing != " +
                    std::to_string(value));
    }
  }
  return out;
}

}  // namespace aurora::cluster
