#include "core/cycle_engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <functional>

#include "common/error.hpp"
#include "core/sub_accelerators.hpp"
#include "dram/dram.hpp"
#include "noc/network.hpp"
#include "pe/pe.hpp"
#include "sim/invariants.hpp"
#include "sim/sampler.hpp"
#include "sim/simulator.hpp"

namespace aurora::core {
namespace {

/// What to do when a PE task or a NoC packet finishes — the dataflow's
/// dependency edges. Tags index into the run's action table.
enum class ActionType : std::uint8_t {
  kEdgeUpdateDone,  // PE: edge feature computed at the source PE
  kAggMessage,      // NoC: edge feature arrived at the owner PE
  kAccumulateDone,  // PE: one neighbor folded into the aggregate
  kSliceMessage,    // NoC: an m_v slice arrived at its weight-stationary PE
  kRingMessage,     // NoC: the rotating H-wide partial reached the next PE
  kRingStageDone,   // PE: one weight-stationary slice computed
  kXformMessage,    // NoC: (update-first) a transformed vector reached its
                    // owner PE in sub-A and can fan out along its edges
};

struct Action {
  ActionType type{};
  VertexId v_local = 0;
  noc::NodeId src_pe = 0;
  noc::NodeId dst_pe = 0;
  std::uint32_t ring_stage = 0;
};

/// Fold an arbitrary per-item op count into a datapath micro-op whose cycle
/// cost matches `ops / flops_per_pe`. The multipliers-only wiring executes
/// `length` ops in length / num_multipliers cycles, so length = ops / 2
/// reproduces a full MAC pipe's throughput.
pe::MicroOp synth_op(OpCount ops, pe::PeConfigKind kind) {
  pe::MicroOp op;
  op.kind = kind;
  op.length = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(ops / 2));
  return op;
}

/// Which GNN phase an action belongs to, for per-phase attribution: edge
/// updates compute per-edge features, agg messages/accumulations gather
/// them, and everything on the weight-stationary rings (slices, rotating
/// partials, transformed vectors) is vertex update.
gnn::Phase action_phase(ActionType type) {
  switch (type) {
    case ActionType::kEdgeUpdateDone:
      return gnn::Phase::kEdgeUpdate;
    case ActionType::kAggMessage:
    case ActionType::kAccumulateDone:
      return gnn::Phase::kAggregation;
    default:
      return gnn::Phase::kVertexUpdate;
  }
}

}  // namespace

/// Cross-run state: the PE pool. PEs are timing components with per-run
/// state that reset() clears, so one pool constructed on first use serves
/// every layer run — the per-layer heap churn of num_pes() allocations (and
/// "pe<N>" name strings) measurably showed in profiles. Names are only
/// materialised when a tracer is attached; nothing else reads them.
struct CycleEngine::Impl {
  std::deque<pe::PeModel> pes;  // deque: PeModel is pinned (non-movable)
};

CycleEngine::CycleEngine(const AuroraConfig& config)
    : impl_(std::make_unique<Impl>()), config_(config) {
  AURORA_CHECK(config.array_dim >= 2);
  AURORA_CHECK(config.noc.k == config.array_dim);
}

CycleEngine::~CycleEngine() = default;

RunMetrics CycleEngine::run_layer(const graph::Dataset& dataset,
                                  const gnn::Workflow& wf,
                                  const DramTrafficParams& traffic_params) {
  const AuroraConfig& cfg = config_;
  const graph::CsrGraph& g = dataset.graph;
  const std::uint32_t k = cfg.array_dim;
  const Bytes elem = cfg.element_bytes;
  const auto fv = wf.edge_feature_dim;           // aggregation vector width
  const auto out_dim = wf.layer.out_dim;

  // ---- decisions: the layer's plan ----------------------------------------
  const LayerPlan layer_plan = plan_layer(cfg, dataset, wf, traffic_params);
  const SubAcceleratorPlan& plan = layer_plan.sub_accelerators;
  const graph::Tiling& tiling = layer_plan.tiling;
  const DramTraffic& traffic = layer_plan.traffic;

  // ---- components --------------------------------------------------------
  sim::Simulator sim;
  sim.set_fast_forward(cfg.fast_forward);
  noc::Network net(cfg.noc);
  dram::DramModel dram(cfg.dram);
  std::deque<pe::PeModel>& pes = impl_->pes;
  if (pes.size() != cfg.num_pes()) {
    pes.clear();
    // Named so an invariant violation says which PE broke; a name this
    // short fits the small-string buffer, so naming allocates nothing.
    for (std::uint32_t i = 0; i < cfg.num_pes(); ++i) {
      pes.emplace_back("pe" + std::to_string(i), cfg.pe);
    }
  } else {
    for (auto& p : pes) p.reset();
  }
  sim.add(&net);
  sim.add(&dram);
  for (auto& p : pes) sim.add(&p);

  // ---- observability: optional sampler -----------------------------------
  // Series in name order: DRAM, NoC, then the PE-pool aggregates. The probes
  // reference this run's stack-local components, so they are detached again
  // before returning.
  if (sampler_ != nullptr) {
    dram.watch_series(*sampler_);
    net.watch_series(*sampler_);
    sampler_->watch("pe.busy_cycles_total", [&pes] {
      double total = 0.0;
      for (const auto& p : pes) {
        total += static_cast<double>(p.stats().busy_cycles);
      }
      return total;
    });
    sampler_->watch("pe.queue_depth_total", [&pes] {
      double total = 0.0;
      for (const auto& p : pes) total += static_cast<double>(p.queue_depth());
      return total;
    });
    sampler_->watch("pe.tasks_total", [&pes] {
      double total = 0.0;
      for (const auto& p : pes) {
        total += static_cast<double>(p.stats().tasks_completed);
      }
      return total;
    });
    // Added last so every sample observes the post-tick state of the cycle
    // it lands on, identically under lockstep and fast-forward.
    sim.add(sampler_);
  }
  sim::InvariantChecker checker(cfg.invariant_interval);
  if (cfg.check_invariants) {
    checker.watch(&net);
    checker.watch(&dram);
    for (auto& p : pes) checker.watch(&p);
    // After the sampler, so interval checks see fully post-tick state.
    sim.add(&checker);
  }
  // Drain-point check: run after every run_until_idle return below.
  auto check_drained = [&] {
    if (cfg.check_invariants) checker.check_now(sim.now());
  };

  // ---- per-tile dataflow state -------------------------------------------
  std::vector<Action> actions;
  std::vector<std::uint32_t> pending;   // remaining accumulations per vertex
  std::vector<noc::NodeId> vertex_pe;   // owner PE per tile-local vertex
  // ring_deps[v][stage]: inputs a weight-stationary stage still waits for —
  // its m_v slice, plus (for stage > 0) the rotating partial.
  std::vector<std::vector<std::uint8_t>> ring_deps;
  VertexId tile_begin = 0;
  VertexId tile_end = 0;
  std::uint64_t vertices_remaining = 0;

  // Per-phase attribution state, tracked unconditionally so RunMetrics are
  // bit-identical whether or not a tracer/sampler is attached. Activity
  // windows (first..last event cycle of each phase, per tile) feed
  // PhaseMetrics::active_cycles and kPhaseSpan trace events; send-site
  // counts feed PhaseMetrics::noc_messages.
  constexpr std::size_t kNumPhases = gnn::kAllPhases.size();
  std::array<Cycle, kNumPhases> phase_first{};
  std::array<Cycle, kNumPhases> phase_last{};
  std::array<bool, kNumPhases> phase_seen{};
  std::array<std::uint64_t, kNumPhases> phase_msgs{};
  auto touch_phase = [&](gnn::Phase p, Cycle now) {
    const auto i = static_cast<std::size_t>(p);
    if (!phase_seen[i]) {
      phase_seen[i] = true;
      phase_first[i] = now;
    }
    phase_last[i] = now;
  };
  auto count_phase_msg = [&](gnn::Phase p) {
    ++phase_msgs[static_cast<std::size_t>(p)];
  };

  const OpCount m_total = std::max<OpCount>(1, wf.num_edges);
  const OpCount n_total = std::max<OpCount>(1, wf.num_vertices);
  const OpCount eu_ops_per_edge =
      wf.phase(gnn::Phase::kEdgeUpdate).total_ops / m_total;
  const OpCount vu_ops_per_vertex =
      wf.phase(gnn::Phase::kVertexUpdate).total_ops / n_total;

  const bool has_eu = wf.needs_edge_update();
  const bool has_vu = wf.needs_vertex_update();
  const bool update_first = wf.update_first;
  const Bytes agg_msg_bytes = layer_plan.agg_msg_bytes;
  const auto& vu_ops = wf.phase(gnn::Phase::kVertexUpdate).ops;
  const bool vu_has_act = std::find(vu_ops.begin(), vu_ops.end(),
                                    gnn::OpKind::kActivation) != vu_ops.end();
  const pe::Activation vu_act =
      vu_has_act
          ? (gnn::model_category(wf.model) == gnn::GnnCategory::kAttentional
                 ? pe::Activation::kSoftmax
                 : pe::Activation::kRelu)
          : pe::Activation::kNone;

  auto new_action = [&](ActionType type, VertexId v, noc::NodeId src,
                        noc::NodeId dst, std::uint32_t stage = 0) {
    actions.push_back({type, v, src, dst, stage});
    return static_cast<std::uint64_t>(actions.size() - 1);
  };

  auto submit_accumulate = [&](noc::NodeId at, VertexId v) {
    pe::PeTask task;
    task.op.kind = pe::PeConfigKind::kAccumulate;
    task.op.length = fv;
    task.buffer_read_bytes = agg_msg_bytes;
    task.buffer_write_bytes = agg_msg_bytes;
    task.tag = new_action(ActionType::kAccumulateDone, v, at, at);
    pes[at].submit(std::move(task));
  };

  auto submit_ring_stage = [&](noc::NodeId at, VertexId v,
                               std::uint32_t stage) {
    const auto& ring = plan.ring_for(tile_begin + v);
    const auto s = static_cast<std::uint32_t>(ring.nodes.size());
    pe::PeTask task;
    task.op.kind = pe::PeConfigKind::kMatVec;
    task.op.rows = std::max<std::uint32_t>(1, out_dim);
    task.op.length = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(vu_ops_per_vertex / s /
                                      (2 * std::max<std::uint32_t>(
                                               1, out_dim))));
    if (stage + 1 == s) task.post_activation = vu_act;
    task.buffer_read_bytes =
        static_cast<Bytes>(task.op.length + out_dim) * elem;
    task.buffer_write_bytes = static_cast<Bytes>(out_dim) * elem;
    task.tag = new_action(ActionType::kRingStageDone, v, at, at, stage);
    pes[at].submit(std::move(task));
  };

  auto vertex_done = [&]() {
    AURORA_CHECK(vertices_remaining > 0);
    --vertices_remaining;
  };

  auto ring_dep_arrived = [&](VertexId v, std::uint32_t stage) {
    AURORA_CHECK(ring_deps[v][stage] > 0);
    if (--ring_deps[v][stage] == 0) {
      const auto& ring = plan.ring_for(tile_begin + v);
      submit_ring_stage(ring.nodes[stage], v, stage);
    }
  };

  // Fan a transformed (update-first) or raw vector of vertex u out along
  // its edges: local neighbors accumulate directly, remote ones get a
  // message.
  std::function<void(VertexId, Cycle)> fan_out_edges;

  // Weight-stationary hand-off: each ring PE holds its weight column slice;
  // the owner PE scatters the matching m_v slices directly, and only the
  // H-wide partial result rotates around the ring.
  auto aggregation_done = [&](VertexId v, Cycle now) {
    if (!has_vu || update_first) {
      vertex_done();  // update-first: the transform already ran in sub-B
      return;
    }
    const auto& ring = plan.ring_for(tile_begin + v);
    const auto s = static_cast<std::uint32_t>(ring.nodes.size());
    const std::uint32_t slice = (fv + s - 1) / s;
    const noc::NodeId src = vertex_pe[v];
    ring_deps[v].assign(s, 2);
    ring_deps[v][0] = 1;  // stage 0 waits only for its slice
    for (std::uint32_t j = 0; j < s; ++j) {
      const std::uint32_t lo = j * slice;
      const std::uint32_t len = lo < fv ? std::min(slice, fv - lo) : 0;
      count_phase_msg(gnn::Phase::kVertexUpdate);
      net.send(src, ring.nodes[j],
               static_cast<Bytes>(std::max<std::uint32_t>(1, len)) * elem,
               new_action(ActionType::kSliceMessage, v, src, ring.nodes[j], j),
               now);
    }
  };

  auto ring_stage_done = [&](const Action& a, Cycle now) {
    const auto& ring = plan.ring_for(tile_begin + a.v_local);
    const auto s = static_cast<std::uint32_t>(ring.nodes.size());
    if (a.ring_stage + 1 >= s) {
      if (update_first) {
        // Transformed vector streams back to the owner PE in sub-A.
        const noc::NodeId owner = vertex_pe[a.v_local];
        count_phase_msg(gnn::Phase::kVertexUpdate);
        net.send(a.dst_pe, owner, static_cast<Bytes>(out_dim) * elem,
                 new_action(ActionType::kXformMessage, a.v_local, a.dst_pe,
                            owner),
                 now);
      } else {
        vertex_done();
      }
      return;
    }
    const noc::NodeId next = ring.nodes[a.ring_stage + 1];
    count_phase_msg(gnn::Phase::kVertexUpdate);
    net.send(a.dst_pe, next, static_cast<Bytes>(out_dim) * elem,
             new_action(ActionType::kRingMessage, a.v_local, a.dst_pe, next,
                        a.ring_stage + 1),
             now);
  };

  fan_out_edges = [&](VertexId ul, Cycle now) {
    const VertexId u = tile_begin + ul;
    const noc::NodeId src = vertex_pe[ul];
    for (VertexId w : g.neighbors(u)) {
      if (w < tile_begin || w >= tile_end) continue;
      const VertexId wl = w - tile_begin;
      const noc::NodeId dst = vertex_pe[wl];
      if (src == dst) {
        submit_accumulate(dst, wl);
      } else {
        count_phase_msg(gnn::Phase::kAggregation);
        net.send(src, dst, agg_msg_bytes,
                 new_action(ActionType::kAggMessage, wl, src, dst), now);
      }
    }
  };

  // PE completions and NoC deliveries drive the dependency graph.
  auto on_pe_complete = [&](std::uint64_t tag, Cycle now) {
    const Action a = actions[tag];
    touch_phase(action_phase(a.type), now);
    if (tracer_ != nullptr) {
      tracer_->record(now, sim::TraceEvent::kTaskComplete,
                      static_cast<std::uint64_t>(a.type), a.dst_pe);
    }
    switch (a.type) {
      case ActionType::kEdgeUpdateDone:
        if (a.src_pe == a.dst_pe) {
          submit_accumulate(a.dst_pe, a.v_local);
        } else {
          count_phase_msg(gnn::Phase::kAggregation);
          net.send(a.src_pe, a.dst_pe, agg_msg_bytes,
                   new_action(ActionType::kAggMessage, a.v_local, a.src_pe,
                              a.dst_pe),
                   now);
        }
        return;
      case ActionType::kAccumulateDone:
        AURORA_CHECK(pending[a.v_local] > 0);
        if (--pending[a.v_local] == 0) aggregation_done(a.v_local, now);
        return;
      case ActionType::kRingStageDone:
        ring_stage_done(a, now);
        return;
      default:
        throw Error("unexpected PE completion action");
    }
  };
  for (auto& p : pes) p.set_completion_callback(on_pe_complete);

  net.set_delivery_callback([&](const noc::Packet& pkt, Cycle now) {
    if (tracer_ != nullptr) {
      tracer_->record(pkt.injected_at, sim::TraceEvent::kPacketInjected,
                      pkt.src, pkt.payload_bytes);
      tracer_->record(now, sim::TraceEvent::kPacketDelivered, pkt.dst,
                      pkt.payload_bytes);
    }
    const Action a = actions[pkt.tag];
    touch_phase(action_phase(a.type), now);
    switch (a.type) {
      case ActionType::kAggMessage:
        submit_accumulate(a.dst_pe, a.v_local);
        return;
      case ActionType::kSliceMessage:
      case ActionType::kRingMessage:
        ring_dep_arrived(a.v_local, a.ring_stage);
        return;
      case ActionType::kXformMessage:
        fan_out_edges(a.v_local, now);
        return;
      default:
        (void)now;
        throw Error("unexpected NoC delivery action");
    }
  });

  // ---- run tiles through the load/compute pipeline ------------------------
  if (tracer_ != nullptr) {
    tracer_->record(0, sim::TraceEvent::kRunBegin, sim::kRunKindChip,
                    tiling.num_tiles());
  }
  RunMetrics metrics = plan_metrics(cfg, wf, layer_plan);

  Bytes next_addr = 0;
  auto enqueue_stream = [&](Bytes bytes) {
    // Chunk a bulk transfer into 4 KiB requests at sequential addresses.
    constexpr Bytes kChunk = 4096;
    Cycle now = sim.now();
    if (tracer_ != nullptr) {
      tracer_->record(now, sim::TraceEvent::kDramRequest, next_addr, bytes);
    }
    while (bytes > 0) {
      const Bytes take = std::min(bytes, kChunk);
      dram::DramRequest req;
      req.addr = next_addr;
      req.bytes = take;
      dram.enqueue(std::move(req), now);
      next_addr += take;
      bytes -= take;
    }
  };

  Cycle dram_free = 0;
  Cycle compute_free = 0;
  const Cycle kGuard = 200'000'000ull;

  for (std::size_t ti = 0; ti < tiling.tiles.size(); ++ti) {
    const graph::Tile& tile = tiling.tiles[ti];
    tile_begin = tile.vertex_begin;
    tile_end = tile.vertex_end;
    const VertexId tile_n = tile.num_vertices();

    // -- mapping + NoC reconfiguration (overlapped except for tile 0).
    const mapping::Mapping map = map_tile(cfg, g, layer_plan, ti);
    // The hashing mapping has no S_PEs, so compose yields a plain mesh plus
    // the sub-B rings — exactly the CGRA-ME baseline configuration. The
    // network counts the switch writes from the configuration it held.
    const std::uint64_t writes = net.configure(compose_noc_config(plan, map));
    metrics.switch_writes += writes;
    if (tracer_ != nullptr) {
      tracer_->record(sim.now(), sim::TraceEvent::kReconfigure, ti, writes);
      tracer_->record(sim.now(), sim::TraceEvent::kTileStart, ti, tile_n);
    }

    // -- DRAM load of this tile's working set.
    Bytes load_bytes =
        static_cast<Bytes>(tile_n + tile.num_halo_vertices) *
            layer_plan.tiling_params.feature_bytes +
        static_cast<Bytes>(tile_n) * 8 + tile.num_edges * 4;
    if (gnn::model_has_edge_embeddings(wf.model)) {
      load_bytes += tile.num_edges * static_cast<Bytes>(fv) * elem;
    }
    if (ti == 0) load_bytes += traffic.weights;  // weights once per layer
    const Cycle load_start = sim.now();
    const std::uint64_t load_hits = dram.stats().row_hits;
    const std::uint64_t load_misses = dram.stats().row_misses;
    const std::uint64_t load_conflicts = dram.stats().row_conflicts;
    enqueue_stream(load_bytes);
    sim.run_until_idle(kGuard);
    check_drained();
    const Cycle load_cycles = sim.now() - load_start;
    if (tracer_ != nullptr) {
      tracer_->record(
          load_start, sim::TraceEvent::kDramSpan, load_bytes, load_cycles,
          dram.stats().row_hits - load_hits,
          sim::pack_u32_pair(dram.stats().row_misses - load_misses,
                             dram.stats().row_conflicts - load_conflicts));
    }

    // -- seed the tile's dataflow.
    actions.clear();
    pending.assign(tile_n, 0);
    ring_deps.assign(tile_n, {});
    vertex_pe.assign(map.vertex_to_pe.begin(), map.vertex_to_pe.end());
    vertices_remaining = tile_n;
    phase_seen.fill(false);

    const Cycle compute_start = sim.now();
    const Cycle net_busy_before = net.stats().busy_cycles;
    std::uint64_t pe_busy_before = 0;
    if (tracer_ != nullptr) {
      for (const auto& p : pes) pe_busy_before += p.stats().busy_cycles;
    }
    if (update_first && has_vu) {
      // Update-first: every vertex's transform ring chain starts right away
      // (its feature slices are already resident in the ring PEs' buffers).
      for (VertexId v = tile.vertex_begin; v < tile.vertex_end; ++v) {
        const VertexId vl = v - tile.vertex_begin;
        const auto& ring = plan.ring_for(v);
        const auto s = static_cast<std::uint32_t>(ring.nodes.size());
        ring_deps[vl].assign(s, 1);
        ring_deps[vl][0] = 0;
        submit_ring_stage(ring.nodes[0], vl, 0);
      }
    }
    for (VertexId v = tile.vertex_begin; v < tile.vertex_end; ++v) {
      const VertexId vl = v - tile.vertex_begin;
      const auto nb = g.neighbors(v);
      pending[vl] = static_cast<std::uint32_t>(nb.size());
      if (nb.empty()) {
        aggregation_done(vl, sim.now());
        continue;
      }
      for (VertexId u : nb) {
        const bool u_local = (u >= tile.vertex_begin && u < tile.vertex_end);
        const noc::NodeId dst = vertex_pe[vl];
        const noc::NodeId src =
            u_local ? vertex_pe[u - tile.vertex_begin] : dst;
        if (update_first && has_vu) {
          // In-tile contributions flow after u's transform completes (the
          // fan-out above); halo contributions are staged locally at load.
          if (!u_local) submit_accumulate(dst, vl);
          continue;
        }
        if (has_eu) {
          pe::PeTask task;
          task.op = synth_op(std::max<OpCount>(1, eu_ops_per_edge),
                             pe::PeConfigKind::kVecVec);
          task.buffer_read_bytes =
              static_cast<Bytes>(wf.layer.in_dim) * elem;
          task.buffer_write_bytes = static_cast<Bytes>(fv) * elem;
          task.tag =
              new_action(ActionType::kEdgeUpdateDone, vl, src, dst);
          pes[src].submit(std::move(task));
        } else if (src == dst) {
          submit_accumulate(dst, vl);
        } else {
          count_phase_msg(gnn::Phase::kAggregation);
          net.send(src, dst, agg_msg_bytes,
                   new_action(ActionType::kAggMessage, vl, src, dst),
                   sim.now());
        }
      }
    }
    sim.run_until_idle(kGuard);
    check_drained();
    AURORA_CHECK_MSG(vertices_remaining == 0,
                     "tile " << ti << " finished with "
                             << vertices_remaining << " vertices stuck");
    const Cycle compute_cycles = sim.now() - compute_start;
    metrics.onchip_comm_cycles += net.stats().busy_cycles - net_busy_before;
    if (tracer_ != nullptr) {
      std::uint64_t pe_busy_after = 0;
      for (const auto& p : pes) pe_busy_after += p.stats().busy_cycles;
      tracer_->record(compute_start, sim::TraceEvent::kComputeSpan, ti,
                      compute_cycles,
                      net.stats().busy_cycles - net_busy_before,
                      pe_busy_after - pe_busy_before);
    }
    // Fold this tile's phase activity windows into the per-phase totals.
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      if (!phase_seen[p]) continue;
      const Cycle span = phase_last[p] - phase_first[p] + 1;
      metrics.phases[p].active_cycles += span;
      if (tracer_ != nullptr) {
        tracer_->record(phase_first[p], sim::TraceEvent::kPhaseSpan, p, span);
      }
    }

    // -- writeback of this tile's outputs (streams while the next tile
    //    loads; accounted on the DRAM timeline).
    Bytes store_bytes =
        static_cast<Bytes>(tile_n) * out_dim * elem;
    if (gnn::model_has_edge_embeddings(wf.model)) {
      store_bytes += tile.num_edges * static_cast<Bytes>(fv) * elem;
    }
    const Cycle store_start = sim.now();
    const std::uint64_t store_hits = dram.stats().row_hits;
    const std::uint64_t store_misses = dram.stats().row_misses;
    const std::uint64_t store_conflicts = dram.stats().row_conflicts;
    enqueue_stream(store_bytes);
    sim.run_until_idle(kGuard);
    check_drained();
    const Cycle store_cycles = sim.now() - store_start;
    if (tracer_ != nullptr) {
      tracer_->record(
          store_start, sim::TraceEvent::kDramSpan, store_bytes, store_cycles,
          dram.stats().row_hits - store_hits,
          sim::pack_u32_pair(dram.stats().row_misses - store_misses,
                             dram.stats().row_conflicts - store_conflicts));
    }

    // -- pipeline composition: tile loads overlap the previous compute.
    const Cycle load_done = std::max(dram_free, compute_free) + load_cycles;
    dram_free = load_done + store_cycles;
    const Cycle start = std::max(compute_free, load_done);
    compute_free = start + compute_cycles;

    metrics.compute_cycles += compute_cycles;
    metrics.dram_cycles += load_cycles + store_cycles;
  }

  // ---- final metrics ------------------------------------------------------
  metrics.total_cycles =
      std::max(compute_free, dram_free) + metrics.reconfig_cycles;
  if (tracer_ != nullptr) {
    tracer_->record(metrics.total_cycles, sim::TraceEvent::kRunEnd,
                    metrics.total_cycles, metrics.reconfig_cycles);
  }

  metrics.noc_heatmap = net.render_load_heatmap();
  net.export_counters(metrics.counters);
  dram.export_counters(metrics.counters);
  // Scheduler diagnostics: how much of the run fast-forward skipped. Equal
  // ticked+skipped totals are part of the lockstep-equivalence contract
  // (skipped is simply 0 when fast_forward is off).
  metrics.counters.inc("sim.cycles_total", sim.now());
  metrics.counters.inc("sim.cycles_skipped", sim.cycles_skipped());
  for (const auto& p : pes) p.export_counters(metrics.counters);
  {
    // Per-PE busy heatmap + mean utilization over the run.
    static constexpr const char* kGlyphs = " .:-=+*#%@";
    Cycle peak = 0;
    double busy_sum = 0.0;
    for (const auto& p : pes) {
      peak = std::max(peak, p.stats().busy_cycles);
      busy_sum += static_cast<double>(p.stats().busy_cycles);
    }
    std::string heat;
    for (std::uint32_t r = 0; r < k; ++r) {
      heat.push_back('|');
      for (std::uint32_t c = 0; c < k; ++c) {
        const Cycle b = pes[r * k + c].stats().busy_cycles;
        const auto level =
            peak == 0 || b == 0
                ? 0
                : 1 + static_cast<std::size_t>(8.0 * static_cast<double>(b) /
                                               static_cast<double>(peak));
        heat.push_back(kGlyphs[std::min<std::size_t>(level, 9)]);
      }
      heat.append("|\n");
    }
    metrics.pe_heatmap = std::move(heat);
    metrics.pe_utilization =
        busy_sum / (static_cast<double>(cfg.num_pes()) *
                    std::max(1.0, static_cast<double>(metrics.total_cycles)));
  }
  metrics.dram_accesses = dram.stats().bursts;
  metrics.noc_messages = net.stats().packets_injected;
  metrics.avg_hops = net.stats().avg_hops();
  metrics.bypass_messages = net.stats().bypass_flit_hops;

  // Per-phase NoC messages were counted at each send site, so their sum
  // equals noc_messages; the plan attributed the DRAM bytes.
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    metrics.phases[p].noc_messages = phase_msgs[p];
  }
  metrics.noc_packet_latency.merge(net.stats().packet_latency_hist);
  metrics.dram_request_latency.merge(dram.stats().request_latency_hist);

  // Energy events: exact op counts from the workflow, measured traffic from
  // the component stats (see DESIGN.md §2, energy row).
  metrics.events.fp_multiplies = wf.total_ops() / 2;
  metrics.events.fp_adds = wf.total_ops() - metrics.events.fp_multiplies;
  metrics.events.dram_bytes = metrics.dram_bytes;
  metrics.events.noc_link_bytes = net.stats().link_bytes;
  metrics.events.bypass_link_bytes = net.stats().bypass_bytes;
  metrics.events.router_bytes =
      net.stats().router_traversals * cfg.noc.flit_bytes;
  Bytes sram_bytes = 0;
  for (const auto& p : pes) {
    sram_bytes += p.bank_buffer().bytes_read() +
                  p.bank_buffer().bytes_written();
  }
  metrics.events.sram_large_bytes = sram_bytes;
  metrics.events.reconfig_switch_writes = metrics.switch_writes;
  metrics.events.active_cycles = metrics.total_cycles;
  metrics.energy = energy::compute_energy(metrics.events, energy::EnergyTable{});
  // The sampler's probes point into this run's components; keep the sampled
  // data but drop the dangling probes.
  if (sampler_ != nullptr) sampler_->detach();
  return metrics;
}

}  // namespace aurora::core
