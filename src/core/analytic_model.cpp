#include "core/analytic_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "core/sub_accelerators.hpp"
#include "mapping/quality.hpp"

namespace aurora::core {

AnalyticModel::AnalyticModel(const AuroraConfig& config,
                             const AnalyticCalibration& calibration)
    : config_(config), cal_(calibration) {
  AURORA_CHECK(config.array_dim >= 2);
}

RunMetrics AnalyticModel::run_layer(const graph::Dataset& dataset,
                                    const gnn::Workflow& wf,
                                    const DramTrafficParams& traffic_params)
    const {
  const AuroraConfig& cfg = config_;
  const graph::CsrGraph& g = dataset.graph;
  const Bytes elem = cfg.element_bytes;
  const auto fv = wf.edge_feature_dim;
  const bool degree_aware =
      cfg.mapping_policy == MappingPolicy::kDegreeAware;

  const LayerPlan layer_plan = plan_layer(cfg, dataset, wf, traffic_params);
  const SubAcceleratorPlan& plan = layer_plan.sub_accelerators;
  const graph::Tiling& tiling = layer_plan.tiling;
  const DramTraffic& traffic = layer_plan.traffic;

  // ---- sample tiles for mapping quality -----------------------------------
  const std::size_t num_tiles = tiling.num_tiles();
  const std::size_t samples = std::min<std::size_t>(cal_.sampled_tiles,
                                                    num_tiles);
  double sum_avg_hops = 0.0;
  double sum_cross_frac = 0.0;
  double sum_imbalance = 0.0;
  double sum_bypass_frac = 0.0;
  std::uint64_t switch_writes_per_tile = 0;
  for (std::size_t i = 0; i < samples; ++i) {
    const std::size_t ti = i * num_tiles / samples;
    const graph::Tile& tile = tiling.tiles[ti];
    const mapping::Mapping map = map_tile(cfg, g, layer_plan, ti);
    const noc::NocConfig noc_cfg =
        degree_aware ? compose_noc_config(plan, map)
                     : noc::NocConfig(cfg.array_dim);
    const auto q = mapping::evaluate_mapping(g, tile.vertex_begin,
                                             tile.vertex_end, map, noc_cfg);
    const double msgs = static_cast<double>(q.cross_pe_messages);
    const double all_edges =
        std::max(1.0, static_cast<double>(q.cross_pe_messages + q.local_edges));
    sum_avg_hops += q.avg_hops;
    sum_cross_frac += msgs / all_edges;
    sum_imbalance += q.pe_load_imbalance();
    sum_bypass_frac +=
        msgs > 0.0 ? static_cast<double>(q.bypass_messages) / msgs : 0.0;
    switch_writes_per_tile =
        std::max(switch_writes_per_tile, noc_cfg.total_switch_states());
  }
  const double avg_hops = sum_avg_hops / static_cast<double>(samples);
  const double cross_frac = sum_cross_frac / static_cast<double>(samples);
  const double imbalance = sum_imbalance / static_cast<double>(samples);
  const double bypass_frac = sum_bypass_frac / static_cast<double>(samples);

  // ---- per-layer totals ----------------------------------------------------
  const double m = static_cast<double>(wf.num_edges);
  const double n = static_cast<double>(wf.num_vertices);
  auto flits_of = [&](double bytes) {
    return std::ceil(bytes / static_cast<double>(cfg.noc.flit_bytes));
  };
  const auto msg_bytes = static_cast<double>(layer_plan.agg_msg_bytes);
  const double flits_per_msg = flits_of(msg_bytes);
  const double cross_msgs = m * cross_frac;

  // Flit-hop volume of the three traffic classes: aggregation gathers
  // (sampled hop counts), m_v slices scattering to the weight-stationary
  // ring PEs just across the region boundary, and the single-hop H-wide
  // partial rotations inside the rings (mirrors the cycle engine dataflow).
  const double agg_flit_hops = cross_msgs * flits_per_msg * avg_hops;
  double mv_flit_hops = 0.0;
  double ring_flit_hops = 0.0;
  const auto ring_size =
      static_cast<double>(std::clamp<std::uint32_t>(cfg.ring_size, 2,
                                                    cfg.array_dim));
  if (!plan.single_accelerator) {
    const double boundary_hops =
        static_cast<double>(plan.sub_a.rows()) / 2.0 + 3.0;
    const double h_bytes = static_cast<double>(wf.layer.out_dim) *
                           static_cast<double>(elem);
    if (wf.update_first) {
      // Transform runs on locally-resident slices; only the H-wide
      // transformed vector crosses back into sub-A.
      mv_flit_hops = n * flits_of(h_bytes) * boundary_hops;
    } else {
      const double slice = std::ceil(static_cast<double>(fv) / ring_size);
      mv_flit_hops = n * ring_size *
                     flits_of(slice * static_cast<double>(elem)) *
                     boundary_hops;
    }
    ring_flit_hops = n * (ring_size - 1.0) * flits_of(h_bytes);
  }
  const double total_flit_hops =
      agg_flit_hops + mv_flit_hops + ring_flit_hops;

  // On-chip communication time: array-level transport throughput, bounded
  // below by the hotspot PE's ejection serialisation.
  const double a_pes = static_cast<double>(plan.sub_a_pes());
  const double active_pes =
      plan.single_accelerator ? a_pes
                              : static_cast<double>(cfg.num_pes());
  const double transport =
      total_flit_hops / (cal_.flit_hops_per_cycle_per_pe * active_pes);
  // Hotspot PEs under the degree-aware policy sit on S_PEs whose row and
  // column bypass endpoints roughly triple their usable ingress bandwidth.
  const double hotspot_ports = degree_aware ? 3.0 : 1.0;
  const double hotspot = (2.0 * cross_msgs / std::max(1.0, a_pes)) *
                         imbalance * flits_per_msg *
                         cal_.hotspot_serialization / hotspot_ports;
  const double comm_cycles = std::max(transport, hotspot);

  // Compute time per stage (Algorithm 2's estimates plus task overheads).
  const double ops_a =
      static_cast<double>(wf.phase(gnn::Phase::kEdgeUpdate).total_ops +
                          wf.phase(gnn::Phase::kAggregation).total_ops);
  const double ops_b =
      static_cast<double>(wf.phase(gnn::Phase::kVertexUpdate).total_ops);
  const double tasks_a =
      m * (wf.needs_edge_update() ? 2.0 : 1.0);  // EU task + accumulate
  double compute_a = ops_a / (a_pes * cfg.flops_per_pe) +
                     tasks_a * cal_.per_task_overhead /
                         std::max(1.0, a_pes);
  // Per-PE serialization: the busiest PE executes its vertices' edge tasks
  // one after another. With per-edge work w and E_max incident edges on the
  // hotspot PE, that PE alone needs E_max * w cycles — the critical path
  // for edge-heavy models (EdgeConv, pooling) regardless of array size.
  {
    const double per_edge_ops =
        m > 0 ? ops_a / m : 0.0;  // edge update + accumulate per edge
    const double max_pe_edges =
        imbalance * cross_msgs / std::max(1.0, a_pes);
    const double hotspot_compute =
        max_pe_edges * (per_edge_ops / cfg.flops_per_pe +
                        cal_.per_task_overhead);
    compute_a = std::max(compute_a, hotspot_compute);
  }
  const double b_pes = std::max(1.0, static_cast<double>(plan.sub_b_pes()));
  const double compute_b =
      plan.single_accelerator
          ? 0.0
          : ops_b / (b_pes * cfg.flops_per_pe) +
                static_cast<double>(wf.num_vertices) *
                    static_cast<double>(std::min<std::uint32_t>(
                        cfg.ring_size, cfg.array_dim)) *
                    cal_.per_task_overhead / b_pes;

  // DRAM time: streamed at calibrated efficiency.
  const double dram_cycles =
      static_cast<double>(traffic.total()) /
      (cfg.dram.peak_bytes_per_cycle() * cal_.dram_efficiency);

  // The three engines (DRAM, sub-A with its NoC, sub-B) run as a pipeline
  // over tiles: steady-state throughput is set by the slowest stage.
  const double stage = std::max({compute_a, comm_cycles, compute_b});
  const double fill = (compute_a + comm_cycles + compute_b - stage) /
                      std::max(1.0, static_cast<double>(num_tiles));
  const double total = std::max(stage + fill, dram_cycles);

  // ---- metrics -------------------------------------------------------------
  RunMetrics metrics = plan_metrics(cfg, wf, layer_plan);
  metrics.compute_cycles = static_cast<Cycle>(compute_a + compute_b);
  metrics.onchip_comm_cycles = static_cast<Cycle>(comm_cycles);
  metrics.dram_cycles = static_cast<Cycle>(dram_cycles);
  metrics.total_cycles =
      static_cast<Cycle>(total) + metrics.reconfig_cycles;
  metrics.dram_accesses = traffic.total() / cfg.dram.burst_bytes;
  metrics.noc_messages = static_cast<std::uint64_t>(cross_msgs);
  metrics.avg_hops = avg_hops;
  metrics.bypass_messages =
      static_cast<std::uint64_t>(cross_msgs * bypass_frac);
  metrics.switch_writes = switch_writes_per_tile * num_tiles;

  // Per-phase attribution from the closed-form terms — same schema and the
  // same sum invariants as the cycle engine (phase noc_messages sum to
  // noc_messages; the plan attributed the DRAM bytes). Sub-A's compute is
  // split between edge update and aggregation by op count; aggregation also
  // owns the gather traffic's transport time, vertex update sub-B's ring
  // compute. Cross-PE gather messages are aggregation; the slice/ring/
  // transform traffic is not separately counted in cross_msgs, so vertex
  // update reports zero messages here.
  {
    const double eu_ops =
        static_cast<double>(wf.phase(gnn::Phase::kEdgeUpdate).total_ops);
    const double eu_frac = ops_a > 0.0 ? eu_ops / ops_a : 0.0;
    metrics.phase(gnn::Phase::kEdgeUpdate).active_cycles =
        static_cast<Cycle>(compute_a * eu_frac);
    metrics.phase(gnn::Phase::kAggregation).active_cycles =
        static_cast<Cycle>(compute_a * (1.0 - eu_frac) + comm_cycles);
    metrics.phase(gnn::Phase::kVertexUpdate).active_cycles =
        static_cast<Cycle>(compute_b);
    metrics.phase(gnn::Phase::kAggregation).noc_messages =
        metrics.noc_messages;
  }

  metrics.events.fp_multiplies = wf.total_ops() / 2;
  metrics.events.fp_adds = wf.total_ops() - metrics.events.fp_multiplies;
  metrics.events.dram_bytes = metrics.dram_bytes;
  // Energy charges payload bytes x hops (header/padding excluded), matching
  // the baselines' accounting granularity.
  const double payload_hops =
      cross_msgs * msg_bytes * avg_hops +
      (mv_flit_hops + ring_flit_hops) * static_cast<double>(cfg.noc.flit_bytes);
  const auto payload_hop_bytes = static_cast<Bytes>(payload_hops);
  metrics.events.bypass_link_bytes =
      static_cast<Bytes>(static_cast<double>(payload_hop_bytes) * bypass_frac);
  metrics.events.noc_link_bytes =
      payload_hop_bytes - metrics.events.bypass_link_bytes;
  metrics.events.router_bytes = payload_hop_bytes;
  // Operand + result traffic through the distributed bank buffers.
  metrics.events.sram_large_bytes =
      2 * static_cast<Bytes>(cross_msgs) * fv * elem +
      2 * traffic.input_features + traffic.output_features;
  metrics.events.reconfig_switch_writes = metrics.switch_writes;
  metrics.events.active_cycles = metrics.total_cycles;
  metrics.energy =
      energy::compute_energy(metrics.events, energy::EnergyTable{});
  return metrics;
}

}  // namespace aurora::core
