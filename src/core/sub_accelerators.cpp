#include "core/sub_accelerators.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace aurora::core {

const noc::RingConfig& SubAcceleratorPlan::ring_for(VertexId v) const {
  AURORA_CHECK_MSG(!rings.empty(), "plan has no vertex-update rings");
  return rings[v % rings.size()];
}

SubAcceleratorPlan make_plan(const AuroraConfig& config,
                             const partition::PartitionResult& split) {
  const std::uint32_t k = config.array_dim;
  AURORA_CHECK(k >= 2);
  SubAcceleratorPlan plan;

  if (split.single_accelerator) {
    plan.single_accelerator = true;
    plan.sub_a = mapping::PeRegion::full(k);
    plan.sub_b = {k, 0, 0};
    return plan;
  }

  // Quantise the PE split to rows, keeping at least one row per side.
  const double frac = static_cast<double>(split.a) /
                      static_cast<double>(split.a + split.b);
  auto rows_a = static_cast<std::uint32_t>(
      std::lround(frac * static_cast<double>(k)));
  rows_a = std::clamp<std::uint32_t>(rows_a, 1, k - 1);
  plan.sub_a = {k, 0, rows_a};
  plan.sub_b = {k, rows_a, k};

  // Rings: split each sub-B row into chunks of ring_size consecutive PEs.
  const std::uint32_t ring_size = std::clamp<std::uint32_t>(
      std::min(config.ring_size, k), 2, k);
  for (std::uint32_t row = rows_a; row < k; ++row) {
    std::uint32_t col = 0;
    while (col < k) {
      std::uint32_t len = std::min(ring_size, k - col);
      // A trailing single PE cannot form a ring; fold it into the previous
      // chunk by extending this one.
      if (k - col - len == 1) ++len;
      noc::RingConfig ring;
      for (std::uint32_t c = col; c < col + len && c < k; ++c) {
        ring.nodes.push_back(row * k + c);
      }
      if (ring.nodes.size() >= 2) {
        plan.rings.push_back(std::move(ring));
      }
      col += len;
    }
  }
  AURORA_CHECK(!plan.rings.empty());
  return plan;
}

noc::NocConfig compose_noc_config(const SubAcceleratorPlan& plan,
                                  const mapping::Mapping& mapping) {
  // Start from the degree-aware bypass configuration for sub-A...
  noc::NocConfig config = mapping::make_bypass_config(mapping);
  if (plan.single_accelerator) return config;

  // ...then add the ring wrap segments and ring overlays for sub-B. Rings of
  // length 2 wrap over the mesh link itself and need no segment.
  for (const auto& ring : plan.rings) {
    const auto k = mapping.region.mesh_k;
    const noc::NodeId first = ring.nodes.front();
    const noc::NodeId last = ring.nodes.back();
    const std::uint32_t row = first / k;
    const std::uint32_t c0 = first % k;
    const std::uint32_t c1 = last % k;
    if (c1 - c0 >= 2) {
      config.add_row_segment({row, c0, c1});
    }
    config.add_ring(ring);
  }
  return config;
}

LayerPlan plan_layer(const AuroraConfig& config, const graph::Dataset& dataset,
                     const gnn::Workflow& workflow,
                     const DramTrafficParams& traffic) {
  LayerPlan plan;
  plan.split = partition::partition(partition::partition_input_from_workflow(
      workflow, config.num_pes(), config.flops_per_pe));
  plan.sub_accelerators = make_plan(config, plan.split);

  plan.tiling_params.feature_bytes =
      feature_vector_bytes(workflow.layer.in_dim, traffic);
  plan.tiling_params.edge_bytes = 8;
  // Tiles size against the WHOLE distributed buffer: features spread across
  // both sub-accelerators (the DRAM crossbar feeds every PE row), with
  // weights confined to sub-B (paper Sec VI-B: "fully utilize the on-chip
  // buffer capacity").
  plan.tiling_params.capacity_bytes = static_cast<Bytes>(
      config.buffer_fill_fraction *
      static_cast<double>(config.total_buffer_bytes()));
  plan.tiling = graph::tile_graph(dataset.graph, plan.tiling_params);
  plan.traffic = aurora_dram_traffic(dataset, workflow, plan.tiling, traffic);

  const auto& eu_ops = workflow.phase(gnn::Phase::kEdgeUpdate).ops;
  const bool eu_densifies =
      std::find(eu_ops.begin(), eu_ops.end(), gnn::OpKind::kMatVec) !=
      eu_ops.end();
  plan.agg_msg_bytes =
      (workflow.update_first || eu_densifies)
          ? static_cast<Bytes>(workflow.edge_feature_dim) * config.element_bytes
          : plan.tiling_params.feature_bytes;

  mapping::MapperParams params;
  params.region = plan.sub_accelerators.sub_a;
  // C_PE: buffer capacity reserved per S_PE for high-degree vertices,
  // capped so hotspot vertices spread over the S_PEs instead of piling onto
  // a few (Algorithm 1 maps them round-robin).
  params.c_pe_slots = std::clamp<std::uint32_t>(
      static_cast<std::uint32_t>(
          config.pe.bank_buffer_bytes /
          std::max<Bytes>(1, plan.tiling_params.feature_bytes) / 16),
      1, 8);
  plan.mapper_params.reserve(plan.tiling.num_tiles());
  for (const graph::Tile& tile : plan.tiling.tiles) {
    params.pe_vertex_slots = std::max<std::uint32_t>(
        4, 2 * tile.num_vertices() / plan.sub_accelerators.sub_a_pes() + 2);
    plan.mapper_params.push_back(params);
  }
  return plan;
}

mapping::Mapping map_tile(const AuroraConfig& config,
                          const graph::CsrGraph& graph, const LayerPlan& plan,
                          std::size_t tile) {
  const graph::Tile& t = plan.tiling.tiles.at(tile);
  const mapping::MapperParams& params = plan.mapper_params[tile];
  return config.mapping_policy == MappingPolicy::kDegreeAware
             ? mapping::degree_aware_map(graph, t.vertex_begin, t.vertex_end,
                                         params)
             : mapping::hashing_map(graph, t.vertex_begin, t.vertex_end,
                                    params);
}

RunMetrics plan_metrics(const AuroraConfig& config,
                        const gnn::Workflow& workflow, const LayerPlan& plan) {
  RunMetrics metrics;
  metrics.partition_a = plan.sub_accelerators.sub_a_pes();
  metrics.partition_b = plan.sub_accelerators.sub_b_pes();
  metrics.utilization =
      plan.split.single_accelerator ? 1.0 : plan.split.utilization();
  metrics.num_subgraphs = static_cast<std::uint32_t>(plan.tiling.num_tiles());
  // Each tile's reconfiguration overlaps the previous tile's compute; only
  // the first one is exposed.
  metrics.reconfigurations = plan.tiling.num_tiles();
  metrics.reconfig_cycles =
      config.reconfiguration_cycles() + AuroraConfig::kHeuristicCycles;

  const DramTraffic& t = plan.traffic;
  metrics.dram_bytes = t.total();
  const gnn::Phase load_phase = workflow.needs_edge_update()
                                    ? gnn::Phase::kEdgeUpdate
                                    : gnn::Phase::kAggregation;
  const gnn::Phase out_phase =
      workflow.needs_vertex_update() ? gnn::Phase::kVertexUpdate : load_phase;
  metrics.phase(load_phase).dram_bytes += t.input_features + t.halo_features +
                                          t.adjacency + t.edge_embeddings;
  metrics.phase(out_phase).dram_bytes +=
      t.weights + t.output_features + t.intermediate_spill;
  return metrics;
}

}  // namespace aurora::core
