// Aurora's per-layer set-up (paper Sec III-E, Fig 3) in one place: the
// Algorithm 2 split, the sub-accelerators it forms, the tiling, the layer's
// DRAM traffic and each tile's Algorithm 1 parameters. Every engine executes
// the LayerPlan that plan_layer() returns and re-derives none of it.
//
// Sub-accelerator A (edge update + aggregation) takes the top rows of the
// mesh; sub-accelerator B (vertex update) the remaining rows, organised into
// per-row rings whose wrap links ride the row bypass wires. Regions are
// row-granular because the DRAM crossbar feeds whole PE rows.
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/dram_traffic.hpp"
#include "core/metrics.hpp"
#include "gnn/workflow.hpp"
#include "graph/datasets.hpp"
#include "graph/tiling.hpp"
#include "mapping/mapper.hpp"
#include "mapping/region.hpp"
#include "noc/config.hpp"
#include "partition/partition.hpp"

namespace aurora::core {

struct SubAcceleratorPlan {
  mapping::PeRegion sub_a;
  /// Invalid (rows() == 0) when the partition formed a single accelerator.
  mapping::PeRegion sub_b;
  bool single_accelerator = false;
  /// Weight-stationary rings within sub-B, row-major order.
  std::vector<noc::RingConfig> rings;

  [[nodiscard]] std::uint32_t sub_a_pes() const { return sub_a.num_pes(); }
  [[nodiscard]] std::uint32_t sub_b_pes() const {
    return single_accelerator ? 0 : sub_b.num_pes();
  }
  /// Ring handling vertex v (round-robin assignment).
  [[nodiscard]] const noc::RingConfig& ring_for(VertexId v) const;
};

/// Quantise the partition split to rows and build the rings.
[[nodiscard]] SubAcceleratorPlan make_plan(
    const AuroraConfig& config, const partition::PartitionResult& split);

/// Compose the full NoC configuration for one subgraph: sub-A bypass
/// segments from the degree-aware mapping plus sub-B ring wrap segments and
/// ring overlays.
[[nodiscard]] noc::NocConfig compose_noc_config(
    const SubAcceleratorPlan& plan, const mapping::Mapping& mapping);

/// Every per-layer decision an engine executes.
struct LayerPlan {
  partition::PartitionResult split;
  SubAcceleratorPlan sub_accelerators;
  /// Tiles sized to buffer_fill_fraction of the whole distributed buffer.
  graph::TilingParams tiling_params;
  graph::Tiling tiling;
  DramTraffic traffic;
  /// Bytes of one aggregation message. Sparse input features stay
  /// compressed on chip unless a MatVec-style edge update densifies them;
  /// update-first traffic is dense edge_feature_dim-wide vectors.
  Bytes agg_msg_bytes = 0;
  /// Algorithm 1 parameters of each tile, in tile order.
  std::vector<mapping::MapperParams> mapper_params;
};

[[nodiscard]] LayerPlan plan_layer(const AuroraConfig& config,
                                   const graph::Dataset& dataset,
                                   const gnn::Workflow& workflow,
                                   const DramTrafficParams& traffic);

/// Tile `tile` of `plan` mapped under config.mapping_policy: Algorithm 1,
/// or the hashing baseline (no S_PEs).
[[nodiscard]] mapping::Mapping map_tile(const AuroraConfig& config,
                                        const graph::CsrGraph& graph,
                                        const LayerPlan& plan,
                                        std::size_t tile);

/// The plan's share of a run's metrics: the split (partition_a/b,
/// utilization), num_subgraphs, one reconfiguration per tile with the
/// non-overlapped first one (2K-1 cycles plus the heuristics' latency), and
/// the DRAM bytes, per phase by the consumer rule: tile loads feed the
/// first phase that reads them, weights and output stores the producer of
/// the final features.
[[nodiscard]] RunMetrics plan_metrics(const AuroraConfig& config,
                                      const gnn::Workflow& workflow,
                                      const LayerPlan& plan);

}  // namespace aurora::core
