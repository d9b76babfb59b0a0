#include <algorithm>
#include <cmath>

#include "baselines/models.hpp"

namespace aurora::baselines {

CoverageRow RegnnModel::coverage() const {
  CoverageRow row;
  row.c_gnn = true;
  row.mp_gnn = true;      // neighborhood message passing
  row.message_passing = true;
  return row;
}

core::RunMetrics RegnnModel::run_layer(
    const graph::Dataset& ds, const gnn::Workflow& wf,
    const core::DramTrafficParams& traffic) const {
  const double eb = static_cast<double>(chip_.element_bytes);
  const double n = ds.num_vertices();
  const double gini = ds.degree_stats.gini;
  const double avg_deg = ds.degree_stats.mean_degree;
  const double buffer = static_cast<double>(chip_.onchip_buffer_bytes);

  // Redundancy elimination: overlapping neighborhoods are aggregated once
  // and reused. Dense, clustered graphs expose more overlap; rho is the
  // fraction of aggregation work that remains.
  const double rho = std::clamp(0.85 - 0.2 * std::min(1.0, avg_deg / 50.0) -
                                    0.1 * gini,
                                0.5, 0.9);

  // --- DRAM ---------------------------------------------------------------
  // The redundancy cache cuts a share of neighbor fetches; the fixed
  // graph-engine buffer partition misses the rest, and the heterogeneous
  // engines spill part of the intermediate between graph and neural stages.
  const double x_stored = stored_feature_bytes(ds, wf.layer.in_dim, traffic);
  const double x_onchip = dense_feature_bytes(ds, wf.layer.in_dim);
  const double graph_buffer = 0.5 * buffer;  // fixed engine partition
  const double feature_reads =
      x_stored * capacity_refetch(x_onchip, graph_buffer, 0.4) +
      gather_miss_bytes(static_cast<double>(ds.num_edges()), x_stored / n,
                        x_onchip, graph_buffer, 0.5 * rho);
  // ReGNN pipelines aggregation into combination (no m_v spill); its extra
  // DRAM cost is the redundancy-search metadata stream.
  const double redundancy_metadata = static_cast<double>(ds.num_edges()) * 8.0;
  const double weight_bytes =
      static_cast<double>(wf.phase(gnn::Phase::kVertexUpdate).weight_bytes +
                          wf.phase(gnn::Phase::kEdgeUpdate).weight_bytes);
  const double outputs = n * wf.layer.out_dim * eb;

  Estimates est;
  est.dram_bytes = feature_reads + adjacency_bytes(ds) + redundancy_metadata +
                   weight_bytes * 2.0 + outputs;

  // --- compute --------------------------------------------------------------
  // Redundancy elimination removes (1 - rho) of the aggregation operations;
  // the heterogeneous 1:3 engine split mismatches some workloads.
  const double peak = chip_.peak_ops_per_cycle();
  const double ops_graph =
      (static_cast<double>(wf.phase(gnn::Phase::kAggregation).total_ops) +
       static_cast<double>(wf.phase(gnn::Phase::kEdgeUpdate).total_ops)) *
      rho;
  const double ops_neural =
      static_cast<double>(wf.phase(gnn::Phase::kVertexUpdate).total_ops);
  est.compute_cycles =
      std::max(ops_graph / (peak * 0.25), ops_neural / (peak * 0.75));
  est.total_ops = static_cast<OpCount>(ops_graph + ops_neural);

  // --- on-chip communication -------------------------------------------------
  const double gather_bytes =
      static_cast<double>(wf.phase(gnn::Phase::kAggregation).num_messages) *
      static_cast<double>(wf.phase(gnn::Phase::kAggregation).message_bytes) *
      rho;
  est.comm_cycles = gather_bytes / 768.0 * (1.0 + 0.8 * gini);

  est.serial_fraction = 0.3;
  est.sram_amplification = 2.2;
  est.avg_hops = 2.0;
  return assemble(est, wf);
}

}  // namespace aurora::baselines
