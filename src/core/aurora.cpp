#include "core/aurora.hpp"

#include "common/error.hpp"

namespace aurora::core {

AuroraConfig AuroraConfig::paper() {
  AuroraConfig c;
  c.array_dim = 32;
  c.noc.k = 32;
  c.pe.bank_buffer_bytes = 100 * 1024;
  c.mode = SimMode::kAnalytic;  // cycle-accurate at paper scale is untenable
  return c;
}

AuroraConfig AuroraConfig::bench() {
  AuroraConfig c;
  c.array_dim = 16;
  c.noc.k = 16;
  c.pe.bank_buffer_bytes = 100 * 1024;
  c.mode = SimMode::kCycleAccurate;
  return c;
}

GnnJob GnnJob::two_layer(gnn::GnnModel model, const graph::DatasetSpec& spec,
                         std::uint32_t hidden_dim) {
  GnnJob job;
  job.model = model;
  job.layers.push_back({spec.feature_dim, hidden_dim});
  job.layers.push_back({hidden_dim, spec.num_classes});
  return job;
}

GnnJob GnnJob::preset(gnn::GnnModel model, const graph::DatasetSpec& spec,
                      std::uint32_t hidden_dim) {
  std::size_t depth = 2;
  switch (model) {
    case gnn::GnnModel::kGin:
      depth = 5;
      break;
    case gnn::GnnModel::kEdgeConv1:
    case gnn::GnnModel::kEdgeConv5:
      depth = 4;
      break;
    default:
      break;
  }
  GnnJob job;
  job.model = model;
  job.layers.push_back({spec.feature_dim, hidden_dim});
  for (std::size_t i = 2; i < depth; ++i) {
    job.layers.push_back({hidden_dim, hidden_dim});
  }
  job.layers.push_back({hidden_dim, std::max<std::uint32_t>(
                                        1, spec.num_classes)});
  return job;
}

RunMetrics& RunMetrics::operator+=(const RunMetrics& other) {
  total_cycles += other.total_cycles;
  compute_cycles += other.compute_cycles;
  onchip_comm_cycles += other.onchip_comm_cycles;
  dram_cycles += other.dram_cycles;
  reconfig_cycles += other.reconfig_cycles;
  dram_bytes += other.dram_bytes;
  dram_accesses += other.dram_accesses;
  noc_messages += other.noc_messages;
  // Weighted by message count so the combined average stays meaningful.
  const double total_msgs =
      static_cast<double>(noc_messages);
  if (total_msgs > 0) {
    avg_hops = (avg_hops * (total_msgs -
                            static_cast<double>(other.noc_messages)) +
                other.avg_hops * static_cast<double>(other.noc_messages)) /
               total_msgs;
  }
  bypass_messages += other.bypass_messages;
  events += other.events;
  energy += other.energy;
  partition_a = other.partition_a;  // keep the latest layer's decision
  partition_b = other.partition_b;
  num_subgraphs += other.num_subgraphs;
  reconfigurations += other.reconfigurations;
  switch_writes += other.switch_writes;
  utilization = (utilization + other.utilization) / 2.0;
  if (!other.noc_heatmap.empty()) noc_heatmap = other.noc_heatmap;
  if (!other.pe_heatmap.empty()) pe_heatmap = other.pe_heatmap;
  counters.merge(other.counters);
  pe_utilization = (pe_utilization + other.pe_utilization) / 2.0;
  for (std::size_t p = 0; p < phases.size(); ++p) phases[p] += other.phases[p];
  noc_packet_latency.merge(other.noc_packet_latency);
  dram_request_latency.merge(other.dram_request_latency);
  return *this;
}

AuroraAccelerator::AuroraAccelerator(const AuroraConfig& config)
    : config_(config), cycle_engine_(config), analytic_model_(config) {
  AURORA_CHECK_MSG(config.noc.k == config.array_dim,
                   "NoC mesh size must match the PE array dimension");
}

RunMetrics AuroraAccelerator::run_layer(const graph::Dataset& dataset,
                                        gnn::GnnModel model,
                                        const gnn::LayerConfig& layer,
                                        std::uint32_t layer_index) {
  const gnn::Workflow wf = gnn::generate_workflow(
      model, layer, dataset.num_vertices(), dataset.num_edges());
  DramTrafficParams traffic;
  traffic.element_bytes = config_.element_bytes;
  traffic.sparse_input_features = (layer_index == 0);
  traffic.input_feature_density = dataset.spec.feature_density;
  if (config_.mode == SimMode::kCycleAccurate) {
    return cycle_engine_.run_layer(dataset, wf, traffic);
  }
  return analytic_model_.run_layer(dataset, wf, traffic);
}

RunMetrics AuroraAccelerator::run(const graph::Dataset& dataset,
                                  const GnnJob& job) {
  AURORA_CHECK(!job.layers.empty());
  RunMetrics total;
  for (std::size_t i = 0; i < job.layers.size(); ++i) {
    total += run_layer(dataset, job.model, job.layers[i],
                       static_cast<std::uint32_t>(i));
  }
  return total;
}

}  // namespace aurora::core
