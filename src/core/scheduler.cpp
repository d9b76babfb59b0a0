#include "core/scheduler.hpp"

#include <algorithm>

namespace aurora::core {

std::string job_signature(const GnnJob& job) {
  std::string key = gnn::model_name(job.model);
  for (const gnn::LayerConfig& layer : job.layers) {
    key += '/';
    key += std::to_string(layer.in_dim);
    key += 'x';
    key += std::to_string(layer.out_dim);
    key += '@';
    key += std::to_string(layer.element_bytes);
  }
  return key;
}

Cycle lead_dram_cycles(const RunMetrics& metrics) {
  return metrics.dram_cycles / std::max<Cycle>(1, metrics.num_subgraphs);
}

Cycle tail_compute_cycles(const RunMetrics& metrics) {
  return metrics.compute_cycles / std::max<Cycle>(1, metrics.num_subgraphs);
}

Cycle overlap_cycles(Cycle prev_compute_tail, const RunMetrics& next) {
  return std::min(prev_compute_tail, lead_dram_cycles(next));
}

}  // namespace aurora::core
