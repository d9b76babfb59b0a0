// The Aurora accelerator facade: the public entry point that generates each
// layer's workflow and runs it on the engine config.mode selects; the
// engines take every per-layer decision from core::plan_layer.
#pragma once

#include <vector>

#include "core/analytic_model.hpp"
#include "core/config.hpp"
#include "core/cycle_engine.hpp"
#include "core/dram_traffic.hpp"
#include "core/metrics.hpp"
#include "gnn/models.hpp"
#include "gnn/workflow.hpp"
#include "graph/datasets.hpp"

namespace aurora::core {

/// A multi-layer GNN inference job.
struct GnnJob {
  gnn::GnnModel model{};
  /// Layer shapes, first to last. Layer 0 reads the dataset's (sparse)
  /// input features; later layers read the previous layer's dense output.
  std::vector<gnn::LayerConfig> layers;

  /// The canonical 2-layer benchmark configuration used throughout the
  /// evaluation: input -> hidden -> classes.
  [[nodiscard]] static GnnJob two_layer(gnn::GnnModel model,
                                        const graph::DatasetSpec& spec,
                                        std::uint32_t hidden_dim = 16);

  /// Literature-conventional depth per model: GCN/attention 2 layers,
  /// GIN 5 (as in the GIN paper), EdgeConv 4 (DGCNN), others 2.
  [[nodiscard]] static GnnJob preset(gnn::GnnModel model,
                                     const graph::DatasetSpec& spec,
                                     std::uint32_t hidden_dim = 16);
};

class AuroraAccelerator {
 public:
  explicit AuroraAccelerator(const AuroraConfig& config);

  [[nodiscard]] const AuroraConfig& config() const { return config_; }

  /// Run a single layer; `layer_index` 0 reads sparse input features.
  [[nodiscard]] RunMetrics run_layer(const graph::Dataset& dataset,
                                     gnn::GnnModel model,
                                     const gnn::LayerConfig& layer,
                                     std::uint32_t layer_index = 0);

  /// Run all layers of a job and accumulate the metrics.
  [[nodiscard]] RunMetrics run(const graph::Dataset& dataset,
                               const GnnJob& job);

  /// Attach a trace recorder to the cycle engine (no effect in analytic
  /// mode). Enable the tracer before running.
  void set_tracer(sim::Tracer* tracer) { cycle_engine_.set_tracer(tracer); }

  /// Attach a metrics sampler to the cycle engine (no effect in analytic
  /// mode); samples accumulate across layer runs on one time axis.
  void set_sampler(sim::Sampler* sampler) {
    cycle_engine_.set_sampler(sampler);
  }

 private:
  AuroraConfig config_;
  CycleEngine cycle_engine_;
  AnalyticModel analytic_model_;
};

}  // namespace aurora::core
