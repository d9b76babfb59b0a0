#include "core/functional_engine.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "core/sub_accelerators.hpp"
#include "gnn/workflow.hpp"
#include "pe/datapath.hpp"
#include "pe/ppu.hpp"

namespace aurora::core {
namespace {

/// Column slice [lo, hi) of w, copied into the ring PE's local weight store.
gnn::Matrix column_slice(const gnn::Matrix& w, std::size_t lo,
                         std::size_t hi) {
  gnn::Matrix s(w.rows(), hi - lo);
  for (std::size_t r = 0; r < w.rows(); ++r) {
    for (std::size_t c = lo; c < hi; ++c) s.at(r, c - lo) = w.at(r, c);
  }
  return s;
}

}  // namespace

FunctionalEngine::FunctionalEngine(const AuroraConfig& config)
    : config_(config) {
  AURORA_CHECK(config.array_dim >= 2);
}

gnn::Matrix FunctionalEngine::run_layer(const graph::Dataset& dataset,
                                        gnn::GnnModel model,
                                        const gnn::Matrix& x,
                                        const gnn::ReferenceParams& params) {
  const graph::CsrGraph& g = dataset.graph;
  const std::size_t n = g.num_vertices();
  AURORA_CHECK(x.rows() == n);
  const std::size_t f = x.cols();
  stats_ = {};

  pe::PeDatapath dp{config_.pe.datapath};
  const pe::Ppu ppu{config_.pe.ppu};

  // --- the same decisions the timing engines take ---------------------------
  const std::size_t out_cols =
      gnn::reference_output_dim(model, f, params.w.rows() > 0
                                              ? params.w.rows()
                                              : (params.mlp.empty()
                                                     ? f
                                                     : params.mlp.back().rows()));
  const gnn::LayerConfig layer{static_cast<std::uint32_t>(f),
                               static_cast<std::uint32_t>(out_cols)};
  const gnn::Workflow wf = gnn::generate_workflow(
      model, layer, g.num_vertices(), g.num_edges());
  DramTrafficParams traffic;  // dense input features
  traffic.element_bytes = config_.element_bytes;
  const LayerPlan layer_plan = plan_layer(config_, dataset, wf, traffic);
  const SubAcceleratorPlan& plan = layer_plan.sub_accelerators;
  const graph::Tiling& tiling = layer_plan.tiling;

  stats_.tiles = static_cast<std::uint32_t>(tiling.num_tiles());
  stats_.sub_a_pes = plan.sub_a_pes();
  stats_.sub_b_pes = plan.sub_b_pes();

  const std::uint32_t default_stages =
      std::clamp<std::uint32_t>(config_.ring_size, 2, config_.array_dim);
  auto stages_for = [&](VertexId v) -> std::uint32_t {
    if (plan.single_accelerator) return default_stages;
    return static_cast<std::uint32_t>(plan.ring_for(v).nodes.size());
  };

  // Weight-stationary ring execution of y = w * in: the weight columns are
  // sliced across `stages` PEs; each computes the partial product of its
  // m_v slice and the H-wide partial accumulates around the ring.
  auto ring_mat_vec = [&](const gnn::Matrix& w, std::span<const double> in,
                          std::uint32_t stages) {
    AURORA_CHECK(w.cols() == in.size());
    const std::size_t slice = (w.cols() + stages - 1) / stages;
    gnn::Vector partial(w.rows(), 0.0);
    for (std::uint32_t j = 0; j < stages; ++j) {
      const std::size_t lo = static_cast<std::size_t>(j) * slice;
      if (lo >= w.cols()) break;
      const std::size_t hi = std::min(w.cols(), lo + slice);
      const gnn::Matrix ws = column_slice(w, lo, hi);
      dp.configure(pe::PeConfigKind::kMatVec);
      const gnn::Vector part = dp.run_mat_vec(ws, in.subspan(lo, hi - lo));
      dp.configure(pe::PeConfigKind::kAccumulate);
      dp.run_accumulate(partial, part);
      ++stats_.ring_stages;
    }
    return partial;
  };

  auto accumulate = [&](gnn::Vector& acc, std::span<const double> v) {
    dp.configure(pe::PeConfigKind::kAccumulate);
    dp.run_accumulate(acc, v);
    ++stats_.accumulations;
  };
  auto scalar_vec = [&](double s, std::span<const double> v) {
    dp.configure(pe::PeConfigKind::kScalarVec);
    ++stats_.edge_tasks;
    return dp.run_scalar_vec(s, v);
  };
  auto activate = [&](pe::Activation act, const gnn::Vector& v) {
    ++stats_.ppu_activations;
    return ppu.apply(act, v);
  };

  gnn::Matrix out(n, out_cols);
  auto store = [&](VertexId v, const gnn::Vector& y) {
    AURORA_CHECK(y.size() == out_cols);
    std::copy(y.begin(), y.end(), out.row(v).begin());
  };

  // G-GCN / GraphSAGE-Pool hoist a per-vertex transform; compute it tile by
  // tile through the ring path like the hardware would.
  gnn::Matrix gate_u, gate_v, pooled;
  if (model == gnn::GnnModel::kGGcn) {
    gate_u = gnn::Matrix(n, f);
    gate_v = gnn::Matrix(n, f);
    for (VertexId v = 0; v < n; ++v) {
      const auto a = ring_mat_vec(params.w_u, x.row(v), stages_for(v));
      const auto b = ring_mat_vec(params.w_v, x.row(v), stages_for(v));
      std::copy(a.begin(), a.end(), gate_u.row(v).begin());
      std::copy(b.begin(), b.end(), gate_v.row(v).begin());
    }
  }
  if (model == gnn::GnnModel::kGraphSagePool) {
    pooled = gnn::Matrix(n, f);
    for (VertexId v = 0; v < n; ++v) {
      gnn::Vector p = ring_mat_vec(params.w_pool, x.row(v), stages_for(v));
      accumulate(p, params.bias_pool);
      p = activate(pe::Activation::kSigmoid, p);
      std::copy(p.begin(), p.end(), pooled.row(v).begin());
    }
  }

  // --- per-tile distributed execution ---------------------------------------
  for (const graph::Tile& tile : tiling.tiles) {
    for (VertexId v = tile.vertex_begin; v < tile.vertex_end; ++v) {
      const auto nb = g.neighbors(v);
      switch (model) {
        case gnn::GnnModel::kGcn: {
          const double dv = static_cast<double>(g.degree(v)) + 1.0;
          gnn::Vector m(f, 0.0);
          accumulate(m, scalar_vec(1.0 / dv, x.row(v)));
          for (VertexId u : nb) {
            const double du = static_cast<double>(g.degree(u)) + 1.0;
            accumulate(m, scalar_vec(1.0 / std::sqrt(du * dv), x.row(u)));
          }
          gnn::Vector y = ring_mat_vec(params.w, m, stages_for(v));
          accumulate(y, params.bias);
          store(v, activate(pe::Activation::kRelu, y));
          break;
        }
        case gnn::GnnModel::kGraphSageMean: {
          gnn::Vector m(f, 0.0);
          if (nb.empty()) {
            accumulate(m, x.row(v));
          } else {
            for (VertexId u : nb) accumulate(m, x.row(u));
            m = scalar_vec(1.0 / static_cast<double>(nb.size()), m);
          }
          store(v, ring_mat_vec(params.w, m, stages_for(v)));
          break;
        }
        case gnn::GnnModel::kGin: {
          gnn::Vector m = scalar_vec(1.0 + params.epsilon, x.row(v));
          for (VertexId u : nb) accumulate(m, x.row(u));
          gnn::Vector h1 = ring_mat_vec(params.w, m, stages_for(v));
          accumulate(h1, params.bias);
          h1 = activate(pe::Activation::kRelu, h1);
          gnn::Vector y = ring_mat_vec(params.w2, h1, stages_for(v));
          accumulate(y, params.bias2);
          store(v, y);
          break;
        }
        case gnn::GnnModel::kCommNet: {
          gnn::Vector m(f, 0.0);
          for (VertexId u : nb) accumulate(m, x.row(u));
          store(v, ring_mat_vec(params.w, m, stages_for(v)));
          break;
        }
        case gnn::GnnModel::kVanillaAttention:
        case gnn::GnnModel::kAgnn: {
          gnn::Vector m(f, 0.0);
          for (VertexId u : nb) {
            dp.configure(pe::PeConfigKind::kDotProduct);
            const double a = dp.run_dot(x.row(v), x.row(u));
            ++stats_.edge_tasks;
            accumulate(m, scalar_vec(a, x.row(u)));
          }
          store(v, activate(pe::Activation::kSoftmax,
                            ring_mat_vec(params.w, m, stages_for(v))));
          break;
        }
        case gnn::GnnModel::kGGcn: {
          gnn::Vector m(f, 0.0);
          for (VertexId u : nb) {
            gnn::Vector gate(f, 0.0);
            accumulate(gate, gate_u.row(u));
            accumulate(gate, gate_v.row(v));
            gate = activate(pe::Activation::kSigmoid, gate);
            dp.configure(pe::PeConfigKind::kElementwiseMul);
            ++stats_.edge_tasks;
            accumulate(m, dp.run_elementwise_mul(gate, x.row(u)));
          }
          store(v, activate(pe::Activation::kRelu,
                            ring_mat_vec(params.w, m, stages_for(v))));
          break;
        }
        case gnn::GnnModel::kGraphSagePool: {
          gnn::Vector mx(f, 0.0);
          bool first = true;
          for (VertexId u : nb) {
            if (first) {
              mx.assign(pooled.row(u).begin(), pooled.row(u).end());
              first = false;
            } else {
              dp.configure(pe::PeConfigKind::kAccumulate);
              dp.run_elementwise_max(mx, pooled.row(u));
              ++stats_.accumulations;
            }
          }
          const gnn::Vector m = gnn::concat(mx, x.row(v));  // PPU concat
          ++stats_.ppu_activations;
          gnn::Vector y = ring_mat_vec(params.w, m, stages_for(v));
          accumulate(y, params.bias);
          store(v, activate(pe::Activation::kRelu, y));
          break;
        }
        case gnn::GnnModel::kEdgeConv1:
        case gnn::GnnModel::kEdgeConv5: {
          AURORA_CHECK(!params.mlp.empty());
          const std::size_t h = params.mlp.back().rows();
          gnn::Vector mx(h, 0.0);
          bool first = true;
          for (VertexId u : nb) {
            dp.configure(pe::PeConfigKind::kAccumulate);
            gnn::Vector e = dp.run_subtract(x.row(u), x.row(v));
            ++stats_.edge_tasks;
            e = ring_mat_vec(params.mlp[0], e, stages_for(v));
            for (std::size_t l = 1; l < params.mlp.size(); ++l) {
              e = ring_mat_vec(params.mlp[l],
                               activate(pe::Activation::kRelu, e),
                               stages_for(v));
            }
            if (first) {
              mx = e;
              first = false;
            } else {
              dp.configure(pe::PeConfigKind::kAccumulate);
              dp.run_elementwise_max(mx, e);
              ++stats_.accumulations;
            }
          }
          store(v, mx);
          break;
        }
      }
    }
  }
  return out;
}

gnn::Matrix FunctionalEngine::run_layer_sparse(
    const graph::Dataset& dataset, gnn::GnnModel model,
    const gnn::SparseMatrix& x, const gnn::ReferenceParams& params) {
  AURORA_CHECK_MSG(
      gnn::model_category(model) == gnn::GnnCategory::kConvolutional,
      "sparse layer-0 execution is defined for the convolutional models");
  const graph::CsrGraph& g = dataset.graph;
  const std::size_t n = g.num_vertices();
  AURORA_CHECK(x.rows() == n);
  const std::size_t f = x.cols();

  pe::PeDatapath dp{config_.pe.datapath};
  const pe::Ppu ppu{config_.pe.ppu};
  const std::uint32_t stages =
      std::clamp<std::uint32_t>(config_.ring_size, 2, config_.array_dim);

  auto ring_mat_vec = [&](const gnn::Matrix& w, std::span<const double> in) {
    const std::size_t slice = (w.cols() + stages - 1) / stages;
    gnn::Vector partial(w.rows(), 0.0);
    for (std::uint32_t j = 0; j < stages; ++j) {
      const std::size_t lo = static_cast<std::size_t>(j) * slice;
      if (lo >= w.cols()) break;
      const std::size_t hi = std::min(w.cols(), lo + slice);
      const gnn::Matrix ws = column_slice(w, lo, hi);
      dp.configure(pe::PeConfigKind::kMatVec);
      const gnn::Vector part = dp.run_mat_vec(ws, in.subspan(lo, hi - lo));
      dp.configure(pe::PeConfigKind::kAccumulate);
      dp.run_accumulate(partial, part);
      ++stats_.ring_stages;
    }
    return partial;
  };

  const std::size_t out_cols = params.w.rows();
  gnn::Matrix out(n, model == gnn::GnnModel::kGin ? params.w2.rows()
                                                  : out_cols);
  for (VertexId v = 0; v < n; ++v) {
    const auto nb = g.neighbors(v);
    // Aggregate directly in the compressed domain: sparse axpy per neighbor
    // into a dense accumulator (the owner PE's bank-buffer row).
    gnn::Vector m(f, 0.0);
    switch (model) {
      case gnn::GnnModel::kGcn: {
        const double dv = static_cast<double>(g.degree(v)) + 1.0;
        x.add_scaled_row(m, 1.0 / dv, v);
        for (VertexId u : nb) {
          const double du = static_cast<double>(g.degree(u)) + 1.0;
          x.add_scaled_row(m, 1.0 / std::sqrt(du * dv), u);
          ++stats_.edge_tasks;
        }
        break;
      }
      case gnn::GnnModel::kGraphSageMean: {
        if (nb.empty()) {
          x.add_scaled_row(m, 1.0, v);
        } else {
          for (VertexId u : nb) {
            x.add_scaled_row(m, 1.0 / static_cast<double>(nb.size()), u);
            ++stats_.edge_tasks;
          }
        }
        break;
      }
      case gnn::GnnModel::kGin: {
        x.add_scaled_row(m, 1.0 + params.epsilon, v);
        for (VertexId u : nb) {
          x.add_scaled_row(m, 1.0, u);
          ++stats_.edge_tasks;
        }
        break;
      }
      case gnn::GnnModel::kCommNet: {
        for (VertexId u : nb) {
          x.add_scaled_row(m, 1.0, u);
          ++stats_.edge_tasks;
        }
        break;
      }
      default:
        throw Error("unsupported model in sparse path");
    }
    ++stats_.accumulations;

    gnn::Vector y = ring_mat_vec(params.w, m);
    switch (model) {
      case gnn::GnnModel::kGcn: {
        dp.configure(pe::PeConfigKind::kAccumulate);
        dp.run_accumulate(y, params.bias);
        y = ppu.apply(pe::Activation::kRelu, y);
        ++stats_.ppu_activations;
        break;
      }
      case gnn::GnnModel::kGin: {
        dp.configure(pe::PeConfigKind::kAccumulate);
        dp.run_accumulate(y, params.bias);
        y = ppu.apply(pe::Activation::kRelu, y);
        ++stats_.ppu_activations;
        gnn::Vector y2 = ring_mat_vec(params.w2, y);
        dp.configure(pe::PeConfigKind::kAccumulate);
        dp.run_accumulate(y2, params.bias2);
        y = std::move(y2);
        break;
      }
      default:
        break;
    }
    std::copy(y.begin(), y.end(), out.row(v).begin());
  }
  return out;
}

}  // namespace aurora::core
