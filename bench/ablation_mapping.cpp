// Mapping ablation (paper Sec IV / VI-C): degree-aware mapping + bypass
// links vs the CGRA-ME-style hashing mapping on a plain mesh.
//
// Runs the cycle-accurate engine at bench scale (exact flit-level
// contention), then the analytic model at paper scale across all datasets.
//
// Flags: --scale=<f> (cycle-run dataset scale, default per dataset),
//        --hidden=<d>, --seed=<s>.
#include <cstdio>

#include "bench_util.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

namespace {

double cycle_scale(aurora::graph::DatasetId id) {
  using aurora::graph::DatasetId;
  switch (id) {
    case DatasetId::kCora:
    case DatasetId::kCiteseer:
      return 0.2;
    case DatasetId::kPubmed:
      return 0.05;
    case DatasetId::kNell:
      return 0.01;
    case DatasetId::kReddit:
      return 0.002;
  }
  return 0.05;
}

int run(int argc, char** argv) {
  using namespace aurora;
  const auto options = bench::parse_figure_options(argc, argv);

  std::printf(
      "Mapping ablation — degree-aware (Algorithm 1) + bypass NoC vs "
      "hashing (CGRA-ME) on plain mesh\n\n");

  // ---- cycle-accurate comparison at bench scale --------------------------
  std::printf("cycle-accurate engine (16x16 array, GCN hidden layer):\n");
  AsciiTable cyc({"dataset", "aware cycles", "hash cycles", "speedup",
                  "aware hops", "hash hops", "aware comm", "hash comm"});
  for (graph::DatasetId id : graph::kAllDatasets) {
    const double scale =
        options.scale > 0.0 ? options.scale : cycle_scale(id);
    const graph::Dataset ds = graph::make_dataset(id, scale, options.seed);
    const gnn::LayerConfig layer{64, options.hidden_dim};

    core::AuroraConfig cfg = core::AuroraConfig::bench();
    core::AuroraAccelerator aware(cfg);
    cfg.mapping_policy = core::MappingPolicy::kHashing;
    core::AuroraAccelerator hashed(cfg);

    const auto ma = aware.run_layer(ds, gnn::GnnModel::kGcn, layer, 1);
    const auto mh = hashed.run_layer(ds, gnn::GnnModel::kGcn, layer, 1);
    cyc.add_row({graph::dataset_name(id), std::to_string(ma.total_cycles),
                 std::to_string(mh.total_cycles),
                 to_fixed(static_cast<double>(mh.total_cycles) /
                              static_cast<double>(ma.total_cycles),
                          2) + "x",
                 to_fixed(ma.avg_hops, 2), to_fixed(mh.avg_hops, 2),
                 std::to_string(ma.onchip_comm_cycles),
                 std::to_string(mh.onchip_comm_cycles)});
  }
  cyc.print();

  // ---- router-load heatmaps (Fig 2's congestion story, measured) ----------
  {
    const graph::Dataset ds =
        graph::make_dataset(graph::DatasetId::kCora,
                            options.scale > 0.0 ? options.scale : 0.2,
                            options.seed);
    const gnn::LayerConfig layer{64, options.hidden_dim};
    auto heatmap_of = [&](core::MappingPolicy policy) {
      core::AuroraConfig cfg = core::AuroraConfig::bench();
      cfg.mapping_policy = policy;
      core::AuroraAccelerator accel(cfg);
      return accel.run_layer(ds, gnn::GnnModel::kGcn, layer, 1).noc_heatmap;
    };
    std::printf("\nrouter-load heatmaps (Cora, 16x16; darker = more flits):\n");
    std::printf("degree-aware + bypass:\n%s",
                heatmap_of(core::MappingPolicy::kDegreeAware).c_str());
    std::printf("hashing on plain mesh:\n%s",
                heatmap_of(core::MappingPolicy::kHashing).c_str());
  }

  // ---- analytic comparison at paper scale ---------------------------------
  std::printf("\nanalytic model (32x32 array, paper-scale datasets):\n");
  AsciiTable ana({"dataset", "aware comm", "hash comm", "comm ratio",
                  "aware hops", "hash hops", "bypass msgs"});
  core::AuroraConfig cfg = bench::figure_config(options);
  core::AuroraAccelerator aware(cfg);
  cfg.mapping_policy = core::MappingPolicy::kHashing;
  core::AuroraAccelerator hashed(cfg);
  for (graph::DatasetId id : graph::kAllDatasets) {
    const double scale =
        options.scale > 0.0 ? options.scale : bench::default_scale(id);
    const graph::Dataset ds = graph::make_dataset(id, scale, options.seed);
    const gnn::LayerConfig layer{ds.spec.feature_dim, options.hidden_dim};
    const auto ma = aware.run_layer(ds, gnn::GnnModel::kGcn, layer, 0);
    const auto mh = hashed.run_layer(ds, gnn::GnnModel::kGcn, layer, 0);
    ana.add_row({graph::dataset_name(id),
                 std::to_string(ma.onchip_comm_cycles),
                 std::to_string(mh.onchip_comm_cycles),
                 to_fixed(static_cast<double>(mh.onchip_comm_cycles) /
                              static_cast<double>(
                                  std::max<Cycle>(1, ma.onchip_comm_cycles)),
                          2) + "x",
                 to_fixed(ma.avg_hops, 2), to_fixed(mh.avg_hops, 2),
                 std::to_string(ma.bypass_messages)});
  }
  ana.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return aurora::guarded_main(argc, argv, run);
}
