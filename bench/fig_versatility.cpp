// Versatility figure (the thesis behind Table I): execution time per GNN
// model category on Aurora vs every baseline. Baselines execute models
// outside their native coverage by host-side decomposition — the unified,
// reconfigurable architecture is what keeps Aurora's line flat across
// categories.
//
// Flags: --scale=<f>, --hidden=<d>, --seed=<s>.
#include <cstdio>

#include "bench_util.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace aurora;
  const auto options = bench::parse_figure_options(argc, argv);
  const graph::Dataset ds = graph::make_dataset(
      graph::DatasetId::kCora, options.scale > 0.0 ? options.scale : 1.0,
      options.seed);

  std::printf("Versatility — normalized execution time per model "
              "(Cora, one hidden layer F = H = %u)\n"
              "'(host)' marks models outside the baseline's native coverage "
              "(Table I)\n\n",
              options.hidden_dim * 2);

  std::vector<std::string> header = {"model", "category"};
  for (auto id : baselines::kAllBaselines) {
    header.emplace_back(baselines::baseline_name(id));
  }
  header.emplace_back("Aurora");
  AsciiTable table(std::move(header));

  core::AuroraConfig cfg = bench::figure_config(options);
  core::AuroraAccelerator aurora_accel(cfg);
  const auto chip = bench::figure_chip(options);

  const gnn::LayerConfig layer{2 * options.hidden_dim, options.hidden_dim};
  std::array<double, baselines::kAllBaselines.size()> native_sum{};
  std::array<int, baselines::kAllBaselines.size()> native_count{};
  for (gnn::GnnModel model : gnn::kAllModels) {
    const auto wf = gnn::generate_workflow(model, layer, ds.num_vertices(),
                                           ds.num_edges());
    const auto aurora_m = aurora_accel.run_layer(ds, model, layer, 1);
    std::vector<std::string> cells = {
        gnn::model_name(model),
        gnn::category_name(gnn::model_category(model))};
    for (std::size_t b = 0; b < baselines::kAllBaselines.size(); ++b) {
      const auto accel =
          baselines::make_baseline(baselines::kAllBaselines[b], chip);
      const auto m = accel->run_layer(ds, wf, {});
      const double ratio = static_cast<double>(m.total_cycles) /
                           static_cast<double>(aurora_m.total_cycles);
      const bool native = accel->supports(model);
      cells.push_back(to_fixed(ratio, 2) + (native ? "" : " (host)"));
      if (native) {
        native_sum[b] += ratio;
        ++native_count[b];
      }
    }
    cells.emplace_back("1.00");
    table.add_row(std::move(cells));
  }
  table.print();

  std::printf("\naverage over each baseline's NATIVE models only:\n");
  for (std::size_t b = 0; b < baselines::kAllBaselines.size(); ++b) {
    std::printf("  %-8s %.2fx Aurora (%d/10 models native)\n",
                baselines::baseline_name(baselines::kAllBaselines[b]),
                native_count[b] > 0 ? native_sum[b] / native_count[b] : 0.0,
                native_count[b]);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return aurora::guarded_main(argc, argv, run);
}
