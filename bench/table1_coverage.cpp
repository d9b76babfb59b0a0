// Table I: GNN coverage and architectural features of Aurora vs the five
// baseline accelerators.
#include <cstdio>

#include "baselines/baseline.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "gnn/models.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace aurora;
  const CliArgs args(argc, argv, {});  // takes no flags
  std::printf("Table I — GNN coverage and features\n\n");

  AsciiTable table({"accelerator", "C-GCN", "A-GCN", "MP-GCN",
                    "flexible unified", "flexible dataflow", "flexible NoC",
                    "message passing"});
  auto mark = [](bool b) { return std::string(b ? "yes" : "no"); };

  for (baselines::BaselineId id : baselines::kAllBaselines) {
    const auto model = baselines::make_baseline(id);
    const auto row = model->coverage();
    table.add_row({model->name(), mark(row.c_gnn), mark(row.a_gnn),
                   mark(row.mp_gnn), mark(row.flexible_in_unified),
                   mark(row.flexible_dataflow), mark(row.flexible_noc),
                   mark(row.message_passing)});
  }
  // Aurora: full support across the board (the point of the paper).
  table.add_row({"Aurora", "yes", "yes", "yes", "yes", "yes", "yes", "yes"});
  table.print();

  std::printf("\nModel zoo coverage per category:\n");
  for (gnn::GnnModel m : gnn::kAllModels) {
    std::printf("  %-18s %s\n", gnn::model_name(m),
                gnn::category_name(gnn::model_category(m)));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return aurora::guarded_main(argc, argv, run);
}
