// Table II: required operations in each execution phase of every GNN model,
// as produced by the adaptive workflow generator.
#include <cstdio>

#include "common/cli.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "gnn/models.hpp"
#include "gnn/workflow.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace aurora;
  const CliArgs args(argc, argv, {});  // takes no flags
  std::printf(
      "Table II — required operations per execution phase "
      "(from the adaptive workflow generator)\n\n");

  AsciiTable table({"model", "category", "edge update", "aggregation",
                    "vertex update"});
  for (gnn::GnnModel m : gnn::kAllModels) {
    const gnn::ModelOps& ops = gnn::model_ops(m);
    table.add_row({gnn::model_name(m),
                   gnn::category_name(gnn::model_category(m)),
                   gnn::format_ops(ops.edge_update),
                   gnn::format_ops(ops.aggregation),
                   gnn::format_ops(ops.vertex_update)});
  }
  table.print();

  // Op-count sanity on a reference workload (hidden layer, F = H = 64, so
  // no update-first reordering obscures the per-phase shares).
  std::printf("\nper-phase operation shares (n = 10k, m = 100k, F = H = 64):\n");
  AsciiTable shares({"model", "O_ue", "O_a", "O_uv", "update-first"});
  for (gnn::GnnModel m : gnn::kAllModels) {
    const auto wf = gnn::generate_workflow(m, {64, 64}, 10000, 100000);
    const double total = static_cast<double>(wf.total_ops());
    auto pct = [&](gnn::Phase p) {
      return to_fixed(100.0 *
                          static_cast<double>(wf.phase(p).total_ops) / total,
                      1) +
             " %";
    };
    shares.add_row({gnn::model_name(m), pct(gnn::Phase::kEdgeUpdate),
                    pct(gnn::Phase::kAggregation),
                    pct(gnn::Phase::kVertexUpdate),
                    wf.update_first ? "yes" : "no"});
  }
  shares.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return aurora::guarded_main(argc, argv, run);
}
