// Partition ablation (paper Sec V): Algorithm 2's stall-minimising split vs
// fixed resource splits, for every model in the zoo.
//
// Flags: --scale=<f>, --hidden=<d>, --seed=<s>.
#include <cstdio>

#include "bench_util.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "partition/partition.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace aurora;
  const auto options = bench::parse_figure_options(argc, argv);
  const double scale = options.scale > 0.0 ? options.scale : 1.0;
  const graph::Dataset ds =
      graph::make_dataset(graph::DatasetId::kCora, scale, options.seed);

  std::printf(
      "Partition ablation — Algorithm 2 vs fixed splits "
      "(Cora, hidden layer F = H = 64, 1024 PEs)\n"
      "stage time = max(T_A, T_B); lower is better; util = pipeline "
      "utilisation\n\n");

  AsciiTable table({"model", "alg2 a:b", "alg2 stage", "alg2 util",
                    "25% stage", "50% stage", "75% stage", "best fixed"});
  constexpr std::uint32_t kPes = 1024;
  for (gnn::GnnModel model : gnn::kAllModels) {
    const auto wf = gnn::generate_workflow(model, {64, 64},
                                           ds.num_vertices(), ds.num_edges());
    const auto in =
        partition::partition_input_from_workflow(wf, kPes, 16.0);
    const auto alg2 = partition::partition(in);

    auto stage_at = [&](double frac) {
      if (alg2.single_accelerator) return alg2.stage_time();
      const auto a = static_cast<std::uint32_t>(frac * kPes);
      const double ta = partition::time_sub_a(in, std::max(1u, a));
      const double tb =
          partition::time_sub_b(in, std::max(1u, kPes - a));
      return std::max(ta, tb);
    };
    const double s25 = stage_at(0.25);
    const double s50 = stage_at(0.50);
    const double s75 = stage_at(0.75);
    const double best_fixed = std::min({s25, s50, s75});

    table.add_row(
        {gnn::model_name(model),
         std::to_string(alg2.a) + ":" + std::to_string(alg2.b),
         to_fixed(alg2.stage_time(), 1),
         to_fixed(100.0 * alg2.utilization(), 1) + " %",
         to_fixed(s25, 1), to_fixed(s50, 1), to_fixed(s75, 1),
         to_fixed(best_fixed / std::max(1e-9, alg2.stage_time()), 2) + "x"});
  }
  table.print();
  std::printf(
      "\n'best fixed' is the best of the three fixed splits relative to "
      "Algorithm 2\n(>= 1.00x means Algorithm 2 is at least as good).\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return aurora::guarded_main(argc, argv, run);
}
