// Citation-network node classification, end to end: a 2-layer GCN over a
// Cora-like graph, with BOTH functional execution (the golden reference and
// the structural PE datapath must agree bit-for-bit) and timing/energy
// simulation of the full inference on the accelerator.
//
//   ./examples/citation_inference [--scale=0.05] [--hidden=16]
#include <cstdio>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "core/aurora.hpp"
#include "gnn/reference.hpp"
#include "pe/datapath.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace aurora;
  const CliArgs args(argc, argv, {"scale", "hidden"});
  const double scale = args.get_double("scale", 0.05, 1e-6, 100.0);
  const auto hidden = args.get_uint("hidden", 16, 1);

  const graph::Dataset ds = graph::make_dataset(graph::DatasetId::kCora, scale);
  const std::uint32_t classes = ds.spec.num_classes;
  std::printf("citation inference on %s (scale %.3g): %u papers, "
              "%llu citations, %u classes\n",
              ds.spec.name, scale, ds.num_vertices(),
              static_cast<unsigned long long>(ds.num_edges()), classes);

  // --- functional pass -----------------------------------------------------
  // Random input features and weights; layer 1: F -> hidden, layer 2:
  // hidden -> classes.
  Rng rng(99);
  const std::uint32_t in_dim = 32;  // compact stand-in for the sparse inputs
  gnn::Matrix x(ds.num_vertices(), in_dim);
  x.randomize(rng);
  const auto p1 =
      gnn::make_reference_params(gnn::GnnModel::kGcn, in_dim, hidden, rng);
  const auto p2 =
      gnn::make_reference_params(gnn::GnnModel::kGcn, hidden, classes, rng);

  const gnn::Matrix h1 = gnn::reference_layer(gnn::GnnModel::kGcn, ds.graph,
                                              x, p1);
  const gnn::Matrix logits =
      gnn::reference_layer(gnn::GnnModel::kGcn, ds.graph, h1, p2);

  // Cross-check a sample of vertex updates on the structural PE datapath:
  // the reconfigurable MAC array must reproduce the reference MatVec.
  pe::PeDatapath datapath{pe::PeParams{}};
  datapath.configure(pe::PeConfigKind::kMatVec);
  double worst = 0.0;
  for (VertexId v = 0; v < std::min<VertexId>(64, ds.num_vertices()); ++v) {
    const auto row = h1.row(v);
    const gnn::Vector want = gnn::mat_vec(p2.w, row);
    const gnn::Vector got = datapath.run_mat_vec(p2.w, row);
    worst = std::max(worst, gnn::max_abs_diff(got, want));
  }
  std::printf("PE datapath vs reference (64 sampled vertex updates): "
              "max |diff| = %.3g\n", worst);

  // Class histogram of the argmax predictions, as a sanity signal.
  std::vector<int> histogram(classes, 0);
  for (VertexId v = 0; v < ds.num_vertices(); ++v) {
    const auto row = logits.row(v);
    std::size_t best = 0;
    for (std::size_t c = 1; c < row.size(); ++c) {
      if (row[c] > row[best]) best = c;
    }
    ++histogram[best];
  }
  std::printf("predicted class histogram:");
  for (int count : histogram) std::printf(" %d", count);
  std::printf("\n");

  // --- timing/energy pass ----------------------------------------------------
  core::AuroraConfig config = core::AuroraConfig::bench();
  core::AuroraAccelerator accel(config);
  core::GnnJob job;
  job.model = gnn::GnnModel::kGcn;
  job.layers = {{in_dim, hidden}, {hidden, classes}};
  const auto m = accel.run(ds, job);
  std::printf("\nfull 2-layer inference on the accelerator:\n");
  std::printf("  %llu cycles (%.2f us), %s DRAM traffic, %.3f mJ\n",
              static_cast<unsigned long long>(m.total_cycles),
              1e6 * m.total_seconds(config.frequency_mhz),
              human_bytes(m.dram_bytes).c_str(), m.energy.total_mj());
  std::printf("  pipeline utilisation %.0f %%, %u subgraphs, "
              "avg %.2f hops/message\n",
              100.0 * m.utilization, m.num_subgraphs, m.avg_hops);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return aurora::guarded_main(argc, argv, run);
}
