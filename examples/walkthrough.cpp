// The paper's walk-through example (Sec III-E), step by step: the layer plan
// (core::plan_layer) that the engine then executes, printed decision by
// decision:
//   (1) the adaptive workflow generator decides phases and operation types
//   (2) the partition algorithm (Algorithm 2) splits the PE array
//   (3) the split forms sub-accelerator A and sub-accelerator B's rings
//   (4) the graph is tiled to the distributed buffer
//   (5) the degree-aware mapping algorithm (Algorithm 1) places tile 0
//   (6) the NoC and PE configuration unit programs the fabric for it
//   (7) the layer executes on the cycle engine, from the same plan
//
//   ./examples/walkthrough [--scale=0.1]
#include <cstdio>

#include "common/cli.hpp"
#include "common/strings.hpp"
#include "core/aurora.hpp"
#include "core/sub_accelerators.hpp"

namespace {

using namespace aurora;

int run(int argc, char** argv) {
  const CliArgs args(argc, argv, {"scale"});
  const double scale = args.get_double("scale", 0.1, 1e-6, 100.0);
  const graph::Dataset ds = graph::make_dataset(graph::DatasetId::kCora, scale);
  const core::AuroraConfig config = core::AuroraConfig::bench();
  const gnn::GnnModel model = gnn::GnnModel::kGcn;
  const gnn::LayerConfig layer{64, 16};

  std::printf("Sec III-E walk-through on %s (scale %.2f), %ux%u chip, %s "
              "layer %u -> %u\n\n",
              ds.spec.name, scale, config.array_dim, config.array_dim,
              gnn::model_name(model), layer.in_dim, layer.out_dim);

  // (1) adaptive workflow generator.
  const gnn::Workflow wf = gnn::generate_workflow(
      model, layer, ds.num_vertices(), ds.num_edges());
  std::printf("(1) workflow: EU=%s AGG=%s VU=%s%s; O_ue=%llu O_a=%llu "
              "O_uv=%llu\n",
              wf.needs_edge_update() ? "yes" : "no", "yes",
              wf.needs_vertex_update() ? "yes" : "no",
              wf.update_first ? " (update-first order)" : "",
              static_cast<unsigned long long>(
                  wf.phase(gnn::Phase::kEdgeUpdate).total_ops),
              static_cast<unsigned long long>(
                  wf.phase(gnn::Phase::kAggregation).total_ops),
              static_cast<unsigned long long>(
                  wf.phase(gnn::Phase::kVertexUpdate).total_ops));

  // (2)-(4) the layer plan, with the traffic parameters AuroraAccelerator
  // uses for a hidden layer (dense input features).
  core::DramTrafficParams traffic;
  traffic.element_bytes = config.element_bytes;
  const core::LayerPlan plan = core::plan_layer(config, ds, wf, traffic);
  const auto& split = plan.split;
  const auto& sub = plan.sub_accelerators;
  std::printf("(2) partition: a=%u b=%u (|T_A-T_B|=%.1f, util %.0f %%)\n",
              split.a, split.b, split.diff, 100.0 * split.utilization());
  std::printf("(3) sub-accelerators: sub-A rows [0,%u) = %u PEs, sub-B rows "
              "[%u,%u) = %u PEs in %zu rings\n",
              sub.sub_a.row_end, sub.sub_a_pes(), sub.sub_b.row_begin,
              sub.sub_b.row_end, sub.sub_b_pes(), sub.rings.size());
  std::printf("(4) tiling: %zu tile(s), %u halo vertices; DRAM traffic %s\n",
              plan.tiling.num_tiles(), plan.tiling.total_halo_vertices(),
              human_bytes(plan.traffic.total()).c_str());

  // (5) degree-aware mapping of tile 0.
  const mapping::Mapping map = core::map_tile(config, ds.graph, plan, 0);
  std::printf("(5) mapping (tile 0): %zu S_PEs (N-Queen), %zu high-degree "
              "vertices spread across them\n",
              map.s_pes.size(), map.high_degree_vertices.size());

  // (6) NoC/PE configuration unit.
  const noc::NocConfig noc_cfg = core::compose_noc_config(sub, map);
  const std::uint64_t writes = noc::NocConfig::switch_writes_between(
      noc::NocConfig(config.array_dim), noc_cfg);
  std::printf("(6) NoC configured: %zu row segments, %zu col segments, "
              "%zu rings; %llu switch writes, %llu-cycle latency (2K-1)\n",
              noc_cfg.row_segments().size(), noc_cfg.col_segments().size(),
              noc_cfg.rings().size(), static_cast<unsigned long long>(writes),
              static_cast<unsigned long long>(config.reconfiguration_cycles()));

  // (7) ...and the layer executes on the cycle engine.
  core::AuroraAccelerator accel(config);
  const auto m = accel.run_layer(ds, model, layer, 1);
  std::printf("\n(7) executed: %llu cycles (%.2f us), a:b = %u:%u over %u "
              "tile(s), %s DRAM, %.1f uJ, PE utilization %.0f %%\n",
              static_cast<unsigned long long>(m.total_cycles),
              1e6 * m.total_seconds(config.frequency_mhz), m.partition_a,
              m.partition_b, m.num_subgraphs,
              human_bytes(m.dram_bytes).c_str(),
              m.energy.total_pj() * 1e-6, 100.0 * m.pe_utilization);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return guarded_main(argc, argv, run); }
