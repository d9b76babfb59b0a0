// The full-featured simulator driver: pick a dataset (built-in or your own
// edge list), a GNN model, a chip configuration (flags or INI file), an
// execution engine, and get tables plus optional JSON reports and traces.
//
//   ./examples/simulate --dataset=cora --model=GCN --scale=0.1
//   ./examples/simulate --graph=my_edges.txt --model=GIN --mode=analytic
//   ./examples/simulate --config=chip.ini --metrics-out=out.json --all-models
//   ./examples/simulate --print-config        # dump the default chip INI
//
// A flag the chosen run does not use is an error: --scale or --seed with
// --graph, --features without it, --what-if without --critpath, and the
// trace, counter and critical-path flags with --mode=analytic (the analytic
// model records no events).
#include <cctype>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "baselines/baseline.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/aurora.hpp"
#include "core/config_io.hpp"
#include "graph/io.hpp"
#include "scenario/scenario.hpp"
#include "sim/sampler.hpp"

namespace {

using namespace aurora;

graph::DatasetId dataset_by_name(const std::string& name) {
  for (graph::DatasetId id : graph::kAllDatasets) {
    std::string n = graph::dataset_name(id);
    for (char& ch : n) ch = static_cast<char>(std::tolower(ch));
    if (n == name) return id;
  }
  throw Error("unknown dataset '" + name + "'");
}

gnn::GnnModel model_by_name(const std::string& name) {
  for (gnn::GnnModel m : gnn::kAllModels) {
    if (name == gnn::model_name(m)) return m;
  }
  throw Error("unknown model '" + name + "' (try --all-models)");
}

int run(int argc, char** argv) {
  const CliArgs args(
      argc, argv,
      {"help", "dataset", "graph", "scale", "model", "all-models", "hidden",
       "mode", "mapping", "config", "paper-chip", "trace", "trace-out",
       "metrics-out", "sample-interval", "counters", "critpath",
       "critpath-out", "what-if", "allow-truncated-trace", "baselines",
       "print-config", "features", "seed"});

  if (args.get_bool("help", false)) {
    std::printf(
        "simulate — Aurora GNN-accelerator simulator\n\n"
        "  --dataset=<cora|citeseer|pubmed|nell|reddit>   built-in dataset\n"
        "  --graph=<path>         load your own edge list instead\n"
        "  --scale=<f>            dataset scale (built-ins only)\n"
        "  --model=<name>         GNN model (see table1_coverage) or\n"
        "  --all-models           run the whole zoo\n"
        "  --hidden=<d>           hidden width (default 16)\n"
        "  --mode=<cycle|analytic>  (flags marked 'cycle mode' are rejected\n"
        "                         with --mode=analytic)\n"
        "  --mapping=<degree-aware|hashing>\n"
        "  --config=<path.ini>    chip configuration file\n"
        "  --paper-chip           use the 32x32/100MB paper chip\n"
        "  --trace                print an ASCII event timeline (cycle mode)\n"
        "  --trace-out=<path>     write a Chrome/Perfetto trace JSON (cycle\n"
        "                         mode; open in ui.perfetto.dev)\n"
        "  --metrics-out=<path>   write the per-run metrics JSON report\n"
        "  --sample-interval=<n>  sample metric time series every n cycles\n"
        "                         (cycle mode; 0 = off; defaults to 64 with\n"
        "                         --trace-out)\n"
        "  --counters             dump component event counters (cycle mode)\n"
        "  --critpath             print the critical-path attribution table\n"
        "                         (cycle mode)\n"
        "  --critpath-out=<path>  write the critical-path report JSON (cycle\n"
        "                         mode)\n"
        "  --what-if=<spec>       what-if scenarios for the critical-path\n"
        "                         report: 'link_bw=2x,dram_latency=0.5x'\n"
        "                         knobs, ';'-separated scenarios\n"
        "                         (default: one 2x upgrade per knob)\n"
        "  --allow-truncated-trace  analyze a trace that overflowed the ring\n"
        "                         buffer anyway (suffix runs only)\n"
        "  --baselines            run the five baseline accelerators too\n"
        "  --print-config         dump the effective chip INI and exit\n");
    return 0;
  }

  // ---- chip configuration -------------------------------------------------
  core::AuroraConfig config = args.get_bool("paper-chip", false)
                                  ? core::AuroraConfig::paper()
                                  : core::AuroraConfig::bench();
  const std::string config_path = args.get_string("config", "");
  if (!config_path.empty()) {
    config = core::load_config(config_path, config);
  }
  // Flags override the INI file, with the INI keys' accepted values.
  if (args.has("mode")) {
    config.mode = core::sim_mode_by_name(args.get_string("mode", ""), "--mode");
  }
  if (args.has("mapping")) {
    config.mapping_policy = core::mapping_policy_by_name(
        args.get_string("mapping", ""), "--mapping");
  }
  if (args.get_bool("print-config", false)) {
    args.reject_unread("--print-config");
    std::fputs(core::config_to_ini(config).c_str(), stdout);
    return 0;
  }

  // ---- every other flag, read before any work ------------------------------
  const std::string graph_path = args.get_string("graph", "");
  graph::Dataset ds;
  graph::DatasetId dataset_id{};
  double scale = 0.0;
  std::uint32_t seed = 0;
  if (graph_path.empty()) {
    dataset_id = dataset_by_name(args.get_string("dataset", "cora"));
    scale = args.get_double(
        "scale", config.mode == core::SimMode::kCycleAccurate ? 0.1 : 1.0,
        1e-6, 100.0);
    seed = args.get_uint("seed", 7);
  } else {
    ds.spec.name = "custom";
    ds.spec.feature_dim = args.get_uint("features", 64, 1);
    ds.spec.feature_density = 1.0;
    ds.spec.num_classes = 8;
  }
  std::vector<gnn::GnnModel> models;
  if (args.get_bool("all-models", false)) {
    models.assign(gnn::kAllModels.begin(), gnn::kAllModels.end());
  } else {
    models.push_back(model_by_name(args.get_string("model", "GCN")));
  }
  const auto hidden = args.get_uint("hidden", 16, 1);
  const bool run_baselines = args.get_bool("baselines", false);
  // The analytic model records no events, so an analytic run reads none of
  // the trace, counter and critical-path flags.
  const bool cycle = config.mode == core::SimMode::kCycleAccurate;
  const bool dump_counters = cycle && args.get_bool("counters", false);
  scenario::Artifacts artifacts =
      cycle ? scenario::Artifacts(args, args.get_bool("trace", false))
            : scenario::Artifacts::metrics_only(args);
  // Exporting a trace without any counter track would be a hollow timeline,
  // so --trace-out turns sampling on at a default interval unless the user
  // chose one (or explicitly disabled it with --sample-interval=0).
  const std::uint32_t sample_interval =
      cycle ? args.get_uint("sample-interval",
                            artifacts.trace_out().empty() ? 0 : 64)
            : 0;
  args.reject_unread(
      std::string(cycle ? "a " : "an analytic ") +
      (graph_path.empty() ? "built-in dataset run" : "--graph run"));

  // ---- dataset --------------------------------------------------------------
  if (graph_path.empty()) {
    ds = graph::make_dataset(dataset_id, scale, seed);
  } else {
    ds.graph = graph::load_edge_list(graph_path);
    ds.degree_stats = graph::compute_degree_stats(ds.graph);
  }
  std::printf("dataset %s: %u vertices, %llu directed edges, mean degree "
              "%.1f, gini %.2f\n",
              ds.spec.name, ds.num_vertices(),
              static_cast<unsigned long long>(ds.num_edges()),
              ds.degree_stats.mean_degree, ds.degree_stats.gini);
  std::printf("chip: %ux%u PEs, %s/PE buffer, %s engine, %s mapping\n\n",
              config.array_dim, config.array_dim,
              human_bytes(config.pe.bank_buffer_bytes).c_str(),
              config.mode == core::SimMode::kCycleAccurate ? "cycle-accurate"
                                                           : "analytic",
              config.mapping_policy == core::MappingPolicy::kDegreeAware
                  ? "degree-aware"
                  : "hashing");

  // ---- run --------------------------------------------------------------------
  core::AuroraAccelerator accel(config);
  accel.set_tracer(artifacts.tracer());
  std::optional<sim::Sampler> sampler;
  if (sample_interval > 0) {
    sampler.emplace(static_cast<Cycle>(sample_interval));
    accel.set_sampler(&*sampler);
  }
  AsciiTable table({"model", "a:b", "tiles", "cycles", "time (us)", "DRAM",
                    "avg hops", "energy (uJ)"});
  std::vector<core::NamedRun> runs;
  for (gnn::GnnModel model : models) {
    const gnn::LayerConfig layer{hidden, hidden};
    const auto m = accel.run_layer(ds, model, layer, 1);
    table.add_row({gnn::model_name(model),
                   std::to_string(m.partition_a) + ":" +
                       std::to_string(m.partition_b),
                   std::to_string(m.num_subgraphs),
                   std::to_string(m.total_cycles),
                   to_fixed(1e6 * m.total_seconds(config.frequency_mhz), 2),
                   human_bytes(m.dram_bytes), to_fixed(m.avg_hops, 2),
                   to_fixed(m.energy.total_pj() * 1e-6, 1)});
    runs.push_back({gnn::model_name(model), ds.spec.name, m});
  }
  table.print();
  artifacts.emit(runs, sampler.has_value() ? &*sampler : nullptr);

  if (run_baselines) {
    std::printf("\nbaseline accelerators (same workload, normalized chip):\n");
    const auto chip = baselines::chip_params_matching(
        config.array_dim, config.pe.datapath.num_multipliers,
        config.pe.bank_buffer_bytes);
    AsciiTable bl({"accelerator", "model", "cycles", "DRAM", "energy (uJ)",
                   "native"});
    for (gnn::GnnModel model : models) {
      const auto wf = gnn::generate_workflow(model, {hidden, hidden},
                                             ds.num_vertices(),
                                             ds.num_edges());
      for (baselines::BaselineId id : baselines::kAllBaselines) {
        const auto accel_b = baselines::make_baseline(id, chip);
        const auto mb = accel_b->run_layer(ds, wf, {});
        bl.add_row({accel_b->name(), gnn::model_name(model),
                    std::to_string(mb.total_cycles),
                    human_bytes(mb.dram_bytes),
                    to_fixed(mb.energy.total_pj() * 1e-6, 1),
                    accel_b->supports(model) ? "yes" : "no (host)"});
      }
    }
    bl.print();
  }

  if (dump_counters && !runs.empty()) {
    std::printf("\ncomponent counters (last run):\n");
    for (const auto& [name, value] : runs.back().metrics.counters.all()) {
      std::printf("  %-26s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    }
  }

  if (const sim::Tracer* tracer = artifacts.tracer();
      tracer != nullptr && tracer->size() > 0) {
    std::printf("\nevent timeline (last run):\n%s",
                tracer->render_timeline().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return guarded_main(argc, argv, run);
}
