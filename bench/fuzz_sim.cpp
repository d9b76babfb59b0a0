// Seed-reproducible differential fuzzer for the simulation core.
//
// Each seed deterministically generates a random chip (NoC bypass/ring
// configuration, DRAM timings including aggressive tREFI), a random graph
// and GNN workload, then runs everything in BOTH scheduler modes — lockstep
// and event-driven fast-forward — with the invariant checker attached, and
// diffs the results bit for bit:
//
//   phase A: raw NoC traffic waves on a randomized mesh/bypass/ring config,
//            every NocStats field compared after every drain;
//   phase B: a full AuroraAccelerator::run_layer, RunMetrics compared via
//            core::diff_run_metrics (which ignores only the scheduler-work
//            counter "sim.cycles_skipped").
//
// Any divergence or invariant violation prints the seed and a one-command
// replay line. Replaying a single seed with --trace-out writes a Perfetto
// trace of the fast-forward engine run for inspection.
//
// --cluster --faults additionally injects a seed-deterministic fault plan:
// link degradation and DRAM stall windows on the cluster run (both
// scheduler modes must still agree bit for bit), a regenerate-and-compare
// check on the fault timeline itself, and a serving phase with chip
// fail-stop/fail-recover faults where the full ServingReport (retries,
// failovers, shedding, every request's timing) is diffed across the same
// two modes.
//
//   ./build/bench/fuzz_sim --seeds=25            # CI smoke
//   ./build/bench/fuzz_sim --seeds=500 --start-seed=1000
//   ./build/bench/fuzz_sim --seed=42 --trace-out=fuzz_42.json
//   ./build/bench/fuzz_sim --cluster --faults --seeds=25
#include <array>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_engine.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/aurora.hpp"
#include "core/report.hpp"
#include "fault/fault.hpp"
#include "graph/generators.hpp"
#include "noc/network.hpp"
#include "noc/routing.hpp"
#include "serving/serving_engine.hpp"
#include "sim/invariants.hpp"
#include "sim/perfetto.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace {

using namespace aurora;

constexpr Cycle kGuard = 50'000'000;

// ---------------------------------------------------------------- phase A

struct NocSend {
  noc::NodeId src = 0;
  noc::NodeId dst = 0;
  Bytes bytes = 0;
};

struct NocScenario {
  noc::NocParams params;
  noc::NocConfig config;
  std::vector<std::vector<NocSend>> waves;
};

noc::NocConfig random_noc_config(std::uint32_t k, Rng& rng) {
  noc::NocConfig cfg(k);
  if (rng.next_bool(0.5)) cfg.set_routing(noc::RoutingPolicy::kYXFirst);
  std::vector<std::uint8_t> row_full(k, 0);
  for (std::uint32_t line = 0; line < k; ++line) {
    if (!rng.next_bool(0.6)) continue;
    std::uint32_t from = 0;
    std::uint32_t to = k - 1;
    if (k > 3 && rng.next_bool(0.5)) {
      from = static_cast<std::uint32_t>(rng.next_below(k - 2));
      to = from + 2 +
           static_cast<std::uint32_t>(rng.next_below(k - 2 - from));
    }
    cfg.add_row_segment({line, from, to});
    row_full[line] = (from == 0 && to == k - 1) ? 1 : 0;
  }
  for (std::uint32_t line = 0; line < k; ++line) {
    if (rng.next_bool(0.3)) cfg.add_col_segment({line, 0, k - 1});
  }
  // Ring overlays on rows whose full-span segment provides the wrap link,
  // plus the occasional 2x2 mesh square (always routable on the mesh).
  std::vector<std::uint8_t> used(k * k, 0);
  for (std::uint32_t r = 0; r < k; ++r) {
    if (row_full[r] == 0 || !rng.next_bool(0.5)) continue;
    noc::RingConfig ring;
    for (std::uint32_t c = 0; c < k; ++c) {
      ring.nodes.push_back(r * k + c);
      used[r * k + c] = 1;
    }
    cfg.add_ring(ring);
  }
  if (rng.next_bool(0.4)) {
    const auto r = static_cast<std::uint32_t>(rng.next_below(k - 1));
    const auto c = static_cast<std::uint32_t>(rng.next_below(k - 1));
    const std::array<noc::NodeId, 4> square = {
        r * k + c, r * k + c + 1, (r + 1) * k + c + 1, (r + 1) * k + c};
    bool free = true;
    for (const noc::NodeId n : square) free = free && used[n] == 0;
    if (free) cfg.add_ring({{square[0], square[1], square[2], square[3]}});
  }
  return cfg;
}

NocScenario random_noc_scenario(std::uint64_t seed) {
  Rng rng(seed * 2654435761ull + 1);
  NocScenario s;
  s.params.k = 3 + static_cast<std::uint32_t>(rng.next_below(6));
  s.params.flit_bytes = 16ull << rng.next_below(3);
  s.params.num_vcs = 1 + static_cast<std::uint32_t>(rng.next_below(4));
  s.params.input_buffer_flits =
      2 + static_cast<std::uint32_t>(rng.next_below(7));
  s.params.router_delay = 1 + rng.next_below(3);
  s.params.turn_delay = rng.next_below(3);
  s.params.link_delay = 1 + rng.next_below(2);
  s.config = random_noc_config(s.params.k, rng);
  const std::uint32_t nodes = s.params.k * s.params.k;
  const std::size_t num_waves = 1 + rng.next_below(3);
  for (std::size_t w = 0; w < num_waves; ++w) {
    std::vector<NocSend> wave(1 + rng.next_below(14));
    for (NocSend& send : wave) {
      send.src = static_cast<noc::NodeId>(rng.next_below(nodes));
      do {
        send.dst = static_cast<noc::NodeId>(rng.next_below(nodes));
      } while (send.dst == send.src);
      send.bytes = 8 + rng.next_below(240);
    }
    s.waves.push_back(std::move(wave));
  }
  return s;
}

struct NocOutcome {
  noc::NocStats stats;
  Cycle end_cycle = 0;
};

NocOutcome run_noc_scenario(const NocScenario& s, bool fast_forward) {
  sim::Simulator sim;
  sim.set_fast_forward(fast_forward);
  noc::Network net(s.params);
  sim.add(&net);
  sim::InvariantChecker checker;
  checker.watch(&net);
  net.configure(s.config);
  for (const auto& wave : s.waves) {
    for (const NocSend& send : wave) {
      net.send(send.src, send.dst, send.bytes, 0, sim.now());
    }
    sim.run_until_idle(kGuard);
    checker.check_now(sim.now());
  }
  return {net.stats(), sim.now()};
}

std::vector<std::string> diff_noc(const NocOutcome& a, const NocOutcome& b) {
  std::vector<std::string> diffs;
  const auto u64 = [&diffs](const char* name, std::uint64_t x,
                            std::uint64_t y) {
    if (x != y) {
      diffs.push_back(std::string(name) + ": " + std::to_string(x) + " != " +
                      std::to_string(y));
    }
  };
  const auto num = [&diffs](const char* name, double x, double y) {
    if (x != y) diffs.push_back(std::string(name) + " differs");
  };
  u64("end_cycle", a.end_cycle, b.end_cycle);
  u64("packets_injected", a.stats.packets_injected, b.stats.packets_injected);
  u64("packets_delivered", a.stats.packets_delivered,
      b.stats.packets_delivered);
  u64("flits_injected", a.stats.flits_injected, b.stats.flits_injected);
  u64("flits_ejected", a.stats.flits_ejected, b.stats.flits_ejected);
  u64("flit_hops", a.stats.flit_hops, b.stats.flit_hops);
  u64("bypass_flit_hops", a.stats.bypass_flit_hops,
      b.stats.bypass_flit_hops);
  u64("router_traversals", a.stats.router_traversals,
      b.stats.router_traversals);
  u64("link_bytes", a.stats.link_bytes, b.stats.link_bytes);
  u64("bypass_bytes", a.stats.bypass_bytes, b.stats.bypass_bytes);
  u64("busy_cycles", a.stats.busy_cycles, b.stats.busy_cycles);
  u64("latency.count", a.stats.packet_latency.count(),
      b.stats.packet_latency.count());
  num("latency.sum", a.stats.packet_latency.sum(),
      b.stats.packet_latency.sum());
  num("latency.min", a.stats.packet_latency.min(),
      b.stats.packet_latency.min());
  num("latency.max", a.stats.packet_latency.max(),
      b.stats.packet_latency.max());
  num("hops.sum", a.stats.packet_hops.sum(), b.stats.packet_hops.sum());
  u64("latency_hist.total", a.stats.packet_latency_hist.total(),
      b.stats.packet_latency_hist.total());
  return diffs;
}

/// With some probability, also check that an intentionally broken ring (a
/// full-row overlay whose wrap column has no bypass segment) is rejected at
/// configure time and routes fine via the mesh fallback.
void probe_unroutable_ring(const NocScenario& s, Rng& rng) {
  const std::uint32_t k = s.params.k;
  std::uint32_t row = k;
  for (std::uint32_t r = 0; r < k && row == k; ++r) {
    bool free_row = !s.config.row_segment_at(r, 0).has_value() &&
                    !s.config.row_segment_at(r, k - 1).has_value();
    for (const auto& ring : s.config.rings()) {
      for (const noc::NodeId n : ring.nodes) free_row &= (n / k != r);
    }
    if (free_row) row = r;
  }
  if (row == k || !rng.next_bool(0.5)) return;
  noc::NocConfig broken = s.config;
  noc::RingConfig ring;
  for (std::uint32_t c = 0; c < k; ++c) ring.nodes.push_back(row * k + c);
  broken.add_ring_unchecked(ring);
  const std::size_t idx = broken.rings().size() - 1;
  AURORA_CHECK_MSG(!broken.ring_routable(idx),
                   "fuzz probe: wrap ring without segment marked routable");
  // Mesh fallback must still deliver between ring members without throwing.
  (void)noc::path_hops(row * k, row * k + k - 1, broken);
  noc::Network net(s.params);
  bool threw = false;
  try {
    (void)net.configure(broken);
  } catch (const Error&) {
    threw = true;
  }
  AURORA_CHECK_MSG(threw,
                   "fuzz probe: configure accepted an unroutable ring");
}

// ---------------------------------------------------------------- phase B

core::AuroraConfig random_chip(Rng& rng) {
  core::AuroraConfig cfg = core::AuroraConfig::bench();
  const std::uint32_t dim = rng.next_bool(0.5) ? 4 : 8;
  cfg.array_dim = dim;
  cfg.noc.k = dim;
  cfg.noc.num_vcs = 1 + static_cast<std::uint32_t>(rng.next_below(4));
  cfg.noc.input_buffer_flits =
      2 + static_cast<std::uint32_t>(rng.next_below(7));
  cfg.noc.router_delay = 1 + rng.next_below(3);
  cfg.noc.turn_delay = rng.next_below(2);
  cfg.noc.link_delay = 1 + rng.next_below(2);
  cfg.ring_size = 2 + static_cast<std::uint32_t>(rng.next_below(dim - 1));
  if (rng.next_bool(0.5)) cfg.mapping_policy = core::MappingPolicy::kHashing;
  cfg.dram.num_channels = 1u << rng.next_below(3);
  cfg.dram.banks_per_channel =
      2 + static_cast<std::uint32_t>(rng.next_below(7));
  cfg.dram.queue_depth = 8 + static_cast<std::uint32_t>(rng.next_below(57));
  auto& t = cfg.dram.timing;
  t.t_rcd = 4 + rng.next_below(9);
  t.t_rp = 4 + rng.next_below(9);
  t.t_cl = 4 + rng.next_below(9);
  t.t_burst = 2 + rng.next_below(5);
  t.t_turnaround = rng.next_below(7);
  // Aggressively small refresh interval so refresh scheduling (and the
  // catch-up accounting on idle channels) is exercised constantly;
  // sometimes disabled entirely.
  t.t_refi = rng.next_bool(0.2) ? 0 : 150 + rng.next_below(1200);
  t.t_rfc = 20 + rng.next_below(41);
  cfg.check_invariants = true;
  cfg.invariant_interval =
      rng.next_bool(0.5) ? 0 : 64 * (1 + rng.next_below(32));
  return cfg;
}

graph::Dataset random_dataset(Rng& rng) {
  graph::Dataset ds;
  ds.spec.name = "fuzz";
  ds.spec.feature_dim = 4 + static_cast<std::uint32_t>(rng.next_below(21));
  ds.spec.feature_density = 1.0;
  ds.spec.num_classes = 4;
  const auto n = static_cast<VertexId>(24 + rng.next_below(100));
  const auto m = static_cast<EdgeId>(n) * (1 + rng.next_below(3));
  switch (rng.next_below(6)) {
    case 0:
      ds.graph = graph::generate_erdos_renyi(n, m, rng);
      break;
    case 1: {
      graph::PowerLawParams p;
      p.n = n;
      p.undirected_edges = m;
      ds.graph = graph::generate_power_law(p, rng);
      break;
    }
    case 2: {
      graph::RmatParams p;
      p.scale = 6;
      p.undirected_edges = m;
      ds.graph = graph::generate_rmat(p, rng);
      break;
    }
    case 3:
      ds.graph = graph::generate_grid(
          6, static_cast<VertexId>(4 + rng.next_below(12)));
      break;
    case 4:
      ds.graph = graph::generate_star(n);
      break;
    default:
      ds.graph = graph::generate_ring(n);
      break;
  }
  ds.spec.num_vertices = ds.graph.num_vertices();
  ds.degree_stats = graph::compute_degree_stats(ds.graph);
  return ds;
}

core::RunMetrics run_engine(const core::AuroraConfig& chip,
                            const graph::Dataset& ds, gnn::GnnModel model,
                            const gnn::LayerConfig& layer,
                            std::uint32_t layer_index, bool fast_forward,
                            sim::Tracer* tracer) {
  core::AuroraConfig cfg = chip;
  cfg.fast_forward = fast_forward;
  core::AuroraAccelerator accel(cfg);
  if (tracer != nullptr) accel.set_tracer(tracer);
  return accel.run_layer(ds, model, layer, layer_index);
}

// ---------------------------------------------------------------- cluster

void print_failure(std::uint64_t seed, const char* phase,
                   const std::vector<std::string>& diffs);

/// Differential fuzz of the multi-chip cluster engine: random shard counts,
/// topologies and link parameters; lockstep vs fast-forward must agree on
/// every per-chip RunMetrics field, the cluster clock, and every cluster
/// counter, with the cluster invariant checker attached throughout.
///
/// With `faults`, a seed-deterministic fault plan (link degradation + DRAM
/// stall windows) rides along on every cluster run, the plan's timeline is
/// checked to regenerate identically, and a serving phase with chip
/// fail-stop faults diffs the full ServingReport across both scheduler
/// modes.
bool run_cluster_seed(std::uint64_t seed, bool verbose, bool faults) {
  try {
    Rng rng(seed * 0xD1B54A32D192ED03ull + 5);
    core::AuroraConfig chip = random_chip(rng);
    chip.check_invariants = true;

    cluster::ClusterParams params;
    params.num_chips = 1 + static_cast<std::uint32_t>(rng.next_below(4));
    params.strategy = rng.next_bool(0.5) ? cluster::ShardStrategy::kRange
                                         : cluster::ShardStrategy::kHash;
    params.link.topology = rng.next_bool(0.5)
                               ? cluster::ClusterTopology::kRing
                               : cluster::ClusterTopology::kFullyConnected;
    params.link.bytes_per_cycle = 8ull << rng.next_below(4);
    params.link.hop_latency = 8 + rng.next_below(121);
    params.link.max_message_bytes = 256ull << rng.next_below(4);

    const graph::Dataset ds = random_dataset(rng);
    const gnn::GnnModel model =
        gnn::kAllModels[rng.next_below(gnn::kAllModels.size())];
    const core::GnnJob job = core::GnnJob::two_layer(
        model, ds.spec, 4 + static_cast<std::uint32_t>(rng.next_below(13)));

    const auto fail = [&](const char* phase,
                          const std::vector<std::string>& diffs) {
      print_failure(seed, phase, diffs);
      std::printf("replay: ./build/bench/fuzz_sim --cluster%s --seed=%llu\n",
                  faults ? " --faults" : "",
                  static_cast<unsigned long long>(seed));
      return false;
    };

    std::shared_ptr<const fault::FaultPlan> plan;
    if (faults) {
      fault::FaultParams fp;
      fp.seed = seed * 0xA24BAED4963EE407ull + 9;
      fp.horizon = 2'000'000;
      fp.link_mtbf = 5'000.0 + static_cast<double>(rng.next_below(200'000));
      fp.link_mttr = 2'000.0 + static_cast<double>(rng.next_below(100'000));
      fp.dram_mtbf = 20'000.0 + static_cast<double>(rng.next_below(200'000));
      fp.dram_mttr = 1'000.0 + static_cast<double>(rng.next_below(20'000));
      auto built = std::make_shared<fault::FaultPlan>(
          fault::FaultPlan::generate(fp, params.num_chips));
      // The plan IS the fault timeline: regenerating from the same params
      // must reproduce it event for event, or seed replays are worthless.
      const fault::FaultPlan again =
          fault::FaultPlan::generate(fp, params.num_chips);
      if (built->timeline() != again.timeline()) {
        return fail("fault-plan-determinism",
                    {"regenerated plan timeline differs"});
      }
      // Every cluster chip shares this one AuroraConfig, so chip 0's DRAM
      // stall schedule lands on all of them — the differential only needs
      // the stall path exercised, not per-chip variety.
      for (const fault::DownWindow& w : built->dram_windows(0)) {
        chip.dram.stall_windows.push_back(
            {dram::DramStallWindow::kAllChannels, w.begin, w.end});
      }
      plan = std::move(built);
    }

    if (verbose) {
      std::printf(
          "seed %llu cluster: %u chip(s), %s sharding, %s link "
          "(bpc=%llu, hop=%llu), %s, %u vertices\n",
          static_cast<unsigned long long>(seed), params.num_chips,
          cluster::shard_strategy_name(params.strategy),
          cluster::topology_name(params.link.topology),
          static_cast<unsigned long long>(params.link.bytes_per_cycle),
          static_cast<unsigned long long>(params.link.hop_latency),
          gnn::model_name(model), ds.num_vertices());
    }

    // Unused draw, kept so that the serving case drawn below stays the same
    // for every seed and old replay lines still reproduce.
    (void)rng.next_below(4);
    const auto run = [&](bool fast_forward) {
      core::AuroraConfig cfg = chip;
      cfg.fast_forward = fast_forward;
      cluster::ClusterParams p = params;
      p.fault_plan = plan;
      cluster::ClusterEngine engine(cfg, p);
      return engine.run(ds, job);
    };

    const cluster::ClusterRunMetrics lock = run(false);
    const cluster::ClusterRunMetrics fast = run(true);
    const auto diffs = cluster::diff_cluster_run_metrics(lock, fast);
    if (!diffs.empty()) return fail("cluster", diffs);

    if (faults) {
      // Serving phase: chip fail-stop/fail-recover faults drive the retry/
      // backoff/failover path; the entire ServingReport (every counter and
      // every served request's placement and timing) must be bit-identical
      // across engine flavours, and the conservation invariants must hold.
      serving::ServingParams sp;
      sp.seed = seed * 0x9E3779B97F4A7C15ull + 11;
      sp.num_requests = 6 + rng.next_below(8);
      sp.queue_depth = 4 + static_cast<std::size_t>(rng.next_below(13));
      sp.max_batch = 1 + static_cast<std::uint32_t>(rng.next_below(4));
      sp.num_tenants = 1 + static_cast<std::uint32_t>(rng.next_below(3));
      sp.arrival.rate_per_mcycle =
          5.0 + static_cast<double>(rng.next_below(300));
      sp.slo_cycles = rng.next_bool(0.5) ? 0 : 50'000 + rng.next_below(950'000);
      sp.mode = params.num_chips > 1 && rng.next_bool(0.5)
                    ? cluster::DispatchMode::kShardParallel
                    : cluster::DispatchMode::kDataParallel;
      sp.max_retries = static_cast<std::uint32_t>(rng.next_below(4));
      sp.retry_backoff_base = Cycle{64} << rng.next_below(5);
      sp.proactive_shedding = rng.next_bool(0.5);
      // Aggressive MTBF relative to these tiny workloads' service times so
      // mid-flight failures (and thus retries/failovers) actually fire in a
      // healthy fraction of seeds; occasional MTTR=0 exercises permanent
      // fail-stop.
      sp.faults.seed = seed * 0xBF58476D1CE4E5B9ull + 13;
      sp.faults.horizon = 8'000'000;
      sp.faults.chip_mtbf =
          10'000.0 + static_cast<double>(rng.next_below(200'000));
      sp.faults.chip_mttr =
          rng.next_bool(0.2)
              ? 0.0
              : 5'000.0 + static_cast<double>(rng.next_below(100'000));
      const std::vector<serving::ModelMixEntry> mix = {{job, "fuzz", 1.0, 0}};
      const auto serve = [&](bool fast_forward) {
        core::AuroraConfig cfg = chip;
        cfg.fast_forward = fast_forward;
        cluster::ClusterParams p = params;
        p.fault_plan = plan;
        serving::ServingEngine engine(cfg, p, sp);
        return engine.run(ds, mix);
      };
      const serving::ServingReport base = serve(false);
      const bool conserved =
          base.admitted + base.shed == base.generated &&
          base.admitted == base.served.size() + base.shed_expired +
                               base.failed_permanently;
      if (!conserved) {
        return fail("serving-conservation",
                    {"admitted " + std::to_string(base.admitted) +
                     " shed " + std::to_string(base.shed) + " generated " +
                     std::to_string(base.generated) + " served " +
                     std::to_string(base.served.size()) + " shed_expired " +
                     std::to_string(base.shed_expired) +
                     " failed_permanently " +
                     std::to_string(base.failed_permanently)});
      }
      const serving::ServingReport ff = serve(true);
      const auto ff_diffs = serving::diff_serving_reports(base, ff);
      if (!ff_diffs.empty()) return fail("serving-fast-forward", ff_diffs);
      if (verbose) {
        std::printf(
            "seed %llu serving: %zu/%llu completed, %llu failed attempt(s), "
            "%llu retried, %llu permanent, %llu shed expired\n",
            static_cast<unsigned long long>(seed), base.served.size(),
            static_cast<unsigned long long>(base.admitted),
            static_cast<unsigned long long>(base.failed_attempts),
            static_cast<unsigned long long>(base.retries),
            static_cast<unsigned long long>(base.failed_permanently),
            static_cast<unsigned long long>(base.shed_expired));
      }
    }

    if (verbose) {
      std::printf("seed %llu OK: %llu cluster cycles, %llu halo bytes, "
                  "both modes bit-identical\n",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(lock.total_cycles),
                  static_cast<unsigned long long>(lock.link.bytes_delivered));
    }
  } catch (const std::exception& e) {
    std::printf("FUZZ FAILURE seed=%llu (cluster): exception\n  %s\n",
                static_cast<unsigned long long>(seed), e.what());
    std::printf("replay: ./build/bench/fuzz_sim --cluster%s --seed=%llu\n",
                faults ? " --faults" : "",
                static_cast<unsigned long long>(seed));
    return false;
  }
  return true;
}

// ---------------------------------------------------------------- driver

void print_failure(std::uint64_t seed, const char* phase,
                   const std::vector<std::string>& diffs) {
  std::printf("FUZZ FAILURE seed=%llu phase=%s: lockstep and fast-forward "
              "diverge in %zu field(s)\n",
              static_cast<unsigned long long>(seed), phase, diffs.size());
  for (const auto& d : diffs) std::printf("  %s\n", d.c_str());
}

void print_replay(std::uint64_t seed) {
  std::printf("replay: ./build/bench/fuzz_sim --seed=%llu "
              "--trace-out=fuzz_%llu.json\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seed));
}

bool run_seed(std::uint64_t seed, bool verbose, const std::string& trace_out) {
  try {
    // ---- phase A: raw NoC differential
    const NocScenario scenario = random_noc_scenario(seed);
    if (verbose) {
      std::printf("seed %llu phase A: k=%u vcs=%u %zu row / %zu col "
                  "segments, %zu ring(s), %zu wave(s)\n",
                  static_cast<unsigned long long>(seed), scenario.params.k,
                  scenario.params.num_vcs,
                  scenario.config.row_segments().size(),
                  scenario.config.col_segments().size(),
                  scenario.config.rings().size(), scenario.waves.size());
    }
    {
      Rng probe_rng(seed * 2654435761ull + 17);
      probe_unroutable_ring(scenario, probe_rng);
    }
    const NocOutcome lock = run_noc_scenario(scenario, false);
    const NocOutcome fast = run_noc_scenario(scenario, true);
    const auto noc_diffs = diff_noc(lock, fast);
    if (!noc_diffs.empty()) {
      print_failure(seed, "noc", noc_diffs);
      print_replay(seed);
      return false;
    }

    // ---- phase B: full engine differential
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 3);
    const core::AuroraConfig chip = random_chip(rng);
    const graph::Dataset ds = random_dataset(rng);
    const gnn::GnnModel model =
        gnn::kAllModels[rng.next_below(gnn::kAllModels.size())];
    const gnn::LayerConfig layer{
        4 + static_cast<std::uint32_t>(rng.next_below(29)),
        4 + static_cast<std::uint32_t>(rng.next_below(29))};
    const auto layer_index =
        static_cast<std::uint32_t>(rng.next_below(2));
    if (verbose) {
      std::printf("seed %llu phase B: %ux%u chip, %s, %u vertices, "
                  "dims %u->%u, tREFI=%llu, interval=%llu\n",
                  static_cast<unsigned long long>(seed), chip.array_dim,
                  chip.array_dim, gnn::model_name(model), ds.num_vertices(),
                  layer.in_dim, layer.out_dim,
                  static_cast<unsigned long long>(chip.dram.timing.t_refi),
                  static_cast<unsigned long long>(chip.invariant_interval));
    }
    const core::RunMetrics lockstep =
        run_engine(chip, ds, model, layer, layer_index, false, nullptr);
    sim::Tracer tracer;
    sim::Tracer* tracer_ptr = nullptr;
    if (!trace_out.empty()) {
      tracer.enable();
      tracer_ptr = &tracer;
    }
    const core::RunMetrics fastfwd =
        run_engine(chip, ds, model, layer, layer_index, true, tracer_ptr);
    if (!trace_out.empty()) {
      sim::write_perfetto_trace(trace_out, tracer);
      std::printf("wrote %s (fast-forward engine run)\n", trace_out.c_str());
    }
    const auto diffs = core::diff_run_metrics(lockstep, fastfwd);
    if (!diffs.empty()) {
      print_failure(seed, "engine", diffs);
      print_replay(seed);
      return false;
    }
    if (verbose) {
      std::printf("seed %llu OK: %llu cycles, both modes bit-identical\n",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(lockstep.total_cycles));
    }
  } catch (const std::exception& e) {
    std::printf("FUZZ FAILURE seed=%llu: exception\n  %s\n",
                static_cast<unsigned long long>(seed), e.what());
    print_replay(seed);
    return false;
  }
  return true;
}

int run(int argc, char** argv) {
  const CliArgs args(argc, argv,
                     {"help", "cluster", "faults", "seed", "seeds",
                      "start-seed", "trace-out"});
  if (args.get_bool("help", false)) {
    std::printf(
        "fuzz_sim — differential fuzzer (lockstep vs fast-forward)\n\n"
        "  --seeds=<n>        number of seeds to run (default 25)\n"
        "  --start-seed=<s>   first seed (default 1)\n"
        "  --seed=<s>         run one seed verbosely (replay mode)\n"
        "  --cluster          fuzz the multi-chip cluster engine instead\n"
        "                     (random shard counts, topologies, link params)\n"
        "  --faults           with --cluster: inject a seed-deterministic\n"
        "                     fault plan (link degradation + DRAM stalls) on\n"
        "                     the cluster run and add a serving phase with\n"
        "                     chip failures; fault timelines and the full\n"
        "                     ServingReport must stay bit-identical across\n"
        "                     both scheduler modes\n"
        "  --trace-out=<p>    with --seed: write a Perfetto trace of the\n"
        "                     fast-forward engine run\n");
    return 0;
  }

  const bool cluster_mode = args.get_bool("cluster", false);
  const bool fault_mode = args.get_bool("faults", false);
  AURORA_CHECK_MSG(!fault_mode || cluster_mode,
                   "--faults requires --cluster");
  if (args.has("seed")) {
    const auto seed = std::uint64_t{args.get_uint("seed", 1)};
    if (cluster_mode) {
      return run_cluster_seed(seed, /*verbose=*/true, fault_mode) ? 0 : 1;
    }
    const std::string trace_out = args.get_string("trace-out", "");
    return run_seed(seed, /*verbose=*/true, trace_out) ? 0 : 1;
  }

  const auto seeds = std::uint64_t{args.get_uint("seeds", 25, 1)};
  const auto start =
      std::uint64_t{args.get_uint("start-seed", 1)};
  for (std::uint64_t seed = start; seed < start + seeds; ++seed) {
    const bool ok = cluster_mode
                        ? run_cluster_seed(seed, /*verbose=*/false,
                                           fault_mode)
                        : run_seed(seed, /*verbose=*/false, "");
    if (!ok) return 1;
  }
  std::printf("fuzz_sim%s%s: %llu seed(s) passed, both scheduler modes bit "
              "for bit identical\n",
              cluster_mode ? " (cluster)" : "",
              fault_mode && cluster_mode ? " (fault injection)" : "",
              static_cast<unsigned long long>(seeds));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return aurora::guarded_main(argc, argv, run);
}
