#include "workloads.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <set>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "cluster/cluster_engine.hpp"
#include "cluster/shard.hpp"
#include "common/stats.hpp"
#include "core/aurora.hpp"
#include "core/report.hpp"
#include "core/scheduler.hpp"
#include "graph/datasets.hpp"
#include "serving/serving_engine.hpp"
#include "workload/dynamic_graph.hpp"
#include "workload/workload_gen.hpp"

namespace perfbench {

std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

MetricMap empty_layer_metrics() {
  using C = MetricClock;
  const struct {
    const char* name;
    const char* unit;
    MetricClock clock;
  } kLayerMetrics[] = {
      {"graph.generate_s", "s", C::kHost},
      {"sim.cycles", "cycles", C::kSim},
      {"sim.skip_frac", "ratio", C::kCount},
      {"sim.host_ns_per_ticked_cycle", "ns/cycle", C::kHost},
      {"noc.packets", "count", C::kSim},
      {"noc.flit_hops", "count", C::kSim},
      {"noc.busy_cycles", "cycles", C::kSim},
      {"noc.packet_latency_p99_cycles", "cycles", C::kSim},
      {"noc.host_ns_per_flit_hop", "ns/hop", C::kHost},
      {"dram.requests", "count", C::kSim},
      {"dram.row_hit_frac", "ratio", C::kSim},
      {"dram.refreshes", "count", C::kSim},
      {"dram.request_latency_p99_cycles", "cycles", C::kSim},
      {"pe.tasks", "count", C::kSim},
      {"pe.utilization", "ratio", C::kSim},
      {"core.runs", "count", C::kCount},
      {"core.run_ms_p50", "ms", C::kHost},
      {"core.run_ms_tail", "ms", C::kHost},
      {"cluster.shard_plan_s", "s", C::kHost},
      {"cluster.chip_runs_s", "s", C::kHost},
      {"cluster.replay_frac", "ratio", C::kHost},
      {"cluster.parallel_speedup", "x", C::kHost},
      {"cluster.cut_edges", "count", C::kSim},
      {"cluster.halo_bytes", "bytes", C::kSim},
      {"cluster.link_stall_cycles", "cycles", C::kSim},
      {"cluster.barrier_wait_cycles", "cycles", C::kSim},
      {"cluster.dispatches", "count", C::kSim},
      {"cluster.cache_hit_frac", "ratio", C::kSim},
      {"serving.run_s", "s", C::kHost},
      {"serving.self_s", "s", C::kHost},
      {"serving.host_us_per_request", "us", C::kHost},
      {"serving.generated", "count", C::kSim},
      {"serving.shed", "count", C::kSim},
      {"serving.batches", "count", C::kSim},
      {"serving.batched_followers", "count", C::kSim},
      {"serving.queue_wait_p99_us", "us", C::kSim},
      {"workload.generate_s", "s", C::kHost},
      {"workload.host_us_per_event", "us", C::kHost},
      {"workload.mutations", "count", C::kSim},
      {"workload.queries", "count", C::kSim},
      {"workload.compactions", "count", C::kSim},
      {"workload.reshards", "count", C::kSim},
      {"workload.batch_vertices_mean", "vertices", C::kSim},
      {"trace.overhead_frac", "ratio", C::kHost},
  };
  MetricMap out;
  for (const auto& m : kLayerMetrics) {
    out[m.name] = {0.0, m.unit, m.clock, "layer not exercised"};
  }
  return out;
}

namespace {

using namespace aurora;

/// Highest of p99/p95/p90 with at least 10 samples beyond it (nearest
/// rank); the maximum, with q = 1, when no percentile qualifies.
struct Tail {
  double value = 0.0;
  double q = 1.0;
  std::uint64_t beyond = 0;
};

Tail tail_of(std::vector<double> samples) {
  Tail tail;
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  for (const double q : {0.99, 0.95, 0.90}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));  // nearest rank, 1-based
    if (rank >= 1 && n - rank >= 10) {
      return {samples[rank - 1], q, n - rank};
    }
  }
  tail.value = samples.back();
  return tail;
}

/// FNV-1a, 64 bit.
class Digest {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void digest_histogram(Digest& d, const Histogram& h) {
  d.u64(h.total());
  for (std::size_t i = 0; i < h.num_buckets(); ++i) d.u64(h.bucket_count(i));
}

/// Every simulated statistic of a chip run. The scheduler's
/// "sim.cycles_skipped" counter is left out: it counts simulator work, not
/// modelled behaviour, so a speed-only change may move it.
void digest_run(Digest& d, const core::RunMetrics& m) {
  core::RunMetrics modelled = m;
  modelled.counters.reset();
  for (const auto& [name, value] : m.counters.all()) {
    if (name != "sim.cycles_skipped") modelled.counters.inc(name, value);
  }
  d.str(core::metrics_to_json(modelled));
  d.str(m.noc_heatmap);
  d.str(m.pe_heatmap);
  digest_histogram(d, m.noc_packet_latency);
  digest_histogram(d, m.dram_request_latency);
}

void digest_cluster(Digest& d, const cluster::ClusterRunMetrics& m) {
  d.u64(m.total_cycles);
  d.u64(m.cut_edges);
  d.u64(m.ghost_vertices);
  d.f64(m.replication_factor);
  for (const cluster::ChipRun& chip : m.chips) {
    digest_run(d, chip.metrics);
    d.u64(chip.finish_cycle);
    d.u64(chip.halo_wait_cycles);
    d.u64(chip.halo_bytes_sent);
    d.u64(chip.halo_bytes_received);
  }
  const cluster::LinkStats& l = m.link;
  for (const std::uint64_t v :
       {l.messages_sent, l.messages_delivered, l.bytes_sent, l.bytes_delivered,
        l.hops, l.bytes_hopped, l.serialize_cycles, l.stall_cycles,
        l.degraded_sends, l.degraded_extra_cycles}) {
    d.u64(v);
  }
  digest_histogram(d, l.latency);
  for (const auto& [name, value] : m.counters.all()) {
    d.str(name);
    d.u64(value);
  }
}

void digest_serving(Digest& d, const serving::ServingReport& report) {
  d.str(serving::serving_report_json(report));
  // Served requests carry service-cache copies; their headline numbers
  // pin which measurement each one was charged.
  for (const serving::ServedRequest& r : report.served) {
    d.u64(r.metrics.total_cycles);
    d.u64(r.metrics.dram_bytes);
    d.u64(r.metrics.noc_messages);
  }
}

void fail(PassResult& result, std::string problem) {
  ++result.failed;
  if (result.problems.size() < 8) result.problems.push_back(std::move(problem));
}

/// Both serving conservation laws (admission, and completion of everything
/// admitted); an empty list means the report balances.
std::vector<std::string> serving_law_violations(
    const serving::ServingReport& r) {
  std::vector<std::string> out;
  if (r.admitted + r.shed != r.generated) {
    out.push_back("admitted + shed != generated (" +
                  std::to_string(r.admitted) + " + " + std::to_string(r.shed) +
                  " != " + std::to_string(r.generated) + ")");
  }
  const std::uint64_t completed = r.served.size();
  if (r.admitted != completed + r.shed_expired + r.failed_permanently) {
    out.push_back("admitted != served + shed_expired + failed_permanently (" +
                  std::to_string(r.admitted) + " != " +
                  std::to_string(completed) + " + " +
                  std::to_string(r.shed_expired) + " + " +
                  std::to_string(r.failed_permanently) + ")");
  }
  return out;
}

/// Modelled latency figures of a serving report.
void summarize_serving(const serving::ServingReport& report,
                       PassResult& result) {
  const double mhz = report.frequency_mhz;
  std::vector<double> us;
  us.reserve(report.served.size());
  for (const serving::ServedRequest& r : report.served) {
    us.push_back(static_cast<double>(r.latency()) / mhz);
  }
  result.serving = true;
  result.requests = report.served.size();
  result.sim_cycles = report.horizon;
  result.goodput_rps = report.goodput_rps();
  result.latency_samples = us.size();
  result.p50_us = percentile(us, 0.50);
  const Tail tail = tail_of(std::move(us));
  result.tail_us = tail.value;
  result.tail_q = tail.q;
  result.tail_beyond = tail.beyond;
}

/// Host seconds of the span `name` that operation `op` recorded.
double span_seconds(const SpanRecorder& spans, std::string_view name,
                    std::uint64_t op) {
  double sum = 0.0;
  for (const Span& s : spans.spans()) {
    if (s.op == op && s.name == name) sum += s.seconds();
  }
  return sum;
}

/// One simulated chip run seen by the traced run, with its host time.
struct ChipSample {
  const core::RunMetrics* metrics = nullptr;
  double host_s = 0.0;
  /// Whether the run counts toward the kernel's (sim) and the NoC's host
  /// cost per unit of work; chip_zoo reads each on the half it dominates.
  bool sim_basis = true;
  bool noc_basis = true;
};

void set(MetricMap& out, const std::string& name, double value,
         std::string note = "") {
  Metric& m = out.at(name);
  m.value = value;
  m.note = std::move(note);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The sim, noc, dram, pe and core layers, from the chip runs a workload
/// made: exact work counts from each run's counters, host cost per unit of
/// work from the chip-run spans.
void chip_layer_metrics(const std::vector<ChipSample>& runs, MetricMap& out) {
  double cycles = 0, skipped = 0, packets = 0, flit_hops = 0, noc_busy = 0;
  double dram_requests = 0, row_hits = 0, row_accesses = 0, refreshes = 0;
  double pe_tasks = 0, util_weighted = 0, util_weight = 0;
  double sim_host_s = 0, sim_ticked = 0, noc_host_s = 0, noc_hops = 0;
  Histogram noc_latency(kNocLatencyBucketCycles, kNocLatencyBuckets);
  Histogram dram_latency(kDramLatencyBucketCycles, kDramLatencyBuckets);
  std::vector<double> run_ms;
  for (const ChipSample& run : runs) {
    const core::RunMetrics& m = *run.metrics;
    const CounterSet& c = m.counters;
    const auto get = [&c](const char* name) {
      return static_cast<double>(c.get(name));
    };
    cycles += get("sim.cycles_total");
    skipped += get("sim.cycles_skipped");
    packets += get("noc.packets_delivered");
    flit_hops += get("noc.flit_hops");
    noc_busy += get("noc.busy_cycles");
    dram_requests += get("dram.requests");
    row_hits += get("dram.row_hits");
    row_accesses +=
        get("dram.row_hits") + get("dram.row_misses") + get("dram.row_conflicts");
    refreshes += get("dram.refreshes");
    pe_tasks += get("pe.tasks");
    util_weighted += m.pe_utilization * static_cast<double>(m.total_cycles);
    util_weight += static_cast<double>(m.total_cycles);
    noc_latency.merge(m.noc_packet_latency);
    dram_latency.merge(m.dram_request_latency);
    if (run.sim_basis) {
      sim_host_s += run.host_s;
      sim_ticked += get("sim.cycles_total") - get("sim.cycles_skipped");
    }
    if (run.noc_basis) {
      noc_host_s += run.host_s;
      noc_hops += get("noc.flit_hops");
    }
    run_ms.push_back(run.host_s * 1e3);
  }
  const std::string n = std::to_string(runs.size()) + " chip runs";
  set(out, "sim.cycles", cycles, n);
  set(out, "sim.skip_frac", ratio(skipped, cycles), n);
  set(out, "sim.host_ns_per_ticked_cycle", ratio(sim_host_s * 1e9, sim_ticked),
      "chip-run span / ticked cycles");
  set(out, "noc.packets", packets, n);
  set(out, "noc.flit_hops", flit_hops, n);
  set(out, "noc.busy_cycles", noc_busy, n);
  set(out, "noc.packet_latency_p99_cycles", noc_latency.quantile(0.99),
      std::to_string(noc_latency.total()) + " packets");
  set(out, "noc.host_ns_per_flit_hop", ratio(noc_host_s * 1e9, noc_hops),
      "chip-run span / flit hops");
  set(out, "dram.requests", dram_requests, n);
  set(out, "dram.row_hit_frac", ratio(row_hits, row_accesses), n);
  set(out, "dram.refreshes", refreshes, n);
  set(out, "dram.request_latency_p99_cycles", dram_latency.quantile(0.99),
      std::to_string(dram_latency.total()) + " requests");
  set(out, "pe.tasks", pe_tasks, n);
  set(out, "pe.utilization", ratio(util_weighted, util_weight),
      "cycle-weighted mean");
  set(out, "core.runs", static_cast<double>(runs.size()));
  set(out, "core.run_ms_p50", percentile(run_ms, 0.5), n);
  const Tail tail = tail_of(run_ms);
  set(out, "core.run_ms_tail", tail.value,
      tail.beyond > 0 ? "p" + std::to_string(static_cast<int>(tail.q * 100)) +
                            ", " + std::to_string(tail.beyond) + " beyond, " + n
                      : "max (fewer than 10 beyond p90), " + n);
}

/// Serving-layer metrics shared by both serving workloads. `uncached` are
/// the direct re-runs of every distinct job the report dispatched.
void serving_layer_metrics(const serving::ServingReport& report, double run_s,
                           const std::vector<ChipSample>& uncached,
                           MetricMap& out) {
  double uncached_s = 0.0;
  for (const ChipSample& s : uncached) uncached_s += s.host_s;
  const double dispatches = static_cast<double>(report.served.size()) +
                            static_cast<double>(report.failed_attempts);
  set(out, "serving.run_s", run_s);
  set(out, "serving.self_s", run_s - uncached_s,
      "run_s minus direct re-runs of its " + std::to_string(uncached.size()) +
          " uncached jobs");
  set(out, "serving.host_us_per_request",
      ratio(run_s * 1e6, static_cast<double>(report.generated)),
      "per generated request");
  set(out, "serving.generated", static_cast<double>(report.generated));
  set(out, "serving.shed", static_cast<double>(report.shed));
  set(out, "serving.batches", static_cast<double>(report.batches));
  set(out, "serving.batched_followers",
      static_cast<double>(report.batched_followers));
  set(out, "serving.queue_wait_p99_us",
      report.queue_wait_percentile(0.99) / report.frequency_mhz,
      std::to_string(report.served.size()) + " requests");
  set(out, "cluster.dispatches", dispatches);
  set(out, "cluster.cache_hit_frac",
      dispatches > 0
          ? 1.0 - static_cast<double>(uncached.size()) / dispatches
          : 0.0,
      "derived: 1 - distinct (job, dataset) / dispatches");
}

// ---------------------------------------------------------------------------
// chip_zoo: the ten-model zoo on one chip, NoC-bound and tiled.

class ChipZoo final : public Workload {
 public:
  void setup(std::uint64_t seed, Size size, SpanRecorder* spans) override {
    {
      ScopedSpan span(spans, "graph.make_dataset", 0);
      dataset_ = graph::make_dataset(graph::DatasetId::kPubmed,
                                     size == Size::kTiny ? 0.0016 : 0.005, seed);
    }
    core::AuroraConfig one_tile = core::AuroraConfig::bench();
    core::AuroraConfig tiled = one_tile;
    // A 64-byte bank buffer streams the same graph through tens of tiles.
    tiled.pe.bank_buffer_bytes = 64;
    cases_.clear();
    for (const bool is_tiled : {false, true}) {
      for (const gnn::GnnModel model : gnn::kAllModels) {
        cases_.push_back({is_tiled ? tiled : one_tile,
                          core::GnnJob::two_layer(model, dataset_.spec, 16),
                          std::string(gnn::model_name(model)) +
                              (is_tiled ? " (tiled)" : " (one tile)"),
                          is_tiled});
      }
    }
    outputs_.assign(cases_.size(), {});
    lockstep_.clear();
  }

  void prepare_checks() override {
    lockstep_.assign(cases_.size(), {});
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      core::AuroraConfig config = cases_[i].config;
      config.fast_forward = false;
      try {
        core::AuroraAccelerator accelerator(config);
        lockstep_[i].metrics = accelerator.run(dataset_, cases_[i].job);
        lockstep_[i].ok = true;
      } catch (const std::exception& e) {
        lockstep_[i].error = e.what();
      }
    }
  }

  void run_pass(SpanRecorder* spans, std::uint64_t& next_op,
                std::vector<double>& op_s) override {
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      Output& o = outputs_[i];
      o = Output{};
      o.op = next_op++;
      const OpTimer timer(op_s);
      try {
        ScopedSpan span(spans, "core.run", o.op);
        core::AuroraAccelerator accelerator(cases_[i].config);
        o.metrics = accelerator.run(dataset_, cases_[i].job);
        o.ok = true;
      } catch (const std::exception& e) {
        o.error = e.what();
      }
    }
  }

  PassResult check(bool tamper) override {
    PassResult result;
    result.attempted = cases_.size();
    Digest digest;
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      const Output& o = outputs_[i];
      const std::string& label = cases_[i].label;
      if (!o.ok) {
        fail(result, label + " threw: " + o.error);
        continue;
      }
      core::RunMetrics tampered;
      const core::RunMetrics* m = &o.metrics;
      if (tamper && i == 0) {
        tampered = o.metrics;
        tampered.total_cycles += 1;
        m = &tampered;
      }
      if (m->total_cycles == 0) {
        fail(result, label + " simulated zero cycles");
        continue;
      }
      if (!lockstep_.empty()) {
        if (!lockstep_[i].ok) {
          fail(result, label + " lockstep twin threw: " + lockstep_[i].error);
          continue;
        }
        const std::vector<std::string> diffs =
            core::diff_run_metrics(*m, lockstep_[i].metrics);
        if (!diffs.empty()) {
          fail(result, label + " differs from its lockstep twin: " + diffs[0]);
          continue;
        }
      }
      result.requests += 1;
      result.sim_cycles += m->total_cycles;
      digest.str(label);
      digest_run(digest, *m);
    }
    result.digest = digest.value();
    return result;
  }

  void layer_metrics(SpanRecorder& spans, std::uint64_t& /*next_op*/,
                     MetricMap& out) override {
    std::vector<ChipSample> samples;
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      const Output& o = outputs_[i];
      if (!o.ok) continue;
      const bool tiled = cases_[i].tiled;
      samples.push_back({&o.metrics, span_seconds(spans, "core.run", o.op),
                         /*sim_basis=*/tiled, /*noc_basis=*/!tiled});
    }
    chip_layer_metrics(samples, out);
    out.at("sim.host_ns_per_ticked_cycle").note += ", tiled half";
    out.at("noc.host_ns_per_flit_hop").note += ", one-tile half";
  }

 private:
  struct Case {
    core::AuroraConfig config;
    core::GnnJob job;
    std::string label;
    bool tiled = false;
  };
  struct Output {
    std::uint64_t op = 0;
    bool ok = false;
    std::string error;
    core::RunMetrics metrics;
  };

  graph::Dataset dataset_;
  std::vector<Case> cases_;
  std::vector<Output> outputs_;
  std::vector<Output> lockstep_;
};

// ---------------------------------------------------------------------------
// cluster_shard4: GCN and AGNN hash-sharded over four chips, parallel engine.

class ClusterShard4 final : public Workload {
 public:
  // Counted here, before the harness pins set-up rounds to one CPU.
  ClusterShard4()
      : workers_(std::clamp(static_cast<unsigned>(allowed_cpus().size()), 1u,
                            kChips)) {}

  void setup(std::uint64_t seed, Size size, SpanRecorder* spans) override {
    {
      ScopedSpan span(spans, "graph.make_dataset", 0);
      dataset_ = graph::make_dataset(graph::DatasetId::kPubmed,
                                     size == Size::kTiny ? 0.002 : 0.02, seed);
    }
    config_ = core::AuroraConfig::bench();
    params_ = cluster::ClusterParams{};
    params_.num_chips = kChips;
    params_.strategy = cluster::ShardStrategy::kHash;
    params_.parallel = true;
    params_.parallel_jobs = workers_;
    jobs_.clear();
    for (const gnn::GnnModel model : {gnn::GnnModel::kGcn, gnn::GnnModel::kAgnn}) {
      jobs_.push_back(core::GnnJob::two_layer(model, dataset_.spec, 16));
    }
    outputs_.assign(jobs_.size(), {});
    serial_.clear();
  }

  void prepare_checks() override {
    serial_.assign(jobs_.size(), {});
    cluster::ClusterParams serial = params_;
    serial.parallel = false;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      try {
        cluster::ClusterEngine engine(config_, serial);
        serial_[j].metrics = engine.run(dataset_, jobs_[j]);
        serial_[j].ok = true;
      } catch (const std::exception& e) {
        serial_[j].error = e.what();
      }
    }
  }

  void run_pass(SpanRecorder* spans, std::uint64_t& next_op,
                std::vector<double>& op_s) override {
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      Output& o = outputs_[j];
      o = Output{};
      o.op = next_op++;
      const OpTimer timer(op_s);
      try {
        ScopedSpan span(spans, "cluster.run", o.op);
        cluster::ClusterEngine engine(config_, params_);
        o.metrics = engine.run(dataset_, jobs_[j]);
        o.ok = true;
      } catch (const std::exception& e) {
        o.error = e.what();
      }
    }
  }

  PassResult check(bool tamper) override {
    PassResult result;
    result.attempted = jobs_.size();
    Digest digest;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      const Output& o = outputs_[j];
      const std::string label = gnn::model_name(jobs_[j].model);
      if (!o.ok) {
        fail(result, label + " threw: " + o.error);
        continue;
      }
      cluster::ClusterRunMetrics tampered;
      const cluster::ClusterRunMetrics* m = &o.metrics;
      if (tamper && j == 0) {
        tampered = o.metrics;
        tampered.total_cycles += 1;
        m = &tampered;
      }
      if (m->total_cycles == 0 || m->chips.size() != kChips) {
        fail(result, label + " returned an empty cluster run");
        continue;
      }
      if (!serial_.empty()) {
        if (!serial_[j].ok) {
          fail(result, label + " serial twin threw: " + serial_[j].error);
          continue;
        }
        const std::vector<std::string> diffs =
            cluster::diff_cluster_run_metrics(*m, serial_[j].metrics);
        if (!diffs.empty()) {
          fail(result, label + " parallel differs from serial: " + diffs[0]);
          continue;
        }
      }
      result.requests += 1;
      result.sim_cycles += m->total_cycles;
      digest.str(label);
      digest_cluster(digest, *m);
    }
    result.digest = digest.value();
    return result;
  }

  void layer_metrics(SpanRecorder& spans, std::uint64_t& next_op,
                     MetricMap& out) override {
    double cut_edges = 0, halo_bytes = 0, stalls = 0, barrier = 0;
    for (const Output& o : outputs_) {
      if (!o.ok) continue;
      cut_edges += static_cast<double>(o.metrics.cut_edges);
      halo_bytes +=
          static_cast<double>(o.metrics.counters.get("cluster.halo_bytes_sent"));
      stalls += static_cast<double>(
          o.metrics.counters.get("cluster.link_stall_cycles"));
      barrier += static_cast<double>(
          o.metrics.counters.get("cluster.barrier_wait_cycles"));
    }

    // Split the serial engine's wall time from outside: the same jobs
    // through the serial engine, then each serial run's shard plan and every
    // chip's layer runs re-run directly as its children, so the serial
    // span's self time is what remains (halo planning and timeline replay).
    cluster::ClusterParams serial = params_;
    serial.parallel = false;
    double parallel_s = 0, serial_s = 0, plan_s = 0, chip_runs_s = 0;
    std::vector<core::RunMetrics> chip_metrics;
    std::vector<double> chip_host_s;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      if (!outputs_[j].ok) continue;
      const core::GnnJob& job = jobs_[j];
      parallel_s += span_seconds(spans, "cluster.run", outputs_[j].op);
      const std::uint64_t op = next_op++;
      {
        ScopedSpan span(&spans, "cluster.run_serial", op);
        cluster::ClusterEngine engine(config_, serial);
        (void)engine.run(dataset_, job);
      }
      serial_s += span_seconds(spans, "cluster.run_serial", op);
      const std::int64_t parent = spans.find("cluster.run_serial", op);
      cluster::ShardPlan plan;
      {
        ScopedSpan span(&spans, "cluster.make_shard_plan", op, parent);
        plan = cluster::make_shard_plan(dataset_, kChips, params_.strategy);
      }
      plan_s += span_seconds(spans, "cluster.make_shard_plan", op);
      for (const cluster::Shard& shard : plan.shards) {
        core::AuroraAccelerator accelerator(config_);
        for (std::size_t l = 0; l < job.layers.size(); ++l) {
          const std::uint64_t layer_op = next_op++;
          {
            ScopedSpan span(&spans, "core.run_layer", layer_op, parent);
            chip_metrics.push_back(accelerator.run_layer(
                shard.dataset, job.model, job.layers[l],
                static_cast<std::uint32_t>(l)));
          }
          chip_host_s.push_back(span_seconds(spans, "core.run_layer", layer_op));
          chip_runs_s += chip_host_s.back();
        }
      }
    }
    std::vector<ChipSample> samples;
    for (std::size_t i = 0; i < chip_metrics.size(); ++i) {
      samples.push_back({&chip_metrics[i], chip_host_s[i]});
    }
    chip_layer_metrics(samples, out);
    set(out, "cluster.shard_plan_s", plan_s);
    set(out, "cluster.chip_runs_s", chip_runs_s,
        "direct run_layer re-runs of every shard");
    set(out, "cluster.replay_frac",
        ratio(serial_s - plan_s - chip_runs_s, serial_s),
        "(serial run - shard plan - chip runs) / serial run");
    set(out, "cluster.parallel_speedup", ratio(serial_s, parallel_s),
        "serial / parallel ClusterEngine::run, " + std::to_string(workers_) +
            " workers");
    set(out, "cluster.cut_edges", cut_edges);
    set(out, "cluster.halo_bytes", halo_bytes);
    set(out, "cluster.link_stall_cycles", stalls);
    set(out, "cluster.barrier_wait_cycles", barrier);
  }

  [[nodiscard]] unsigned worker_threads() const override { return workers_; }

 private:
  static constexpr std::uint32_t kChips = 4;
  struct Output {
    std::uint64_t op = 0;
    bool ok = false;
    std::string error;
    cluster::ClusterRunMetrics metrics;
  };

  graph::Dataset dataset_;
  core::AuroraConfig config_;
  cluster::ClusterParams params_;
  unsigned workers_ = 1;
  std::vector<core::GnnJob> jobs_;
  std::vector<Output> outputs_;
  std::vector<Output> serial_;
};

// ---------------------------------------------------------------------------
// serving_burst: the serving example's three-model mix under MMPP bursts.

class ServingBurst final : public Workload {
 public:
  void setup(std::uint64_t seed, Size size, SpanRecorder* spans) override {
    {
      ScopedSpan span(spans, "graph.make_dataset", 0);
      dataset_ = graph::make_dataset(graph::DatasetId::kPubmed, 0.002, seed);
    }
    config_ = core::AuroraConfig::bench();
    mix_.clear();
    for (const auto& [model, label] :
         {std::pair{gnn::GnnModel::kGcn, "candidate-scoring/GCN"},
          std::pair{gnn::GnnModel::kAgnn, "re-ranking/AGNN"},
          std::pair{gnn::GnnModel::kGraphSagePool, "session/SAGE-Pool"}}) {
      mix_.push_back({core::GnnJob::two_layer(model, dataset_.spec, 32), label,
                      1.0, 0});
    }
    cluster_ = cluster::ClusterParams{};
    cluster_.num_chips = 4;
    params_ = serving::ServingParams{};
    params_.arrival.kind = serving::ArrivalKind::kBursty;
    // Mean rate below the four chips' batched capacity (~44k req/s on this
    // graph); bursts run at 8x the mean for 10% of the time.
    params_.arrival.rate_per_mcycle = 30000.0 / config_.frequency_mhz;
    params_.arrival.burst_rate_multiplier = 8.0;
    params_.arrival.burst_fraction = 0.1;
    params_.seed = seed;
    params_.num_requests = size == Size::kTiny ? 1500 : 20000;
    params_.queue_depth = 64;
    params_.max_batch = 4;
    params_.num_tenants = 2;
    params_.slo_cycles = static_cast<Cycle>(1000.0 * config_.frequency_mhz);
    params_.mode = cluster::DispatchMode::kDataParallel;
    report_ = {};
    ok_ = false;
  }

  void run_pass(SpanRecorder* spans, std::uint64_t& next_op,
                std::vector<double>& op_s) override {
    op_ = next_op++;
    ok_ = false;
    report_ = {};
    const OpTimer timer(op_s);
    try {
      ScopedSpan span(spans, "serving.run", op_);
      serving::ServingEngine engine(config_, cluster_, params_);
      report_ = engine.run(dataset_, mix_);
      ok_ = true;
    } catch (const std::exception& e) {
      error_ = e.what();
    }
  }

  PassResult check(bool tamper) override {
    PassResult result;
    result.attempted = 1;
    if (!ok_) {
      fail(result, "ServingEngine::run threw: " + error_);
      return result;
    }
    if (tamper) report_.shed += 1;
    std::vector<std::string> problems = serving_law_violations(report_);
    if (report_.served.empty()) problems.push_back("no request was served");
    if (!problems.empty()) fail(result, "ServingEngine::run: " + problems[0]);
    summarize_serving(report_, result);
    Digest digest;
    digest_serving(digest, report_);
    result.digest = digest.value();
    return result;
  }

  void layer_metrics(SpanRecorder& spans, std::uint64_t& next_op,
                     MetricMap& out) override {
    if (!ok_) return;
    // Every distinct job the report dispatched, re-run directly as children
    // of the serving span: the service-cache fills ServingEngine::run paid
    // for, so the serving span's self time is queueing, placement and the
    // report.
    std::set<std::string> used;
    for (const serving::ServedRequest& r : report_.served) {
      used.insert(r.label.substr(0, r.label.rfind(" #")));
    }
    const std::int64_t parent = spans.find("serving.run", op_);
    std::vector<core::RunMetrics> metrics;
    std::vector<double> host_s;
    for (const serving::ModelMixEntry& entry : mix_) {
      if (used.count(entry.label) == 0) continue;
      const std::uint64_t op = next_op++;
      {
        ScopedSpan span(&spans, "core.run", op, parent);
        core::AuroraAccelerator accelerator(config_);
        metrics.push_back(accelerator.run(dataset_, entry.job));
      }
      host_s.push_back(span_seconds(spans, "core.run", op));
    }
    std::vector<ChipSample> samples;
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      samples.push_back({&metrics[i], host_s[i]});
    }
    chip_layer_metrics(samples, out);
    serving_layer_metrics(report_, span_seconds(spans, "serving.run", op_),
                          samples, out);
  }

 private:
  graph::Dataset dataset_;
  core::AuroraConfig config_;
  std::vector<serving::ModelMixEntry> mix_;
  cluster::ClusterParams cluster_;
  serving::ServingParams params_;
  std::uint64_t op_ = 0;
  bool ok_ = false;
  std::string error_;
  serving::ServingReport report_;
};

// ---------------------------------------------------------------------------
// serving_dynamic: churn plus sampled queries, replayed on four chips.

class ServingDynamic final : public Workload {
 public:
  void setup(std::uint64_t seed, Size size, SpanRecorder* spans) override {
    const bool tiny = size == Size::kTiny;
    {
      ScopedSpan span(spans, "graph.make_dataset", 0);
      dataset_ = graph::make_dataset(graph::DatasetId::kPubmed,
                                     tiny ? 0.005 : 0.01, seed);
    }
    config_ = core::AuroraConfig::bench();
    job_ = core::GnnJob::two_layer(gnn::GnnModel::kGcn, dataset_.spec, 16);
    wp_ = workload::DynamicWorkloadParams{};
    wp_.arrival.rate_per_mcycle = 10000.0 / config_.frequency_mhz;
    wp_.seed = seed;
    wp_.num_ops = tiny ? 120 : 500;
    wp_.mutation_fraction = 0.5;
    wp_.insert_fraction = 0.7;
    wp_.num_seeds = 2;
    wp_.sampler.fanouts = {5, 3};
    wp_.sampler.seed = seed * 31 + 7;
    wp_.num_tenants = 2;
    wp_.num_chips = 4;
    wp_.reshard_threshold = 0.1;
    cluster_ = cluster::ClusterParams{};
    cluster_.num_chips = 4;
    params_ = serving::ServingParams{};
    params_.seed = seed;
    params_.queue_depth = 64;
    params_.max_batch = 4;
    params_.num_tenants = 2;
    params_.mode = cluster::DispatchMode::kDataParallel;
    workload_ = {};
    report_ = {};
    generated_ = replayed_ = false;
  }

  void run_pass(SpanRecorder* spans, std::uint64_t& next_op,
                std::vector<double>& op_s) override {
    generated_ = replayed_ = false;
    workload_ = {};
    report_ = {};
    generate_op_ = next_op++;
    {
      const OpTimer timer(op_s);
      try {
        ScopedSpan span(spans, "workload.generate", generate_op_);
        workload::DynamicGraph graph(dataset_.graph);
        const workload::WorkloadGenerator generator(wp_);
        workload_ = generator.generate(graph, dataset_, job_);
        generated_ = true;
      } catch (const std::exception& e) {
        error_ = std::string("WorkloadGenerator::generate threw: ") + e.what();
      }
    }
    replay_op_ = next_op++;
    if (!generated_) return;
    const OpTimer timer(op_s);
    try {
      ScopedSpan span(spans, "serving.replay", replay_op_);
      serving::ServingEngine engine(config_, cluster_, params_);
      report_ = engine.replay(dataset_, workload_.queries);
      replayed_ = true;
    } catch (const std::exception& e) {
      error_ = std::string("ServingEngine::replay threw: ") + e.what();
    }
  }

  PassResult check(bool tamper) override {
    PassResult result;
    result.attempted = 2;
    if (!generated_ || !replayed_) {
      result.failed = generated_ ? 1 : 2;
      result.problems.push_back(error_);
      return result;
    }
    if (tamper) report_.shed += 1;
    const workload::DynamicWorkloadStats& s = workload_.stats;
    if (s.queries != workload_.queries.size() ||
        s.mutations != workload_.mutations.size() ||
        s.queries + s.mutations != wp_.num_ops) {
      fail(result, "generated stream does not add up to its op count");
    }
    std::vector<std::string> problems = serving_law_violations(report_);
    if (report_.generated != workload_.queries.size()) {
      problems.push_back("replay did not see every query");
    }
    if (!problems.empty()) fail(result, "ServingEngine::replay: " + problems[0]);
    summarize_serving(report_, result);
    Digest digest;
    for (const std::uint64_t v :
         {s.mutations, s.edge_adds, s.edge_removes, s.vertex_adds,
          s.vertex_removes, s.queries, s.compactions, s.reshards,
          static_cast<std::uint64_t>(s.final_vertices), s.final_edges,
          s.final_cut_edges, s.planned_cut_edges}) {
      digest.u64(v);
    }
    for (const workload::GraphMutation& m : workload_.mutations) {
      digest.u64(static_cast<std::uint64_t>(m.kind));
      digest.u64(m.at);
      digest.u64(m.u);
      digest.u64(m.v);
      digest.u64(m.applied ? 1 : 0);
    }
    for (const serving::ServingRequest& q : workload_.queries) {
      digest.u64(q.id);
      digest.u64(q.arrival);
      digest.str(q.dataset_key);
    }
    digest_serving(digest, report_);
    result.digest = digest.value();
    return result;
  }

  void layer_metrics(SpanRecorder& spans, std::uint64_t& next_op,
                     MetricMap& out) override {
    if (!generated_ || !replayed_) return;
    const workload::DynamicWorkloadStats& s = workload_.stats;
    const double generate_s =
        span_seconds(spans, "workload.generate", generate_op_);
    double batch_vertices = 0.0;
    for (const serving::ServingRequest& q : workload_.queries) {
      batch_vertices += static_cast<double>(q.dataset->num_vertices());
    }
    set(out, "workload.generate_s", generate_s);
    set(out, "workload.host_us_per_event",
        ratio(generate_s * 1e6, static_cast<double>(wp_.num_ops)),
        std::to_string(wp_.num_ops) + " events");
    set(out, "workload.mutations", static_cast<double>(s.mutations));
    set(out, "workload.queries", static_cast<double>(s.queries));
    set(out, "workload.compactions", static_cast<double>(s.compactions));
    set(out, "workload.reshards", static_cast<double>(s.reshards));
    set(out, "workload.batch_vertices_mean",
        ratio(batch_vertices, static_cast<double>(workload_.queries.size())));

    // Every distinct (subgraph, job) the replay dispatched, re-run directly
    // as children of the replay span.
    std::unordered_map<std::uint64_t, const serving::ServingRequest*> by_id;
    for (const serving::ServingRequest& q : workload_.queries) by_id[q.id] = &q;
    const std::int64_t parent = spans.find("serving.replay", replay_op_);
    std::set<std::string> seen;
    std::vector<core::RunMetrics> metrics;
    std::vector<double> host_s;
    for (const serving::ServedRequest& r : report_.served) {
      const serving::ServingRequest& q = *by_id.at(r.id);
      if (!seen.insert(q.dataset_key + "|" + core::job_signature(q.job)).second) {
        continue;
      }
      const std::uint64_t op = next_op++;
      {
        ScopedSpan span(&spans, "core.run", op, parent);
        core::AuroraAccelerator accelerator(config_);
        metrics.push_back(accelerator.run(*q.dataset, q.job));
      }
      host_s.push_back(span_seconds(spans, "core.run", op));
    }
    std::vector<ChipSample> samples;
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      samples.push_back({&metrics[i], host_s[i]});
    }
    chip_layer_metrics(samples, out);
    serving_layer_metrics(report_,
                          span_seconds(spans, "serving.replay", replay_op_),
                          samples, out);
  }

 private:
  graph::Dataset dataset_;
  core::AuroraConfig config_;
  core::GnnJob job_;
  workload::DynamicWorkloadParams wp_;
  cluster::ClusterParams cluster_;
  serving::ServingParams params_;
  std::uint64_t generate_op_ = 0;
  std::uint64_t replay_op_ = 0;
  bool generated_ = false;
  bool replayed_ = false;
  std::string error_;
  workload::DynamicWorkload workload_;
  serving::ServingReport report_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "chip_zoo", "cluster_shard4", "serving_burst", "serving_dynamic"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "chip_zoo") return std::make_unique<ChipZoo>();
  if (name == "cluster_shard4") return std::make_unique<ClusterShard4>();
  if (name == "serving_burst") return std::make_unique<ServingBurst>();
  if (name == "serving_dynamic") return std::make_unique<ServingDynamic>();
  return nullptr;
}

}  // namespace perfbench
