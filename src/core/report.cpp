#include "core/report.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace aurora::core {
namespace {

void append_kv(std::ostringstream& os, const char* key, double value,
               bool last = false) {
  os << "\"" << key << "\": " << value << (last ? "" : ", ");
}

void append_kv(std::ostringstream& os, const char* key, std::uint64_t value,
               bool last = false) {
  os << "\"" << key << "\": " << value << (last ? "" : ", ");
}

}  // namespace

std::string metrics_to_json(const RunMetrics& m) {
  std::ostringstream os;
  os << "{";
  append_kv(os, "total_cycles", static_cast<std::uint64_t>(m.total_cycles));
  append_kv(os, "compute_cycles",
            static_cast<std::uint64_t>(m.compute_cycles));
  append_kv(os, "onchip_comm_cycles",
            static_cast<std::uint64_t>(m.onchip_comm_cycles));
  append_kv(os, "dram_cycles", static_cast<std::uint64_t>(m.dram_cycles));
  append_kv(os, "reconfig_cycles",
            static_cast<std::uint64_t>(m.reconfig_cycles));
  append_kv(os, "dram_bytes", static_cast<std::uint64_t>(m.dram_bytes));
  append_kv(os, "dram_accesses", m.dram_accesses);
  append_kv(os, "noc_messages", m.noc_messages);
  append_kv(os, "avg_hops", m.avg_hops);
  append_kv(os, "bypass_messages", m.bypass_messages);
  append_kv(os, "partition_a", static_cast<std::uint64_t>(m.partition_a));
  append_kv(os, "partition_b", static_cast<std::uint64_t>(m.partition_b));
  append_kv(os, "num_subgraphs",
            static_cast<std::uint64_t>(m.num_subgraphs));
  append_kv(os, "reconfigurations", m.reconfigurations);
  append_kv(os, "switch_writes", m.switch_writes);
  append_kv(os, "utilization", m.utilization);
  // Latency percentiles from the component histograms (bucket resolution;
  // zero when the engine did not measure them, e.g. analytic runs). Key
  // order is fixed — consumers and the check.sh schema smoke rely on it.
  const auto append_latency = [&os](const char* key, const Histogram& h) {
    os << "\"" << key << "\": {";
    append_kv(os, "p50", h.quantile(0.50));
    append_kv(os, "p95", h.quantile(0.95));
    append_kv(os, "p99", h.quantile(0.99));
    append_kv(os, "count", h.total(), /*last=*/true);
    os << "}, ";
  };
  append_latency("noc_packet_latency", m.noc_packet_latency);
  append_latency("dram_request_latency", m.dram_request_latency);
  os << "\"phases\": {";
  static constexpr const char* kPhaseKeys[] = {"edge_update", "aggregation",
                                               "vertex_update"};
  for (std::size_t p = 0; p < m.phases.size(); ++p) {
    os << "\"" << kPhaseKeys[p] << "\": {";
    append_kv(os, "active_cycles",
              static_cast<std::uint64_t>(m.phases[p].active_cycles));
    append_kv(os, "dram_bytes",
              static_cast<std::uint64_t>(m.phases[p].dram_bytes));
    append_kv(os, "noc_messages", m.phases[p].noc_messages, /*last=*/true);
    os << (p + 1 < m.phases.size() ? "}, " : "}");
  }
  os << "}, ";
  os << "\"energy_pj\": {";
  append_kv(os, "compute", m.energy.compute_pj);
  append_kv(os, "sram", m.energy.sram_pj);
  append_kv(os, "dram", m.energy.dram_pj);
  append_kv(os, "noc", m.energy.noc_pj);
  append_kv(os, "reconfig", m.energy.reconfig_pj);
  append_kv(os, "leakage", m.energy.leakage_pj);
  append_kv(os, "total", m.energy.total_pj(), /*last=*/true);
  os << "}";
  // Named counters (cluster.* halo traffic, profile.critpath.* attribution,
  // trace.dropped_records, ...). CounterSet::all() returns a sorted map, so
  // the key order is deterministic. Omitted entirely when empty to keep the
  // plain single-chip schema unchanged.
  const auto& counters = m.counters.all();
  if (!counters.empty()) {
    os << ", \"counters\": {";
    std::size_t i = 0;
    for (const auto& [name, value] : counters) {
      os << "\"" << json_escape(name) << "\": " << value;
      if (++i < counters.size()) os << ", ";
    }
    os << "}";
  }
  os << "}";
  return os.str();
}

std::string runs_to_json(const std::vector<NamedRun>& runs) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (i > 0) os << ",\n ";
    os << "{\"accelerator\": \"" << json_escape(runs[i].accelerator)
       << "\", \"workload\": \"" << json_escape(runs[i].workload)
       << "\", \"metrics\": " << metrics_to_json(runs[i].metrics) << "}";
  }
  os << "]";
  return os.str();
}

std::vector<std::string> diff_run_metrics(const RunMetrics& a,
                                          const RunMetrics& b) {
  std::vector<std::string> diffs;
  const auto num = [&diffs](const char* name, double x, double y) {
    // Exact comparison on purpose: both runs execute the same deterministic
    // arithmetic, so even doubles must match bit for bit.
    if (x != y) {
      std::ostringstream os;
      os << name << ": " << x << " != " << y;
      diffs.push_back(os.str());
    }
  };
  const auto u64 = [&diffs](const std::string& name, std::uint64_t x,
                            std::uint64_t y) {
    if (x != y) {
      diffs.push_back(name + ": " + std::to_string(x) + " != " +
                      std::to_string(y));
    }
  };
  const auto str = [&diffs](const char* name, const std::string& x,
                            const std::string& y) {
    if (x != y) diffs.push_back(std::string(name) + ": text differs");
  };
  const auto hist = [&](const std::string& name, const Histogram& x,
                        const Histogram& y) {
    u64(name + ".total", x.total(), y.total());
    const std::size_t n = std::min(x.num_buckets(), y.num_buckets());
    for (std::size_t i = 0; i < n; ++i) {
      u64(name + ".bucket[" + std::to_string(i) + "]", x.bucket_count(i),
          y.bucket_count(i));
    }
  };

  u64("total_cycles", a.total_cycles, b.total_cycles);
  u64("compute_cycles", a.compute_cycles, b.compute_cycles);
  u64("onchip_comm_cycles", a.onchip_comm_cycles, b.onchip_comm_cycles);
  u64("dram_cycles", a.dram_cycles, b.dram_cycles);
  u64("reconfig_cycles", a.reconfig_cycles, b.reconfig_cycles);
  u64("dram_bytes", a.dram_bytes, b.dram_bytes);
  u64("dram_accesses", a.dram_accesses, b.dram_accesses);
  u64("noc_messages", a.noc_messages, b.noc_messages);
  num("avg_hops", a.avg_hops, b.avg_hops);
  u64("bypass_messages", a.bypass_messages, b.bypass_messages);
  u64("events.fp_multiplies", a.events.fp_multiplies, b.events.fp_multiplies);
  u64("events.fp_adds", a.events.fp_adds, b.events.fp_adds);
  u64("events.sram_small_bytes", a.events.sram_small_bytes,
      b.events.sram_small_bytes);
  u64("events.sram_large_bytes", a.events.sram_large_bytes,
      b.events.sram_large_bytes);
  u64("events.dram_bytes", a.events.dram_bytes, b.events.dram_bytes);
  u64("events.noc_link_bytes", a.events.noc_link_bytes,
      b.events.noc_link_bytes);
  u64("events.router_bytes", a.events.router_bytes, b.events.router_bytes);
  u64("events.bypass_link_bytes", a.events.bypass_link_bytes,
      b.events.bypass_link_bytes);
  u64("events.reconfig_switch_writes", a.events.reconfig_switch_writes,
      b.events.reconfig_switch_writes);
  u64("events.active_cycles", a.events.active_cycles,
      b.events.active_cycles);
  num("energy.compute_pj", a.energy.compute_pj, b.energy.compute_pj);
  num("energy.sram_pj", a.energy.sram_pj, b.energy.sram_pj);
  num("energy.dram_pj", a.energy.dram_pj, b.energy.dram_pj);
  num("energy.noc_pj", a.energy.noc_pj, b.energy.noc_pj);
  num("energy.reconfig_pj", a.energy.reconfig_pj, b.energy.reconfig_pj);
  num("energy.leakage_pj", a.energy.leakage_pj, b.energy.leakage_pj);
  u64("partition_a", a.partition_a, b.partition_a);
  u64("partition_b", a.partition_b, b.partition_b);
  u64("num_subgraphs", a.num_subgraphs, b.num_subgraphs);
  u64("reconfigurations", a.reconfigurations, b.reconfigurations);
  u64("switch_writes", a.switch_writes, b.switch_writes);
  num("utilization", a.utilization, b.utilization);
  num("pe_utilization", a.pe_utilization, b.pe_utilization);
  str("noc_heatmap", a.noc_heatmap, b.noc_heatmap);
  str("pe_heatmap", a.pe_heatmap, b.pe_heatmap);
  for (std::size_t p = 0; p < a.phases.size(); ++p) {
    const std::string tag = "phases[" + std::to_string(p) + "]";
    u64(tag + ".active_cycles", a.phases[p].active_cycles,
        b.phases[p].active_cycles);
    u64(tag + ".dram_bytes", a.phases[p].dram_bytes, b.phases[p].dram_bytes);
    u64(tag + ".noc_messages", a.phases[p].noc_messages,
        b.phases[p].noc_messages);
  }
  hist("noc_packet_latency", a.noc_packet_latency, b.noc_packet_latency);
  hist("dram_request_latency", a.dram_request_latency,
       b.dram_request_latency);

  // Counters, minus the scheduler-work counter that legitimately differs
  // between lockstep and fast-forward.
  auto ca = a.counters.all();
  auto cb = b.counters.all();
  ca.erase("sim.cycles_skipped");
  cb.erase("sim.cycles_skipped");
  for (const auto& [name, value] : ca) {
    const auto it = cb.find(name);
    if (it == cb.end()) {
      diffs.push_back("counter " + name + ": present only in first run");
    } else {
      u64("counter " + name, value, it->second);
    }
  }
  for (const auto& [name, value] : cb) {
    (void)value;
    if (ca.find(name) == ca.end()) {
      diffs.push_back("counter " + name + ": present only in second run");
    }
  }
  return diffs;
}

void write_json_file(const std::string& path, const std::string& json) {
  std::ofstream out(path);
  AURORA_CHECK_MSG(out.is_open(), "cannot write JSON report: " << path);
  out << json << '\n';
  AURORA_CHECK_MSG(static_cast<bool>(out), "JSON report write failed");
}

}  // namespace aurora::core
