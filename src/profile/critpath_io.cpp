// JSON serialization, the stdout attribution table and the metrics surface
// for CritPathReport.
#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "profile/critpath.hpp"

namespace aurora::profile {
namespace {

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

void append_attribution(std::ostringstream& os, const Attribution& a) {
  os << "{\"pe_compute\":" << a.pe_compute
     << ",\"noc_serialization\":" << a.noc_serialization
     << ",\"dram_service\":" << a.dram_service
     << ",\"dram_hit\":" << a.dram_hit << ",\"dram_miss\":" << a.dram_miss
     << ",\"dram_conflict\":" << a.dram_conflict
     << ",\"dram_other\":" << a.dram_other
     << ",\"reconfiguration\":" << a.reconfiguration
     << ",\"halo_barrier_wait\":" << a.halo_barrier_wait << "}";
}

void append_what_if(std::ostringstream& os,
                    const std::vector<WhatIfOutcome>& outcomes) {
  os << "[";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (i > 0) os << ",";
    os << "{\"scenario\":\"" << json_escape(outcomes[i].scenario)
       << "\",\"total_cycles\":" << outcomes[i].total_cycles
       << ",\"speedup\":" << format_double(outcomes[i].speedup) << "}";
  }
  os << "]";
}

/// What-if outcomes ranked best-first (stable on ties, so scenario order
/// breaks them deterministically).
std::vector<const WhatIfOutcome*> ranked(
    const std::vector<WhatIfOutcome>& outcomes) {
  std::vector<const WhatIfOutcome*> order;
  order.reserve(outcomes.size());
  for (const WhatIfOutcome& o : outcomes) order.push_back(&o);
  std::stable_sort(order.begin(), order.end(),
                   [](const WhatIfOutcome* a, const WhatIfOutcome* b) {
                     return a->speedup > b->speedup;
                   });
  return order;
}

}  // namespace

std::string critpath_report_json(const CritPathReport& report) {
  std::ostringstream os;
  os << "{\"schema\":\"aurora.critpath.v1\""
     << ",\"truncated\":" << (report.truncated ? "true" : "false")
     << ",\"dropped_records\":" << report.dropped_records
     << ",\"total_cycles\":" << report.total_cycles << ",\"attribution\":";
  append_attribution(os, report.attribution);
  os << ",\"what_if\":";
  append_what_if(os, report.what_if);
  os << ",\"runs\":[";
  for (std::size_t i = 0; i < report.runs.size(); ++i) {
    const RunReport& run = report.runs[i];
    if (i > 0) os << ",";
    os << "{\"kind\":\""
       << (run.kind == sim::kRunKindChip ? "chip" : "cluster")
       << "\",\"units\":" << run.units
       << ",\"total_cycles\":" << run.total_cycles
       << ",\"bottleneck_chip\":" << run.bottleneck_chip
       << ",\"attribution\":";
    append_attribution(os, run.attribution);
    os << ",\"what_if\":";
    append_what_if(os, run.what_if);
    os << "}";
  }
  os << "]}";
  return os.str();
}

std::string format_attribution_table(const CritPathReport& report) {
  std::ostringstream os;
  os << "critical path: " << report.runs.size() << " run(s), "
     << report.total_cycles << " cycles";
  if (report.truncated) {
    os << "  [TRUNCATED TRACE: " << report.dropped_records
       << " records dropped; suffix analysis only]";
  }
  os << "\n";

  AsciiTable table({"category", "cycles", "share"});
  const double total =
      report.total_cycles == 0 ? 1.0
                               : static_cast<double>(report.total_cycles);
  const auto share = [&](Cycle v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%5.1f%%",
                  100.0 * static_cast<double>(v) / total);
    return std::string(buf);
  };
  const Attribution& a = report.attribution;
  table.add_row({"pe-compute", std::to_string(a.pe_compute),
                 share(a.pe_compute)});
  table.add_row({"noc-serialization", std::to_string(a.noc_serialization),
                 share(a.noc_serialization)});
  table.add_row({"dram-service", std::to_string(a.dram_service),
                 share(a.dram_service)});
  table.add_row({"  dram row-hit", std::to_string(a.dram_hit),
                 share(a.dram_hit)});
  table.add_row({"  dram row-miss", std::to_string(a.dram_miss),
                 share(a.dram_miss)});
  table.add_row({"  dram row-conflict", std::to_string(a.dram_conflict),
                 share(a.dram_conflict)});
  if (a.dram_other > 0) {
    table.add_row({"  dram unattributed", std::to_string(a.dram_other),
                   share(a.dram_other)});
  }
  table.add_row({"reconfiguration", std::to_string(a.reconfiguration),
                 share(a.reconfiguration)});
  table.add_row({"halo-barrier-wait", std::to_string(a.halo_barrier_wait),
                 share(a.halo_barrier_wait)});
  table.add_row({"total", std::to_string(a.total()), share(a.total())});
  os << table.to_string();

  if (!report.what_if.empty()) {
    os << "what-if upgrade ranking:\n";
    AsciiTable ranking({"scenario", "cycles", "speedup"});
    for (const WhatIfOutcome* o : ranked(report.what_if)) {
      ranking.add_row({o->scenario, std::to_string(o->total_cycles),
                       format_double(o->speedup) + "x"});
    }
    os << ranking.to_string();
  }
  return os.str();
}

}  // namespace aurora::profile
