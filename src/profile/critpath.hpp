// Post-run critical-path analysis over Tracer records.
//
// The cycle engine and the cluster engine both compose their timelines from
// explicit dependence rules (the tile load/compute/store pipeline
// recurrence; the per-layer compute-pre / halo-barrier / compute-post chip
// cadence). The enriched trace records carry enough of those rules to
// rebuild the dependence DAG after the run, walk the binding (longest)
// path from cycle 0 to the finish cycle, and attribute every cycle of
// end-to-end latency to one canonical category:
//
//   pe-compute         PE task execution on the binding compute windows
//   noc-serialization  on-chip network busy cycles inside those windows
//   dram-service       DRAM streaming on the binding load/store spans,
//                      sub-split by row hit / miss / conflict shares
//   reconfiguration    the exposed (non-overlapped) reconfiguration tail
//   halo-barrier-wait  inter-chip link flight + barrier release on binding
//                      halo exchanges (cluster runs)
//
// The walk is exact: category cycles sum to the run's total cycles with no
// residue, which the analyzer asserts. On top of the same models, what-if
// re-weighting rescales edge weights (PE throughput, NoC bandwidth, DRAM
// latency, link bandwidth, reconfiguration latency) and re-evaluates the
// recurrences to rank hypothetical hardware upgrades without re-simulating.
//
// A trace may hold several runs back to back (multi-layer jobs, serving
// queues); each is delimited by kRunBegin/kRunEnd and analyzed on its own
// run-local cycle axis, then aggregated. Serial and parallel cluster runs
// record bit-identical traces, so their reports are bit-identical too.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "sim/trace.hpp"

namespace aurora::profile {

/// Critical-path cycles by category. The five top-level categories sum to
/// the attributed total exactly; the dram_* fields sub-split dram_service
/// (dram_other absorbs spans whose trace lacked row-state counts).
struct Attribution {
  Cycle pe_compute = 0;
  Cycle noc_serialization = 0;
  Cycle dram_service = 0;
  Cycle reconfiguration = 0;
  Cycle halo_barrier_wait = 0;

  Cycle dram_hit = 0;
  Cycle dram_miss = 0;
  Cycle dram_conflict = 0;
  Cycle dram_other = 0;

  [[nodiscard]] Cycle total() const {
    return pe_compute + noc_serialization + dram_service + reconfiguration +
           halo_barrier_wait;
  }
  Attribution& operator+=(const Attribution& o);
};

/// One hypothetical hardware change-set. Factors are resource improvements
/// in the direction their name implies: *_throughput / *_bw factors divide
/// the affected cycles (2.0 = twice the bandwidth), *_latency factors
/// multiply them (0.5 = half the latency). 1.0 everywhere is the identity
/// and must reproduce the observed totals exactly.
struct WhatIfScenario {
  std::string label = "baseline";
  double pe_throughput = 1.0;
  double noc_bw = 1.0;
  double dram_latency = 1.0;
  double link_bw = 1.0;
  double reconfig_latency = 1.0;
};

/// Parse "knob=<factor>x[,knob=<factor>x...]" (e.g. "link_bw=2x" or
/// "dram_latency=0.5x,noc_bw=2x") into one scenario labeled by the spec.
/// Knob names match the WhatIfScenario fields; factors must be positive.
[[nodiscard]] WhatIfScenario parse_what_if(const std::string& spec);
/// Parse a ';'-separated list of scenario specs.
[[nodiscard]] std::vector<WhatIfScenario> parse_what_if_list(
    const std::string& spec);
/// One single-knob upgrade per knob: pe_throughput=2x, noc_bw=2x,
/// dram_latency=0.5x, link_bw=2x, reconfig_latency=0.5x.
[[nodiscard]] std::vector<WhatIfScenario> default_what_if_scenarios();

/// Re-evaluated end-to-end cycles under one scenario.
struct WhatIfOutcome {
  std::string scenario;
  Cycle total_cycles = 0;
  /// Observed cycles / re-weighted cycles (> 1 means the upgrade helps).
  double speedup = 1.0;
};

/// Critical-path analysis of one kRunBegin..kRunEnd slice.
struct RunReport {
  /// sim::kRunKindChip or sim::kRunKindCluster.
  std::uint64_t kind = sim::kRunKindChip;
  /// Tiles (chip runs) or chips (cluster runs).
  std::uint64_t units = 0;
  Cycle total_cycles = 0;
  /// The chip whose finish bounds the cluster makespan (0 for chip runs).
  std::uint32_t bottleneck_chip = 0;
  Attribution attribution;
  std::vector<WhatIfOutcome> what_if;
};

struct CritPathReport {
  /// True when the analyzed trace was incomplete (ring-buffer eviction or a
  /// trailing unterminated run); only fully-recorded runs are analyzed.
  bool truncated = false;
  /// Tracer ring-buffer evictions at analysis time.
  std::uint64_t dropped_records = 0;
  /// Sum of the analyzed runs' total cycles (runs are sequential; serving
  /// level inter-request overlap is outside the traced engine runs).
  Cycle total_cycles = 0;
  Attribution attribution;
  std::vector<RunReport> runs;
  /// Aggregated across runs, in scenario order.
  std::vector<WhatIfOutcome> what_if;
};

struct AnalyzeOptions {
  /// Analyze a truncated trace anyway (suffix runs only, report flagged)
  /// instead of refusing with an error.
  bool allow_truncated = false;
  /// What-if scenarios to evaluate (empty = none).
  std::vector<WhatIfScenario> scenarios;
};

/// Analyze every complete run recorded in `tracer`. Between runs it skips
/// the serving-clock annotations (chip down/up, graph mutation, reshard);
/// any other record outside a run is malformed. Throws common::Error on
/// truncated or malformed traces unless options.allow_truncated is set.
[[nodiscard]] CritPathReport analyze_critical_path(
    const sim::Tracer& tracer, const AnalyzeOptions& options = {});

/// Report as stable-key-order JSON ("aurora.critpath.v1" schema).
[[nodiscard]] std::string critpath_report_json(const CritPathReport& report);

/// Human-readable attribution table (plus the what-if ranking when
/// scenarios were evaluated).
[[nodiscard]] std::string format_attribution_table(
    const CritPathReport& report);

/// Merge the report into a CounterSet under "profile.critpath.*" names, so
/// run reports and bench grids pick the attribution up for free.
void export_critpath_counters(const CritPathReport& report,
                              CounterSet& counters);

}  // namespace aurora::profile
