#include "profile/critpath.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <deque>
#include <map>
#include <tuple>

#include "common/error.hpp"

namespace aurora::profile {
namespace {

using sim::TraceEvent;
using sim::TraceRecord;

/// A bandwidth/throughput upgrade divides the affected cycles.
Cycle scale_div(Cycle v, double factor) {
  return static_cast<Cycle>(
      std::llround(static_cast<double>(v) / factor));
}
/// A latency factor multiplies them.
Cycle scale_mul(Cycle v, double factor) {
  return static_cast<Cycle>(
      std::llround(static_cast<double>(v) * factor));
}

/// Fault-plan chip transitions and dynamic-graph events, recorded on the
/// serving clock between runs; they bound no run's critical path.
bool is_serving_clock_annotation(TraceEvent kind) {
  return kind == TraceEvent::kChipDown || kind == TraceEvent::kChipUp ||
         kind == TraceEvent::kGraphMutation || kind == TraceEvent::kReshard;
}

/// Deterministic proportional sub-split of a binding DRAM span by the row
/// buffer outcomes its requests saw; the conflict share takes the integer
/// remainder so the three parts always sum to the span.
void attribute_dram_span(Cycle dur, std::uint64_t hits, std::uint64_t misses,
                         std::uint64_t conflicts, Attribution& attr) {
  attr.dram_service += dur;
  const std::uint64_t total = hits + misses + conflicts;
  if (total == 0) {
    attr.dram_other += dur;
    return;
  }
  const auto share = [&](std::uint64_t part) {
    return static_cast<Cycle>(static_cast<double>(dur) *
                              (static_cast<double>(part) /
                               static_cast<double>(total)));
  };
  const Cycle hit = share(hits);
  const Cycle miss = share(misses);
  attr.dram_hit += hit;
  attr.dram_miss += miss;
  attr.dram_conflict += dur - hit - miss;
}

// ---- single-chip run model ------------------------------------------------
//
// The cycle engine's tile pipeline recurrence (see CycleEngine::run_layer):
//
//   load_done    = max(dram_free, compute_free) + load
//   dram_free'   = load_done + store
//   compute_free'= max(compute_free, load_done) + compute
//   total        = max(compute_free, dram_free) + reconfig_tail
//
// Each max() is a dependence-DAG join; the selected operand is the binding
// predecessor, so a backward walk from the larger terminal arm covers
// [0, total - reconfig_tail] contiguously.

struct TileModel {
  Cycle load = 0;
  Cycle store = 0;
  Cycle compute = 0;
  /// compute = pe_part + noc_part (NoC busy clamped to the window).
  Cycle pe_part = 0;
  Cycle noc_part = 0;
  std::uint64_t load_hits = 0, load_misses = 0, load_conflicts = 0;
  std::uint64_t store_hits = 0, store_misses = 0, store_conflicts = 0;
  bool has_load = false, has_store = false, has_compute = false;
};

struct ChipRunModel {
  std::vector<TileModel> tiles;
  Cycle reconfig_tail = 0;
  Cycle total = 0;

  [[nodiscard]] Cycle eval(const WhatIfScenario& s) const {
    Cycle dram_free = 0;
    Cycle compute_free = 0;
    for (const TileModel& t : tiles) {
      const Cycle load = scale_mul(t.load, s.dram_latency);
      const Cycle store = scale_mul(t.store, s.dram_latency);
      const Cycle compute = scale_div(t.pe_part, s.pe_throughput) +
                            scale_div(t.noc_part, s.noc_bw);
      const Cycle load_done = std::max(dram_free, compute_free) + load;
      dram_free = load_done + store;
      compute_free = std::max(compute_free, load_done) + compute;
    }
    return std::max(compute_free, dram_free) +
           scale_mul(reconfig_tail, s.reconfig_latency);
  }
};

void attribute_chip_run(const ChipRunModel& m, Attribution& attr) {
  attr.reconfiguration += m.reconfig_tail;
  const std::size_t n = m.tiles.size();
  if (n == 0) return;

  std::vector<Cycle> load_done(n), dram_free_at(n), compute_free_at(n);
  Cycle dram_free = 0;
  Cycle compute_free = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const TileModel& t = m.tiles[i];
    load_done[i] = std::max(dram_free, compute_free) + t.load;
    dram_free = load_done[i] + t.store;
    compute_free = std::max(compute_free, load_done[i]) + t.compute;
    dram_free_at[i] = dram_free;
    compute_free_at[i] = compute_free;
  }

  enum class Arm : std::uint8_t { kCompute, kStore, kLoad };
  std::size_t i = n - 1;
  Arm arm =
      compute_free_at[i] >= dram_free_at[i] ? Arm::kCompute : Arm::kStore;
  for (;;) {
    const TileModel& t = m.tiles[i];
    if (arm == Arm::kStore) {
      // dram_free = load_done + store: the store rides right on the load.
      attribute_dram_span(t.store, t.store_hits, t.store_misses,
                          t.store_conflicts, attr);
      arm = Arm::kLoad;
    } else if (arm == Arm::kCompute) {
      attr.pe_compute += t.pe_part;
      attr.noc_serialization += t.noc_part;
      // start = max(compute_free[i-1], load_done[i]); ties bind the load.
      if (i == 0 || load_done[i] >= compute_free_at[i - 1]) {
        arm = Arm::kLoad;
      } else {
        --i;
      }
    } else {
      attribute_dram_span(t.load, t.load_hits, t.load_misses,
                          t.load_conflicts, attr);
      if (i == 0) break;  // tile 0's load starts the run at cycle 0
      --i;
      arm = dram_free_at[i] >= compute_free_at[i] ? Arm::kStore
                                                  : Arm::kCompute;
    }
  }
}

// ---- cluster run model ----------------------------------------------------
//
// Per chip and layer the proxy cadence is compute-pre, halo-wait,
// compute-post; compute-post releases at max(pre_end, last_arrival + 1) and
// a halo's last arrival is its send cycle (the sender's pre end) plus the
// route's observed flight. That gives the recurrence
//
//   pre_end(c,l)  = post_end(c,l-1) + pre(c,l)
//   release(c,l)  = max(pre_end(c,l),
//                       max over routes src->c at l:
//                           pre_end(src,l) + flight + 1)
//   post_end(c,l) = release(c,l) + post(c,l)
//   total         = max over c of post_end(c, L-1)
//
// which both the backward attribution walk and what-if re-weighting use.

struct ClusterLayerSeg {
  Cycle pre_at = 0, pre_dur = 0;
  Cycle wait_at = 0, wait_dur = 0;
  Cycle post_at = 0, post_dur = 0;
  /// Deterministic waterfall split of the pre segment from the enriched
  /// record: reconfiguration, then DRAM, then NoC, remainder PE — each
  /// clamped so the parts sum to pre_dur exactly.
  Cycle reconfig_part = 0, dram_part = 0, noc_part = 0, pe_part = 0;
  std::uint8_t seen = 0;  // cadence progress while parsing (0..3)
};

struct RouteModel {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint32_t layer = 0;
  Cycle send_at = 0;
  Cycle last_delivery = 0;
};

struct ClusterRunModel {
  /// [chip][layer].
  std::vector<std::vector<ClusterLayerSeg>> chips;
  std::vector<RouteModel> routes;
  Cycle total = 0;

  [[nodiscard]] Cycle eval(const WhatIfScenario& s) const {
    const std::size_t n = chips.size();
    const std::size_t num_layers = n == 0 ? 0 : chips[0].size();
    std::vector<Cycle> post_end(n, 0);
    std::vector<Cycle> pre_end(n, 0);
    for (std::size_t l = 0; l < num_layers; ++l) {
      for (std::size_t c = 0; c < n; ++c) {
        const ClusterLayerSeg& seg = chips[c][l];
        const Cycle pre = scale_mul(seg.reconfig_part, s.reconfig_latency) +
                          scale_mul(seg.dram_part, s.dram_latency) +
                          scale_div(seg.noc_part, s.noc_bw) +
                          scale_div(seg.pe_part, s.pe_throughput);
        pre_end[c] = post_end[c] + pre;
      }
      for (std::size_t c = 0; c < n; ++c) {
        Cycle release = pre_end[c];
        for (const RouteModel& r : routes) {
          if (r.dst != c || r.layer != l) continue;
          const Cycle flight =
              scale_div(r.last_delivery - r.send_at, s.link_bw);
          release = std::max(release, pre_end[r.src] + flight + 1);
        }
        post_end[c] =
            release + scale_div(chips[c][l].post_dur, s.pe_throughput);
      }
    }
    Cycle total_cycles = 0;
    for (const Cycle t : post_end) total_cycles = std::max(total_cycles, t);
    return total_cycles;
  }
};

void attribute_cluster_run(const ClusterRunModel& m, Attribution& attr,
                           std::uint32_t& bottleneck_chip) {
  const std::size_t n = m.chips.size();
  if (n == 0) return;
  const std::size_t num_layers = m.chips[0].size();
  if (num_layers == 0) return;

  std::size_t c = 0;
  for (std::size_t i = 1; i < n; ++i) {
    const auto finish = [&](std::size_t chip) {
      const ClusterLayerSeg& last = m.chips[chip][num_layers - 1];
      return last.post_at + last.post_dur;
    };
    if (finish(i) > finish(c)) c = i;
  }
  bottleneck_chip = static_cast<std::uint32_t>(c);

  std::size_t l = num_layers - 1;
  bool at_post = true;
  for (;;) {
    const ClusterLayerSeg& seg = m.chips[c][l];
    if (at_post) {
      // Compute-post is the vertex-update replay: pure chip compute.
      attr.pe_compute += seg.post_dur;
      if (seg.wait_dur == 0) {
        at_post = false;  // released by this chip's own pre segment
        continue;
      }
      // The barrier released at last_arrival + 1: bind the route whose
      // final delivery forced it and jump to the sending chip, charging
      // the send-to-release interval (serialization + flight + release)
      // to the halo barrier.
      const Cycle release = seg.wait_at + seg.wait_dur;
      const RouteModel* binding = nullptr;
      for (const RouteModel& r : m.routes) {
        if (r.dst != c || r.layer != l) continue;
        if (r.last_delivery + 1 != release) continue;
        if (binding == nullptr || r.src < binding->src) binding = &r;
      }
      AURORA_CHECK_MSG(binding != nullptr,
                       "halo-wait release at cycle "
                           << release << " has no matching delivery (chip "
                           << c << ", layer " << l << ")");
      AURORA_CHECK(release >= binding->send_at);
      attr.halo_barrier_wait += release - binding->send_at;
      c = binding->src;
      at_post = false;
    } else {
      attr.reconfiguration += seg.reconfig_part;
      attribute_dram_span(seg.dram_part, 0, 0, 0, attr);
      attr.noc_serialization += seg.noc_part;
      attr.pe_compute += seg.pe_part;
      if (l == 0) {
        AURORA_CHECK_MSG(seg.pre_at == 0,
                         "cluster critical path does not reach cycle 0");
        break;
      }
      --l;
      at_post = true;
    }
  }
}

// ---- trace parsing --------------------------------------------------------

struct RunModel {
  std::uint64_t kind = sim::kRunKindChip;
  std::uint64_t units = 0;
  ChipRunModel chip;
  ClusterRunModel cluster;

  [[nodiscard]] Cycle total() const {
    return kind == sim::kRunKindChip ? chip.total : cluster.total;
  }
  [[nodiscard]] Cycle eval(const WhatIfScenario& s) const {
    return kind == sim::kRunKindChip ? chip.eval(s) : cluster.eval(s);
  }
};

/// Parse one kRunBegin..kRunEnd slice [begin, end) (end points at the
/// kRunEnd record) into the matching model.
RunModel parse_run(const std::deque<TraceRecord>& recs, std::size_t begin,
                   std::size_t end) {
  RunModel model;
  const TraceRecord& head = recs[begin];
  model.kind = head.arg0;
  model.units = head.arg1;
  const TraceRecord& tail = recs[end];

  if (model.kind == sim::kRunKindChip) {
    model.chip.total = tail.arg0;
    model.chip.reconfig_tail = tail.arg1;
    for (std::size_t i = begin + 1; i < end; ++i) {
      const TraceRecord& r = recs[i];
      switch (r.kind) {
        case TraceEvent::kTileStart:
          model.chip.tiles.emplace_back();
          break;
        case TraceEvent::kDramSpan: {
          AURORA_CHECK_MSG(!model.chip.tiles.empty(),
                           "dram-span before the first tile-start");
          TileModel& t = model.chip.tiles.back();
          AURORA_CHECK_MSG(!t.has_store,
                           "more than two dram-spans in one tile");
          if (!t.has_load) {
            t.has_load = true;
            t.load = r.arg1;
            t.load_hits = r.arg2;
            t.load_misses = sim::unpack_u32_hi(r.arg3);
            t.load_conflicts = sim::unpack_u32_lo(r.arg3);
          } else {
            t.has_store = true;
            t.store = r.arg1;
            t.store_hits = r.arg2;
            t.store_misses = sim::unpack_u32_hi(r.arg3);
            t.store_conflicts = sim::unpack_u32_lo(r.arg3);
          }
          break;
        }
        case TraceEvent::kComputeSpan: {
          AURORA_CHECK_MSG(!model.chip.tiles.empty(),
                           "compute-span before the first tile-start");
          TileModel& t = model.chip.tiles.back();
          AURORA_CHECK_MSG(!t.has_compute,
                           "two compute-spans in one tile");
          t.has_compute = true;
          t.compute = r.arg1;
          t.noc_part = std::min<Cycle>(r.arg2, r.arg1);
          t.pe_part = t.compute - t.noc_part;
          break;
        }
        default:
          break;  // packet/task/phase/request detail is not load-bearing
      }
    }
    AURORA_CHECK_MSG(model.chip.tiles.size() == model.units,
                     "chip run recorded " << model.chip.tiles.size()
                                          << " tiles, expected "
                                          << model.units);
    for (const TileModel& t : model.chip.tiles) {
      AURORA_CHECK_MSG(t.has_load && t.has_compute && t.has_store,
                       "tile missing a load/compute/store span");
    }
    AURORA_CHECK_MSG(model.chip.eval(WhatIfScenario{}) == model.chip.total,
                     "chip dependence model does not reproduce the "
                     "recorded total ("
                         << model.chip.eval(WhatIfScenario{}) << " != "
                         << model.chip.total << ")");
    return model;
  }

  AURORA_CHECK_MSG(model.kind == sim::kRunKindCluster,
                   "unknown run kind " << model.kind);
  model.cluster.total = tail.arg0;
  model.cluster.chips.resize(model.units);
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>,
           RouteModel>
      routes;
  for (std::size_t i = begin + 1; i < end; ++i) {
    const TraceRecord& r = recs[i];
    switch (r.kind) {
      case TraceEvent::kClusterSegment: {
        const std::uint64_t chip = r.arg0 / 4;
        const std::uint64_t seg_kind = r.arg0 % 4;
        AURORA_CHECK_MSG(chip < model.units && seg_kind < 3,
                         "malformed cluster-segment arg0 " << r.arg0);
        auto& layers = model.cluster.chips[chip];
        if (seg_kind == 0) layers.emplace_back();
        AURORA_CHECK_MSG(!layers.empty() &&
                             layers.back().seen == seg_kind,
                         "cluster segment cadence broken on chip " << chip);
        ClusterLayerSeg& seg = layers.back();
        ++seg.seen;
        if (seg_kind == 0) {
          seg.pre_at = r.at;
          seg.pre_dur = r.arg1;
          // Waterfall the enriched chip-local breakdown over the segment.
          seg.reconfig_part =
              std::min<Cycle>(sim::unpack_u32_lo(r.arg3), seg.pre_dur);
          seg.dram_part =
              std::min<Cycle>(r.arg2, seg.pre_dur - seg.reconfig_part);
          seg.noc_part = std::min<Cycle>(
              sim::unpack_u32_hi(r.arg3),
              seg.pre_dur - seg.reconfig_part - seg.dram_part);
          seg.pe_part = seg.pre_dur - seg.reconfig_part - seg.dram_part -
                        seg.noc_part;
        } else if (seg_kind == 1) {
          seg.wait_at = r.at;
          seg.wait_dur = r.arg1;
        } else {
          seg.post_at = r.at;
          seg.post_dur = r.arg1;
        }
        break;
      }
      case TraceEvent::kHaloSent: {
        const auto key = std::make_tuple(
            static_cast<std::uint32_t>(sim::unpack_u32_hi(r.arg0)),
            static_cast<std::uint32_t>(sim::unpack_u32_lo(r.arg0)),
            static_cast<std::uint32_t>(r.arg2));
        auto [it, inserted] = routes.try_emplace(key);
        if (inserted) {
          it->second.src = std::get<0>(key);
          it->second.dst = std::get<1>(key);
          it->second.layer = std::get<2>(key);
          it->second.send_at = r.at;
        }
        AURORA_CHECK_MSG(it->second.send_at == r.at,
                         "halo chunks of one route sent at different "
                         "cycles");
        break;
      }
      case TraceEvent::kHaloDelivered: {
        const auto key = std::make_tuple(
            static_cast<std::uint32_t>(sim::unpack_u32_hi(r.arg0)),
            static_cast<std::uint32_t>(sim::unpack_u32_lo(r.arg0)),
            static_cast<std::uint32_t>(r.arg2));
        const auto it = routes.find(key);
        AURORA_CHECK_MSG(it != routes.end(),
                         "halo delivery without a matching send");
        it->second.last_delivery =
            std::max(it->second.last_delivery, r.at);
        break;
      }
      default:
        break;
    }
  }
  std::size_t num_layers = 0;
  for (std::size_t c = 0; c < model.units; ++c) {
    const auto& layers = model.cluster.chips[c];
    if (c == 0) num_layers = layers.size();
    AURORA_CHECK_MSG(layers.size() == num_layers && !layers.empty(),
                     "chips recorded different layer counts");
    for (const ClusterLayerSeg& seg : layers) {
      AURORA_CHECK_MSG(seg.seen == 3, "chip " << c
                                              << " has a partial layer "
                                                 "cadence");
    }
  }
  model.cluster.routes.reserve(routes.size());
  for (auto& [key, route] : routes) {
    AURORA_CHECK_MSG(route.last_delivery >= route.send_at,
                     "halo route never delivered");
    model.cluster.routes.push_back(route);
  }
  AURORA_CHECK_MSG(
      model.cluster.eval(WhatIfScenario{}) == model.cluster.total,
      "cluster dependence model does not reproduce the recorded total ("
          << model.cluster.eval(WhatIfScenario{}) << " != "
          << model.cluster.total << ")");
  return model;
}

}  // namespace

Attribution& Attribution::operator+=(const Attribution& o) {
  pe_compute += o.pe_compute;
  noc_serialization += o.noc_serialization;
  dram_service += o.dram_service;
  reconfiguration += o.reconfiguration;
  halo_barrier_wait += o.halo_barrier_wait;
  dram_hit += o.dram_hit;
  dram_miss += o.dram_miss;
  dram_conflict += o.dram_conflict;
  dram_other += o.dram_other;
  return *this;
}

CritPathReport analyze_critical_path(const sim::Tracer& tracer,
                                     const AnalyzeOptions& options) {
  CritPathReport report;
  report.dropped_records = tracer.dropped();
  if (report.dropped_records > 0) {
    if (!options.allow_truncated) {
      throw Error("critical-path analysis refused: the trace ring buffer "
                  "dropped " +
                  std::to_string(report.dropped_records) +
                  " records (raise the tracer capacity or pass "
                  "allow_truncated to analyze the suffix)");
    }
    report.truncated = true;
  }

  const std::deque<TraceRecord>& recs = tracer.records();
  std::size_t i = 0;
  if (report.truncated) {
    // Eviction drops the oldest records, so everything from the first
    // surviving kRunBegin onward is a contiguous, fully recorded suffix.
    while (i < recs.size() && recs[i].kind != TraceEvent::kRunBegin) ++i;
  }

  std::vector<RunModel> models;
  while (i < recs.size()) {
    if (is_serving_clock_annotation(recs[i].kind)) {
      ++i;
      continue;
    }
    AURORA_CHECK_MSG(recs[i].kind == TraceEvent::kRunBegin,
                     "expected a run-begin record, found "
                         << sim::trace_event_name(recs[i].kind));
    std::size_t end = i + 1;
    while (end < recs.size() && recs[end].kind != TraceEvent::kRunEnd) {
      AURORA_CHECK_MSG(recs[end].kind != TraceEvent::kRunBegin,
                       "nested run-begin record");
      ++end;
    }
    if (end == recs.size()) {
      if (!options.allow_truncated) {
        throw Error("critical-path analysis refused: the trace ends inside "
                    "a run (no run-end record)");
      }
      report.truncated = true;
      break;
    }
    models.push_back(parse_run(recs, i, end));
    i = end + 1;
  }

  for (const RunModel& model : models) {
    RunReport run;
    run.kind = model.kind;
    run.units = model.units;
    run.total_cycles = model.total();
    if (model.kind == sim::kRunKindChip) {
      attribute_chip_run(model.chip, run.attribution);
    } else {
      attribute_cluster_run(model.cluster, run.attribution,
                            run.bottleneck_chip);
    }
    AURORA_CHECK_MSG(run.attribution.total() == run.total_cycles,
                     "critical-path attribution ("
                         << run.attribution.total()
                         << ") does not sum to the run total ("
                         << run.total_cycles << ")");
    for (const WhatIfScenario& s : options.scenarios) {
      WhatIfOutcome outcome;
      outcome.scenario = s.label;
      outcome.total_cycles = model.eval(s);
      outcome.speedup =
          outcome.total_cycles == 0
              ? 1.0
              : static_cast<double>(run.total_cycles) /
                    static_cast<double>(outcome.total_cycles);
      run.what_if.push_back(std::move(outcome));
    }
    report.total_cycles += run.total_cycles;
    report.attribution += run.attribution;
    report.runs.push_back(std::move(run));
  }

  for (std::size_t s = 0; s < options.scenarios.size(); ++s) {
    WhatIfOutcome outcome;
    outcome.scenario = options.scenarios[s].label;
    for (const RunReport& run : report.runs) {
      outcome.total_cycles += run.what_if[s].total_cycles;
    }
    outcome.speedup = outcome.total_cycles == 0
                          ? 1.0
                          : static_cast<double>(report.total_cycles) /
                                static_cast<double>(outcome.total_cycles);
    report.what_if.push_back(std::move(outcome));
  }
  return report;
}

// ---- what-if parsing ------------------------------------------------------

WhatIfScenario parse_what_if(const std::string& spec) {
  WhatIfScenario scenario;
  scenario.label = spec;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string knob = spec.substr(pos, comma - pos);
    pos = comma + 1;
    const std::size_t eq = knob.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= knob.size()) {
      throw Error("bad what-if knob '" + knob +
                  "' (expected name=<factor>x)");
    }
    const std::string name = knob.substr(0, eq);
    std::string value = knob.substr(eq + 1);
    if (!value.empty() && (value.back() == 'x' || value.back() == 'X')) {
      value.pop_back();
    }
    double factor = 0.0;
    try {
      std::size_t used = 0;
      factor = std::stod(value, &used);
      if (used != value.size()) throw Error("trailing junk");
    } catch (const std::exception&) {
      throw Error("bad what-if factor in '" + knob +
                  "' (expected name=<factor>x)");
    }
    if (!(factor > 0.0)) {
      throw Error("what-if factor must be positive in '" + knob + "'");
    }
    if (name == "pe_throughput") {
      scenario.pe_throughput = factor;
    } else if (name == "noc_bw") {
      scenario.noc_bw = factor;
    } else if (name == "dram_latency") {
      scenario.dram_latency = factor;
    } else if (name == "link_bw") {
      scenario.link_bw = factor;
    } else if (name == "reconfig_latency") {
      scenario.reconfig_latency = factor;
    } else {
      throw Error("unknown what-if knob '" + name +
                  "' (knobs: pe_throughput, noc_bw, dram_latency, link_bw, "
                  "reconfig_latency)");
    }
  }
  return scenario;
}

std::vector<WhatIfScenario> parse_what_if_list(const std::string& spec) {
  std::vector<WhatIfScenario> scenarios;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t semi = spec.find(';', pos);
    if (semi == std::string::npos) semi = spec.size();
    const std::string one = spec.substr(pos, semi - pos);
    if (!one.empty()) scenarios.push_back(parse_what_if(one));
    if (semi == spec.size()) break;
    pos = semi + 1;
  }
  return scenarios;
}

std::vector<WhatIfScenario> default_what_if_scenarios() {
  return {parse_what_if("pe_throughput=2x"), parse_what_if("noc_bw=2x"),
          parse_what_if("dram_latency=0.5x"), parse_what_if("link_bw=2x"),
          parse_what_if("reconfig_latency=0.5x")};
}

void export_critpath_counters(const CritPathReport& report,
                              CounterSet& counters) {
  counters.inc("profile.critpath.total_cycles", report.total_cycles);
  counters.inc("profile.critpath.runs", report.runs.size());
  counters.inc("profile.critpath.pe_compute_cycles",
               report.attribution.pe_compute);
  counters.inc("profile.critpath.noc_serialization_cycles",
               report.attribution.noc_serialization);
  counters.inc("profile.critpath.dram_service_cycles",
               report.attribution.dram_service);
  counters.inc("profile.critpath.reconfiguration_cycles",
               report.attribution.reconfiguration);
  counters.inc("profile.critpath.halo_barrier_wait_cycles",
               report.attribution.halo_barrier_wait);
  // trace.dropped_records is NOT exported here: drivers publish it
  // unconditionally from the tracer (it matters whether or not a
  // critical-path analysis ran), and exporting it twice would double-count.
}

}  // namespace aurora::profile
