#include "sim/perfetto.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "sim/sampler.hpp"

namespace aurora::sim {
namespace {

// Track (thread) layout inside each process.
constexpr int kTidControl = 0;   // tile starts, reconfigurations, run marks
constexpr int kTidPhase0 = 1;    // + phase index: 1..3
constexpr int kTidDram = 4;
constexpr int kTidCompute = 5;   // per-tile compute windows
/// Cluster chip-segment tracks sit above the single-chip tids so a process
/// carrying both kinds of records never collides.
constexpr int kTidClusterBase = 8;
constexpr const char* kPhaseNames[3] = {"edge-update", "aggregation",
                                        "vertex-update"};
constexpr const char* kSegmentNames[3] = {"compute-pre", "halo-wait",
                                          "compute-post"};

/// Cap per derived counter track so a flit-level trace of millions of
/// packets still exports in bounded size; points are stride-sampled.
constexpr std::size_t kMaxCounterPoints = 4096;

/// Emits one JSON event object per call, inserting commas between events.
class EventWriter {
 public:
  explicit EventWriter(std::ostringstream& os) : os_(os) {}

  std::ostringstream& begin() {
    if (!first_) os_ << ",\n  ";
    first_ = false;
    os_ << "{";
    return os_;
  }
  void end() { os_ << "}"; }

 private:
  std::ostringstream& os_;
  bool first_ = true;
};

void meta_thread_name(EventWriter& w, int pid, int tid, const std::string& name) {
  w.begin() << "\"ph\": \"M\", \"pid\": " << pid << ", \"tid\": " << tid
            << ", \"name\": \"thread_name\", \"args\": {\"name\": \""
            << json_escape(name) << "\"}";
  w.end();
}

void counter_point(EventWriter& w, int pid, const std::string& name, Cycle ts,
                   double value) {
  w.begin() << "\"ph\": \"C\", \"pid\": " << pid << ", \"ts\": " << ts
            << ", \"name\": \"" << json_escape(name)
            << "\", \"args\": {\"value\": " << value << "}";
  w.end();
}

/// A (cycle, level) step series compacted to at most kMaxCounterPoints.
void emit_counter_series(EventWriter& w, int pid, const std::string& name,
                         const std::vector<std::pair<Cycle, double>>& points) {
  if (points.empty()) return;
  const std::size_t stride =
      (points.size() + kMaxCounterPoints - 1) / kMaxCounterPoints;
  for (std::size_t i = 0; i < points.size(); i += stride) {
    counter_point(w, pid, name, points[i].first, points[i].second);
  }
  // Always close with the final level so the track ends where the run did.
  if ((points.size() - 1) % stride != 0) {
    counter_point(w, pid, name, points.back().first, points.back().second);
  }
}

/// Accumulate (cycle, delta) events into a running-level step series.
std::vector<std::pair<Cycle, double>> levels_from_deltas(
    std::vector<std::pair<Cycle, double>> deltas) {
  // Deltas may arrive out of order (injections are recorded at delivery
  // time) — sort by cycle with -1s after +1s at the same cycle so the level
  // never dips below zero transiently.
  std::stable_sort(deltas.begin(), deltas.end(),
                   [](const auto& a, const auto& b) {
                     if (a.first != b.first) return a.first < b.first;
                     return a.second > b.second;
                   });
  std::vector<std::pair<Cycle, double>> series;
  double level = 0.0;
  for (const auto& [at, delta] : deltas) {
    level += delta;
    if (!series.empty() && series.back().first == at) {
      series.back().second = level;
    } else {
      series.emplace_back(at, level);
    }
  }
  return series;
}

void emit_process(EventWriter& w, int pid, const TraceProcess& proc) {
  w.begin() << "\"ph\": \"M\", \"pid\": " << pid
            << ", \"name\": \"process_name\", \"args\": {\"name\": \""
            << json_escape(proc.name) << "\"}";
  w.end();

  // Thread metas: the single-chip tracks always, cluster chip tracks only
  // for the chips that actually appear in the records.
  meta_thread_name(w, pid, kTidControl, "control");
  for (int p = 0; p < 3; ++p) {
    meta_thread_name(w, pid, kTidPhase0 + p, kPhaseNames[p]);
  }
  meta_thread_name(w, pid, kTidDram, "dram-stream");
  meta_thread_name(w, pid, kTidCompute, "tile-compute");
  if (proc.tracer != nullptr) {
    std::uint64_t max_chip = 0;
    bool any_cluster = false;
    for (const auto& r : proc.tracer->records()) {
      if (r.kind == TraceEvent::kClusterSegment) {
        any_cluster = true;
        max_chip = std::max(max_chip, r.arg0 / 4);
      }
    }
    if (any_cluster) {
      for (std::uint64_t c = 0; c <= max_chip; ++c) {
        meta_thread_name(w, pid, kTidClusterBase + static_cast<int>(c),
                         "chip" + std::to_string(c));
      }
    }
  }

  // Raw records -> spans and instants; packet/DRAM/halo events accumulate
  // into derived counter tracks.
  std::vector<std::pair<Cycle, double>> inflight_deltas;
  std::vector<std::pair<Cycle, double>> dram_bytes;
  std::vector<std::pair<Cycle, double>> halo_deltas;
  std::vector<std::pair<Cycle, double>> halo_sent;
  if (proc.tracer != nullptr) {
    for (const auto& r : proc.tracer->records()) {
      switch (r.kind) {
        case TraceEvent::kPhaseSpan: {
          const auto phase = std::min<std::uint64_t>(r.arg0, 2);
          w.begin() << "\"ph\": \"X\", \"pid\": " << pid
                    << ", \"tid\": " << kTidPhase0 + static_cast<int>(phase)
                    << ", \"ts\": " << r.at
                    << ", \"dur\": " << std::max<std::uint64_t>(r.arg1, 1)
                    << ", \"name\": \"" << kPhaseNames[phase] << "\"";
          w.end();
          break;
        }
        case TraceEvent::kDramSpan:
          w.begin() << "\"ph\": \"X\", \"pid\": " << pid
                    << ", \"tid\": " << kTidDram << ", \"ts\": " << r.at
                    << ", \"dur\": " << std::max<std::uint64_t>(r.arg1, 1)
                    << ", \"name\": \"dram-stream\", \"args\": {\"bytes\": "
                    << r.arg0 << "}";
          w.end();
          break;
        case TraceEvent::kReconfigure:
          w.begin() << "\"ph\": \"i\", \"s\": \"t\", \"pid\": " << pid
                    << ", \"tid\": " << kTidControl << ", \"ts\": " << r.at
                    << ", \"name\": \"reconfigure\", \"args\": {\"tile\": "
                    << r.arg0 << ", \"switch_writes\": " << r.arg1 << "}";
          w.end();
          break;
        case TraceEvent::kTileStart:
          w.begin() << "\"ph\": \"i\", \"s\": \"t\", \"pid\": " << pid
                    << ", \"tid\": " << kTidControl << ", \"ts\": " << r.at
                    << ", \"name\": \"tile-start\", \"args\": {\"tile\": "
                    << r.arg0 << ", \"vertices\": " << r.arg1 << "}";
          w.end();
          break;
        case TraceEvent::kComputeSpan:
          w.begin() << "\"ph\": \"X\", \"pid\": " << pid
                    << ", \"tid\": " << kTidCompute << ", \"ts\": " << r.at
                    << ", \"dur\": " << std::max<std::uint64_t>(r.arg1, 1)
                    << ", \"name\": \"tile-compute\", \"args\": {\"tile\": "
                    << r.arg0 << ", \"noc_busy\": " << r.arg2
                    << ", \"pe_busy\": " << r.arg3 << "}";
          w.end();
          break;
        case TraceEvent::kRunBegin:
          w.begin() << "\"ph\": \"i\", \"s\": \"t\", \"pid\": " << pid
                    << ", \"tid\": " << kTidControl << ", \"ts\": " << r.at
                    << ", \"name\": \"run-begin\", \"args\": {\"kind\": "
                    << r.arg0 << "}";
          w.end();
          break;
        case TraceEvent::kRunEnd:
          w.begin() << "\"ph\": \"i\", \"s\": \"t\", \"pid\": " << pid
                    << ", \"tid\": " << kTidControl << ", \"ts\": " << r.at
                    << ", \"name\": \"run-end\", \"args\": {\"total_cycles\": "
                    << r.arg0 << "}";
          w.end();
          break;
        case TraceEvent::kClusterSegment: {
          if (r.arg1 == 0) break;  // zero-length barrier/segment records
          const auto chip = static_cast<int>(r.arg0 / 4);
          const auto seg = std::min<std::uint64_t>(r.arg0 % 4, 2);
          w.begin() << "\"ph\": \"X\", \"pid\": " << pid
                    << ", \"tid\": " << kTidClusterBase + chip
                    << ", \"ts\": " << r.at
                    << ", \"dur\": " << std::max<std::uint64_t>(r.arg1, 1)
                    << ", \"name\": \"" << kSegmentNames[seg] << "\"";
          w.end();
          break;
        }
        case TraceEvent::kHaloSent:
          halo_deltas.emplace_back(r.at, static_cast<double>(r.arg1));
          halo_sent.emplace_back(r.at, static_cast<double>(r.arg1));
          break;
        case TraceEvent::kHaloDelivered:
          halo_deltas.emplace_back(r.at, -static_cast<double>(r.arg1));
          break;
        case TraceEvent::kPacketInjected:
          inflight_deltas.emplace_back(r.at, 1.0);
          break;
        case TraceEvent::kPacketDelivered:
          inflight_deltas.emplace_back(r.at, -1.0);
          break;
        case TraceEvent::kDramRequest:
          dram_bytes.emplace_back(r.at, static_cast<double>(r.arg1));
          break;
        case TraceEvent::kChipDown:
        case TraceEvent::kChipUp:
          w.begin() << "\"ph\": \"i\", \"s\": \"t\", \"pid\": " << pid
                    << ", \"tid\": " << kTidControl << ", \"ts\": " << r.at
                    << ", \"name\": \""
                    << (r.kind == TraceEvent::kChipDown ? "chip-down"
                                                        : "chip-up")
                    << "\", \"args\": {\"chip\": " << r.arg0 << "}";
          w.end();
          break;
        case TraceEvent::kLinkDegraded:
        case TraceEvent::kLinkRestored:
          w.begin() << "\"ph\": \"i\", \"s\": \"t\", \"pid\": " << pid
                    << ", \"tid\": " << kTidControl << ", \"ts\": " << r.at
                    << ", \"name\": \""
                    << (r.kind == TraceEvent::kLinkDegraded ? "link-degraded"
                                                            : "link-restored")
                    << "\", \"args\": {\"src\": " << unpack_u32_hi(r.arg0)
                    << ", \"dst\": " << unpack_u32_lo(r.arg0)
                    << ", \"multiplier_permille\": " << r.arg1 << "}";
          w.end();
          break;
        case TraceEvent::kGraphMutation: {
          static constexpr const char* kMutationNames[] = {
              "edge-add", "edge-remove", "vertex-add", "vertex-remove"};
          const auto kind = std::min<std::uint64_t>(r.arg0, 3);
          w.begin() << "\"ph\": \"i\", \"s\": \"t\", \"pid\": " << pid
                    << ", \"tid\": " << kTidControl << ", \"ts\": " << r.at
                    << ", \"name\": \"graph-mutation\", \"args\": {\"kind\": "
                    << "\"" << kMutationNames[kind] << "\", \"u\": "
                    << unpack_u32_hi(r.arg1)
                    << ", \"v\": " << unpack_u32_lo(r.arg1)
                    << ", \"edges\": " << r.arg2 << "}";
          w.end();
          break;
        }
        case TraceEvent::kReshard:
          w.begin() << "\"ph\": \"i\", \"s\": \"t\", \"pid\": " << pid
                    << ", \"tid\": " << kTidControl << ", \"ts\": " << r.at
                    << ", \"name\": \"reshard\", \"args\": {\"chips\": "
                    << r.arg0 << ", \"cut_edges\": " << r.arg1
                    << ", \"drifted_cut_edges\": " << r.arg2
                    << ", \"mutations_absorbed\": " << r.arg3 << "}";
          w.end();
          break;
        case TraceEvent::kTaskComplete:
          break;  // per-task instants would swamp the view; counters cover it
      }
    }
  }

  // Derived counter track 1: NoC packets in flight over time.
  emit_counter_series(w, pid, "noc.packets_in_flight",
                      levels_from_deltas(std::move(inflight_deltas)));

  // Derived counter track 2: cumulative DRAM bytes requested.
  std::vector<std::pair<Cycle, double>> dram_cum;
  double bytes = 0.0;
  for (const auto& [at, b] : dram_bytes) {
    bytes += b;
    if (!dram_cum.empty() && dram_cum.back().first == at) {
      dram_cum.back().second = bytes;
    } else {
      dram_cum.emplace_back(at, bytes);
    }
  }
  emit_counter_series(w, pid, "dram.bytes_requested", dram_cum);

  // Derived counter tracks 3+4 (cluster runs): halo bytes in flight on the
  // inter-chip link and cumulative halo bytes sent.
  emit_counter_series(w, pid, "link.halo_bytes_in_flight",
                      levels_from_deltas(std::move(halo_deltas)));
  std::vector<std::pair<Cycle, double>> halo_cum;
  double halo_total = 0.0;
  std::stable_sort(halo_sent.begin(), halo_sent.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  for (const auto& [at, b] : halo_sent) {
    halo_total += b;
    if (!halo_cum.empty() && halo_cum.back().first == at) {
      halo_cum.back().second = halo_total;
    } else {
      halo_cum.emplace_back(at, halo_total);
    }
  }
  emit_counter_series(w, pid, "link.halo_bytes_sent", halo_cum);

  // Sampled series -> one counter track each.
  if (proc.sampler != nullptr) {
    for (const auto& s : proc.sampler->series()) {
      for (std::size_t i = 0; i < s.values.size(); ++i) {
        counter_point(w, pid, s.name, proc.sampler->sample_cycles()[i],
                      s.values[i]);
      }
    }
  }
}

}  // namespace

std::string perfetto_trace_json(const std::vector<TraceProcess>& processes) {
  std::ostringstream os;
  os << "{\"displayTimeUnit\": \"ms\",\n \"traceEvents\": [\n  ";
  EventWriter w(os);
  for (std::size_t pid = 0; pid < processes.size(); ++pid) {
    emit_process(w, static_cast<int>(pid), processes[pid]);
  }
  os << "\n ]}";
  return os.str();
}

std::string perfetto_trace_json(const Tracer& tracer, const Sampler* sampler) {
  return perfetto_trace_json(
      std::vector<TraceProcess>{{"aurora-sim", &tracer, sampler}});
}

void write_perfetto_trace(const std::string& path,
                          const std::vector<TraceProcess>& processes) {
  std::ofstream out(path);
  AURORA_CHECK_MSG(out.is_open(), "cannot write trace: " << path);
  out << perfetto_trace_json(processes) << '\n';
  AURORA_CHECK_MSG(static_cast<bool>(out), "trace write failed: " << path);
}

void write_perfetto_trace(const std::string& path, const Tracer& tracer,
                          const Sampler* sampler) {
  write_perfetto_trace(path,
                       std::vector<TraceProcess>{{"aurora-sim", &tracer, sampler}});
}

}  // namespace aurora::sim
