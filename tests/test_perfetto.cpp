// Golden-file and structural tests for the Perfetto trace exporter: the
// JSON must stay byte-stable for a fixed trace (regenerate with
// AURORA_REGEN_GOLDEN=1), parse as valid JSON, keep duration spans
// properly nested per track, and name its tracks consistently.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "sim/perfetto.hpp"
#include "sim/trace.hpp"

namespace aurora {
namespace {

// ------------------------------------------------ minimal JSON checker

/// Recursive-descent validator for the JSON subset the exporter emits
/// (objects, arrays, strings without exotic escapes, numbers, literals).
/// Keeps the test dependency-free while still catching malformed output.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  [[nodiscard]] bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* lit) {
    const std::string l(lit);
    if (s_.compare(pos_, l.size(), l) != 0) return false;
    pos_ += l.size();
    return true;
  }

  [[nodiscard]] char peek() const {
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// --------------------------------------------- flat trace-event scraping

/// One scraped traceEvents entry; only the fields the tests assert on.
struct ScrapedEvent {
  std::string ph;
  std::string name;
  long long pid = 0;
  long long tid = 0;
  long long ts = 0;
  long long dur = 0;
  std::string thread_name;  // args.name for thread_name metadata
};

long long scrape_int(const std::string& obj, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = obj.find(needle);
  if (at == std::string::npos) return 0;
  return std::atoll(obj.c_str() + at + needle.size());
}

std::string scrape_string(const std::string& obj, const std::string& key) {
  const std::string needle = "\"" + key + "\": \"";
  const std::size_t at = obj.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t begin = at + needle.size();
  return obj.substr(begin, obj.find('"', begin) - begin);
}

/// Split the traceEvents array into per-event object strings. The exporter
/// emits flat objects (args sub-objects hold no '{'..'}' nesting beyond one
/// level), so brace counting is sufficient.
std::vector<ScrapedEvent> scrape_events(const std::string& json) {
  std::vector<ScrapedEvent> events;
  const std::size_t list = json.find("\"traceEvents\": [");
  EXPECT_NE(list, std::string::npos);
  int depth = 0;
  std::size_t start = 0;
  for (std::size_t i = list; i < json.size(); ++i) {
    if (json[i] == '{') {
      if (depth == 0) start = i;
      ++depth;
    } else if (json[i] == '}') {
      --depth;
      if (depth == 0) {
        const std::string obj = json.substr(start, i - start + 1);
        ScrapedEvent e;
        e.ph = scrape_string(obj, "ph");
        e.name = scrape_string(obj, "name");
        e.pid = scrape_int(obj, "pid");
        e.tid = scrape_int(obj, "tid");
        e.ts = scrape_int(obj, "ts");
        e.dur = scrape_int(obj, "dur");
        if (e.name == "thread_name") {
          const std::size_t args = obj.find("\"args\"");
          e.thread_name = scrape_string(obj.substr(args), "name");
        }
        events.push_back(e);
      }
    } else if (json[i] == ']' && depth == 0 && i > list + 16) {
      break;
    }
  }
  return events;
}

/// A fixed, deterministic trace exercising every record class the exporter
/// handles: tile lifecycle, phases, DRAM, compute spans, run marks,
/// packets, and cluster segments + halo traffic.
sim::Tracer make_golden_tracer() {
  using sim::TraceEvent;
  sim::Tracer t;
  t.enable();
  t.record(0, TraceEvent::kRunBegin, sim::kRunKindChip, 2);
  t.record(0, TraceEvent::kReconfigure, 6, 10);
  t.record(10, TraceEvent::kTileStart, 0, 12);
  t.record(10, TraceEvent::kDramRequest, 256, 0);
  t.record(10, TraceEvent::kDramSpan, 256, 8, 3, sim::pack_u32_pair(1, 0));
  t.record(18, TraceEvent::kPacketInjected, 4, 2);
  t.record(21, TraceEvent::kPacketDelivered, 4, 2);
  t.record(18, TraceEvent::kComputeSpan, 0, 20, 6, 14);
  t.record(18, TraceEvent::kPhaseSpan, 0, 9);
  t.record(27, TraceEvent::kPhaseSpan, 1, 11);
  t.record(38, TraceEvent::kDramSpan, 128, 6, 2, sim::pack_u32_pair(0, 0));
  t.record(44, TraceEvent::kTileStart, 1, 12);
  t.record(44, TraceEvent::kDramSpan, 256, 8, 2, sim::pack_u32_pair(1, 1));
  t.record(52, TraceEvent::kComputeSpan, 1, 16, 4, 12);
  t.record(52, TraceEvent::kPhaseSpan, 2, 16);
  t.record(68, TraceEvent::kDramSpan, 128, 6, 3, sim::pack_u32_pair(0, 0));
  t.record(80, TraceEvent::kRunEnd, 80, 6);
  t.record(80, TraceEvent::kRunBegin, sim::kRunKindCluster, 2);
  // Cluster segments encode arg0 = chip * 4 + segment kind
  // (0 compute-pre, 1 halo-wait, 2 compute-post).
  t.record(80, TraceEvent::kClusterSegment, 0 * 4 + 0, 30,
           12, sim::pack_u32_pair(5, 4));
  t.record(80, TraceEvent::kClusterSegment, 1 * 4 + 0, 28,
           10, sim::pack_u32_pair(6, 4));
  // Halo records: arg0 = pack_u32_pair(src, dst), arg1 = bytes,
  // arg2 = layer.
  t.record(108, TraceEvent::kHaloSent, sim::pack_u32_pair(1, 0), 64, 0);
  t.record(110, TraceEvent::kHaloDelivered, sim::pack_u32_pair(1, 0), 64, 0);
  t.record(110, TraceEvent::kClusterSegment, 0 * 4 + 1, 1);
  t.record(108, TraceEvent::kClusterSegment, 1 * 4 + 1, 0);
  t.record(111, TraceEvent::kClusterSegment, 0 * 4 + 2, 9);
  t.record(108, TraceEvent::kClusterSegment, 1 * 4 + 2, 10);
  t.record(120, TraceEvent::kRunEnd, 120, 0);
  return t;
}

std::string golden_path() {
  return std::string(AURORA_SOURCE_DIR) +
         "/tests/data/perfetto_small.golden.json";
}

// --------------------------------------------------------------- tests

TEST(Perfetto, GoldenFileByteStable) {
  const sim::Tracer tracer = make_golden_tracer();
  const std::string json = sim::perfetto_trace_json(tracer);

  if (std::getenv("AURORA_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    out << json;
    GTEST_SKIP() << "golden regenerated at " << golden_path();
  }

  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden file " << golden_path()
      << " — run with AURORA_REGEN_GOLDEN=1 to create it";
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(json, buf.str())
      << "exporter output drifted from the golden file; if the change is "
         "intentional, regenerate with AURORA_REGEN_GOLDEN=1";
}

TEST(Perfetto, OutputIsValidJson) {
  const std::string json =
      sim::perfetto_trace_json(make_golden_tracer());
  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid());
}

TEST(Perfetto, SpansAreMonotoneAndNestedPerTrack) {
  const std::string json =
      sim::perfetto_trace_json(make_golden_tracer());
  const std::vector<ScrapedEvent> events = scrape_events(json);
  ASSERT_FALSE(events.empty());

  std::vector<ScrapedEvent> last_on_track;
  for (const ScrapedEvent& e : events) {
    if (e.ph != "X") continue;
    EXPECT_GE(e.dur, 0);
    bool found = false;
    for (ScrapedEvent& prev : last_on_track) {
      if (prev.pid != e.pid || prev.tid != e.tid) continue;
      found = true;
      // Monotone emission order per track...
      EXPECT_GE(e.ts, prev.ts) << "track (" << e.pid << "," << e.tid << ")";
      // ...and overlapping spans must nest: a span either starts after
      // the previous one ends, or closes no later than it.
      const bool disjoint = e.ts >= prev.ts + prev.dur;
      const bool nested = e.ts + e.dur <= prev.ts + prev.dur;
      EXPECT_TRUE(disjoint || nested)
          << "span \"" << e.name << "\" at ts=" << e.ts
          << " straddles the previous span on track (" << e.pid << ","
          << e.tid << ")";
      if (disjoint) prev = e;
      break;
    }
    if (!found) last_on_track.push_back(e);
  }
}

TEST(Perfetto, TrackNamingIsStable) {
  const std::string json =
      sim::perfetto_trace_json(make_golden_tracer());
  const std::vector<ScrapedEvent> events = scrape_events(json);

  std::set<std::string> names;
  for (const ScrapedEvent& e : events) {
    if (e.name == "thread_name") names.insert(e.thread_name);
  }
  // The single-chip tracks are always announced...
  EXPECT_TRUE(names.count("control"));
  EXPECT_TRUE(names.count("dram-stream"));
  EXPECT_TRUE(names.count("tile-compute"));
  // ...and the trace contains cluster segments for chips 0 and 1, so the
  // per-chip tracks must be named too.
  EXPECT_TRUE(names.count("chip0"));
  EXPECT_TRUE(names.count("chip1"));
}

// Chip pairs pack into two 32-bit halves, so endpoints past 255 keep their
// identity in the exported src/dst args.
TEST(Perfetto, LinkFaultRoutesKeepWideChipIds) {
  using sim::TraceEvent;
  sim::Tracer t;
  t.enable();
  t.record(5, TraceEvent::kLinkDegraded, sim::pack_u32_pair(3, 300), 1500);
  t.record(9, TraceEvent::kLinkRestored, sim::pack_u32_pair(256, 1), 1000);
  const std::string json = sim::perfetto_trace_json(t);
  EXPECT_NE(json.find("\"src\": 3, \"dst\": 300, \"multiplier_permille\": "
                      "1500"),
            std::string::npos);
  EXPECT_NE(json.find("\"src\": 256, \"dst\": 1, \"multiplier_permille\": "
                      "1000"),
            std::string::npos);
}

TEST(Perfetto, MultiProcessExportNamesEveryProcess) {
  const sim::Tracer tracer = make_golden_tracer();
  sim::Tracer second = make_golden_tracer();
  const std::vector<sim::TraceProcess> processes = {
      {"cluster", &tracer, nullptr},
      {"chip-0", &second, nullptr},
  };
  const std::string json = sim::perfetto_trace_json(processes);
  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid());
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"cluster\""), std::string::npos);
  EXPECT_NE(json.find("\"chip-0\""), std::string::npos);

  const std::vector<ScrapedEvent> events = scrape_events(json);
  std::set<long long> pids;
  for (const ScrapedEvent& e : events) pids.insert(e.pid);
  EXPECT_EQ(pids.size(), 2u);
}

}  // namespace
}  // namespace aurora
