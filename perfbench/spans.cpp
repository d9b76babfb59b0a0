#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <utility>

namespace perfbench {

std::size_t SpanRecorder::begin(std::string name, std::uint64_t op,
                                std::int64_t parent) {
  Span span;
  span.name = std::move(name);
  span.op = op;
  span.parent = parent >= 0        ? parent
                : open_.empty()    ? -1
                                   : static_cast<std::int64_t>(open_.back());
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - origin_)
                      .count();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::end(std::size_t id) {
  spans_[id].end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - origin_)
                          .count();
  // Spans close in LIFO order (ScopedSpan); tolerate anything else by
  // dropping only the matching entry.
  const auto it = std::find(open_.rbegin(), open_.rend(), id);
  if (it != open_.rend()) open_.erase(std::next(it).base());
}

std::int64_t SpanRecorder::find(std::string_view name,
                                std::uint64_t op) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].op == op && spans_[i].name == name) {
      return static_cast<std::int64_t>(i);
    }
  }
  return -1;
}

std::vector<double> SpanRecorder::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.seconds());
  }
  return out;
}

std::string SpanRecorder::chrome_json() const {
  std::ostringstream os;
  os << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n  "
     << "{\"ph\": \"M\", \"pid\": 0, \"tid\": 0, \"name\": \"process_name\", "
        "\"args\": {\"name\": \"perfbench host spans\"}}";
  char buf[64];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << ",\n  {\"ph\": \"X\", \"pid\": 0, \"tid\": 0, \"name\": \"" << s.name
       << "\", \"cat\": \"" << s.name.substr(0, s.name.find('.')) << "\"";
    std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(s.start_ns) / 1e3);
    os << ", \"ts\": " << buf;
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    os << ", \"dur\": " << buf << ", \"args\": {\"span\": " << i
       << ", \"parent\": " << s.parent << ", \"op\": " << s.op << "}}";
  }
  os << "\n]}\n";
  return os.str();
}

std::string SpanRecorder::self_time_table() const {
  // Children of one span never overlap (one thread; re-run children come
  // one after another), so the part of a parent they cover is the sum of
  // their durations.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  struct Row {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  // One row per span name, then one per layer (the text before the dot).
  std::map<std::string, Row> rows;
  std::map<std::string, Row> layers;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    for (Row* row : {&rows[s.name], &layers[s.name.substr(0, s.name.find('.'))]}) {
      ++row->count;
      row->total_ns += s.end_ns - s.start_ns;
      row->self_ns += s.end_ns - s.start_ns - child_ns[i];
    }
  }
  std::ostringstream os;
  char line[160];
  const auto print = [&](const char* title, const std::map<std::string, Row>& table) {
    std::snprintf(line, sizeof(line), "%-28s %8s %12s %12s\n", title, "spans",
                  "total (s)", "self (s)");
    os << line;
    for (const auto& [name, row] : table) {
      std::snprintf(line, sizeof(line), "%-28s %8llu %12.6f %12.6f\n",
                    name.c_str(), static_cast<unsigned long long>(row.count),
                    static_cast<double>(row.total_ns) * 1e-9,
                    static_cast<double>(row.self_ns) * 1e-9);
      os << line;
    }
  };
  print("span (layer.call)", rows);
  print("layer", layers);
  return os.str();
}

}  // namespace perfbench
