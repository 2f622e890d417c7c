#include "obs/export.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/strings.hpp"

namespace pml::obs {

namespace {

std::uint64_t nearest_rank(const std::vector<std::uint64_t>& sorted,
                           double quantile) {
  // Nearest-rank percentile: the smallest element with cumulative
  // frequency >= quantile. sorted is non-empty here.
  const auto n = sorted.size();
  auto rank = static_cast<std::size_t>(quantile * static_cast<double>(n) + 0.999999);
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  return sorted[rank - 1];
}

/// Add the snapshot's "counters" and "gauges" members to `doc`, in that
/// order: the one rendering both exports share.
void add_counters_and_gauges(const Snapshot& snap, Json& doc) {
  Json counters = Json::object();
  for (const CounterSample& c : snap.counters) counters[c.name] = c.value;
  doc["counters"] = std::move(counters);

  Json gauges = Json::object();
  for (const GaugeSample& g : snap.gauges) {
    Json cell = Json::object();
    cell["value"] = g.value;
    cell["max"] = g.max;
    gauges[g.name] = std::move(cell);
  }
  doc["gauges"] = std::move(gauges);
}

}  // namespace

std::vector<SpanStats> span_stats(const Snapshot& snap) {
  std::map<std::string, std::vector<std::uint64_t>> durations;
  for (const SpanSample& s : snap.spans) durations[s.name].push_back(s.dur_ns);

  std::vector<SpanStats> stats;
  stats.reserve(durations.size());
  for (auto& [name, durs] : durations) {
    std::sort(durs.begin(), durs.end());
    SpanStats st;
    st.name = name;
    st.count = durs.size();
    for (const std::uint64_t d : durs) st.total_ns += d;
    st.min_ns = durs.front();
    st.max_ns = durs.back();
    st.p50_ns = nearest_rank(durs, 0.50);
    st.p95_ns = nearest_rank(durs, 0.95);
    stats.push_back(std::move(st));
  }
  return stats;  // std::map iteration: already sorted by name
}

Json chrome_trace_json(const Snapshot& snap) {
  Json events = Json::array();
  for (const SpanSample& s : snap.spans) {
    Json e = Json::object();
    e["name"] = s.name;
    e["cat"] = "pml";
    e["ph"] = "X";
    e["pid"] = 1;
    e["tid"] = s.tid;
    e["ts"] = static_cast<double>(s.start_ns) / 1000.0;   // microseconds
    e["dur"] = static_cast<double>(s.dur_ns) / 1000.0;
    events.push_back(std::move(e));
  }

  Json doc = Json::object();
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  Json other = Json::object();
  add_counters_and_gauges(snap, other);
  doc["otherData"] = std::move(other);
  return doc;
}

Json metrics_json(const Snapshot& snap) {
  Json doc = Json::object();
  doc["format"] = "pml-metrics-v1";
  add_counters_and_gauges(snap, doc);

  Json spans = Json::object();
  for (const SpanStats& st : span_stats(snap)) {
    Json cell = Json::object();
    cell["count"] = st.count;
    cell["total_ns"] = st.total_ns;
    cell["min_ns"] = st.min_ns;
    cell["max_ns"] = st.max_ns;
    cell["p50_ns"] = st.p50_ns;
    cell["p95_ns"] = st.p95_ns;
    spans[st.name] = std::move(cell);
  }
  doc["spans"] = std::move(spans);
  return doc;
}

void write_chrome_trace(const std::string& path) {
  write_file(path, chrome_trace_json(snapshot()).dump(2) + "\n");
}

void write_metrics(const std::string& path) {
  write_file(path, metrics_json(snapshot()).dump(2) + "\n");
}

ScopedCapture::ScopedCapture(Sink sink) : sink_(std::move(sink)) {
  if (sink_.empty()) return;
  active_ = true;
  was_enabled_ = set_enabled(true);
}

ScopedCapture::~ScopedCapture() {
  if (!active_) return;
  // A destructor must not throw; report export failures to stderr.
  try {
    if (!sink_.chrome_trace.empty()) write_chrome_trace(sink_.chrome_trace);
    if (!sink_.metrics.empty()) write_metrics(sink_.metrics);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "obs: trace export failed: %s\n", e.what());
  }
  set_enabled(was_enabled_);
}

}  // namespace pml::obs
