// Exporters for pml::obs snapshots: chrome://tracing JSON and a flat
// metrics.json summary, plus the ScopedCapture RAII helper that turns a
// Sink (the CLI's --trace/--metrics) into files on scope exit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/obs.hpp"

namespace pml::obs {

/// Per-span-name duration summary. Percentiles use the nearest-rank
/// method on the sorted durations.
struct SpanStats {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p95_ns = 0;
};

/// Aggregate a snapshot's spans by name, sorted by name.
std::vector<SpanStats> span_stats(const Snapshot& snap);

/// chrome://tracing "trace event" document: one complete ("ph":"X") event
/// per span, timestamps/durations in microseconds.
Json chrome_trace_json(const Snapshot& snap);

/// Flat summary document: {"format":"pml-metrics-v1", "counters":{...},
/// "gauges":{...}, "spans":{name: {count,total_ns,min_ns,max_ns,p50_ns,
/// p95_ns}}}. Consumed by `pml stats` and tools/bench_compare.py.
Json metrics_json(const Snapshot& snap);

/// Snapshot and write to `path`; throws IoError on write failure.
void write_chrome_trace(const std::string& path);
void write_metrics(const std::string& path);

/// Where a capture should export its trace data. Empty paths mean "do not
/// export"; an all-empty sink disables capture entirely.
struct Sink {
  std::string chrome_trace;  ///< chrome://tracing JSON output path
  std::string metrics;       ///< metrics.json summary output path
  bool empty() const noexcept { return chrome_trace.empty() && metrics.empty(); }
};

/// RAII capture: if the sink names any output, enables collection for the
/// scope and writes the requested files on destruction (restoring the
/// previous enabled state). With an empty sink it does nothing at all.
class ScopedCapture {
 public:
  explicit ScopedCapture(Sink sink);
  ~ScopedCapture();
  ScopedCapture(const ScopedCapture&) = delete;
  ScopedCapture& operator=(const ScopedCapture&) = delete;

 private:
  Sink sink_;
  bool active_ = false;
  bool was_enabled_ = false;
};

}  // namespace pml::obs
