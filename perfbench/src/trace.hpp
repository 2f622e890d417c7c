// The benchmark's own tracing. The program's obs layer stays disabled in
// every run; instead the traced run wraps each call the benchmark makes into
// a layer in a span kept in memory here, and writes all spans once, when the
// run ends (Chrome trace-event JSON, loadable in chrome://tracing/Perfetto).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock in nanoseconds (steady_clock).
std::int64_t now_ns();

struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;       ///< 1-based; 0 means "no span"
  std::uint64_t parent = 0;   ///< enclosing span on the same thread
  std::uint64_t request = 0;  ///< request id shared by one request's spans
  std::uint64_t thread = 0;   ///< small per-thread number
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const noexcept { return enabled_; }

  /// Open a span (a no-op returning 0 when disabled). `name` must outlive
  /// the tracer; string literals do.
  std::uint64_t begin(const char* name, std::uint64_t request = 0);
  void end(std::uint64_t id);

  /// Record an already finished interval, e.g. one of many requests in
  /// flight at once on a pipelined connection. Its parent is the
  /// innermost span open on the calling thread.
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t request = 0);

  /// Durations in nanoseconds of every closed span called `name`.
  std::vector<double> durations_ns(const std::string& name) const;
  /// Sum of durations_ns(name), in seconds.
  double total_s(const std::string& name) const;
  std::size_t size() const;

  /// Write every span as Chrome trace-event JSON. Returns false on IO error.
  bool write(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  ///< index = id - 1
};

/// RAII span; the tracer must outlive it.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint64_t request = 0)
      : tracer_(tracer), id_(tracer.begin(name, request)) {}
  ~Span() { tracer_.end(id_); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  std::uint64_t id_;
};

}  // namespace perfbench
