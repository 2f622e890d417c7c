// pml::obs — zero-dependency observability: counters, gauges, and scoped
// trace spans, aggregated across threads (including common/parallel pool
// workers) into a process-wide snapshot.
//
// Design constraints, in order:
//  1. Near-zero cost when disabled. Collection is off by default; every
//     hot-path entry point is a relaxed atomic load and a predictable
//     branch. Span construction with tracing off touches no clock, takes
//     no lock, and allocates nothing.
//  2. No perturbation of results. Instrumented code must produce
//     bit-identical outputs (virtual times, trained model bytes) whether
//     tracing is on or off — instrumentation only observes, it never
//     feeds back into RNG streams, iteration order, or scheduling.
//  3. Thread safety without hot-path contention. Each thread records into
//     its own buffer behind its own (uncontended) mutex; the global
//     registry is touched only at registration, snapshot, and thread
//     exit. Buffers from exited threads are folded into the registry, so
//     pool workers that die before export are still counted.
//
// Usage:
//
//   static obs::Counter cells("dataset.cells");
//   void build_cell(...) {
//     obs::Span span("dataset.cell");   // RAII: records [ctor, dtor)
//     ...
//     cells.increment();
//   }
//
//   obs::set_enabled(true);
//   ... run workload ...
//   obs::Snapshot snap = obs::snapshot();
//
// Exporters (chrome://tracing JSON, metrics.json summaries) and the
// ScopedCapture that writes them live in obs/export.hpp, so instrumented
// code only pulls in this header.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace pml::obs {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// True when collection is on. Relaxed load: the flag gates observation
/// only, it never orders data between threads.
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Turn collection on or off; returns the previous state. Existing
/// recorded data is kept (call reset() to drop it).
bool set_enabled(bool on) noexcept;

/// Nanoseconds since the process-wide trace epoch (first use).
std::uint64_t now_ns() noexcept;

/// Monotonic event counter. Construction interns the name (one global
/// lock, once — declare instances `static` at the recording site);
/// add() touches only the calling thread's cell.
class Counter {
 public:
  explicit Counter(const char* name);
  void add(std::uint64_t delta) noexcept;
  void increment() noexcept { add(1); }

 private:
  std::uint32_t id_;
};

/// Last-value-plus-maximum gauge (the aggregate keeps both the most
/// recently set value and the high-water mark across all threads).
class Gauge {
 public:
  explicit Gauge(const char* name);
  void set(std::int64_t value) noexcept;

 private:
  std::uint32_t id_;
};

/// RAII scoped timer. Records a [construction, destruction) interval into
/// the calling thread's trace buffer when collection is enabled at
/// construction time. `name` must have static storage duration (string
/// literals only): the buffer stores the pointer, not a copy.
class Span {
 public:
  explicit Span(const char* name) noexcept
      : name_(enabled() ? name : nullptr), start_ns_(name_ ? now_ns() : 0) {}
  ~Span() {
    if (name_ != nullptr) finish();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void finish() noexcept;

  const char* name_;
  std::uint64_t start_ns_;
};

// --- Snapshots -------------------------------------------------------------

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  std::int64_t value = 0;  ///< most recently set value (any thread)
  std::int64_t max = 0;    ///< high-water mark across all threads
};

struct SpanSample {
  std::string name;
  std::uint64_t start_ns = 0;  ///< relative to the trace epoch
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;  ///< dense per-thread id (registration order)
};

/// Point-in-time merge of every thread's data (live and exited).
/// Counters and gauges are sorted by name; spans by (start_ns, tid).
struct Snapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<SpanSample> spans;
};

Snapshot snapshot();

/// Drop all recorded data (counters, gauges, span buffers) while keeping
/// every buffer's capacity, so a warmed-up enabled steady state records
/// without allocating. Interned names survive.
void reset();

}  // namespace pml::obs
