#include "obs/obs.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <limits>
#include <mutex>
#include <string_view>
#include <unordered_map>

namespace pml::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

/// One recorded span interval. Stores the interned name pointer; names
/// have static storage duration (enforced by Span's contract) or live in
/// the registry's name store, so the pointer never dangles.
struct SpanEvent {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
};

struct GaugeCell {
  std::int64_t value = 0;
  std::int64_t max = std::numeric_limits<std::int64_t>::min();
  std::uint64_t last_set_ns = 0;  ///< picks the freshest `value` in merges
  bool set = false;
};

struct ThreadState;

/// Process-wide registry: name interning plus the set of live per-thread
/// buffers and the folded-in data of exited threads.
struct Registry {
  std::mutex mutex;
  std::deque<std::string> name_store;  // stable addresses for id -> name
  std::unordered_map<std::string_view, std::uint32_t> ids;
  std::vector<const char*> names;  // id -> interned name
  std::vector<ThreadState*> threads;
  std::uint32_t next_tid = 0;
  // Data folded in from exited threads.
  std::vector<std::uint64_t> retired_counters;
  std::vector<GaugeCell> retired_gauges;
  std::vector<SpanSample> retired_spans;
};

/// Immortal (leaked on purpose). ThreadPool::shared() is usually built
/// before the registry is first touched, so a function-local static
/// Registry would be destroyed first; the pool then joins its workers at
/// exit and their ThreadState destructors would write the dead registry.
Registry& registry() {
  static Registry* const r = new Registry;
  return *r;
}

/// Per-thread recording buffers. The mutex exists only for snapshot()
/// and the thread's own exit merge; recording threads take it
/// uncontended. Vectors are indexed by interned id and grown lazily.
struct ThreadState {
  std::mutex mutex;
  std::uint32_t tid = 0;
  std::vector<std::uint64_t> counters;
  std::vector<GaugeCell> gauges;
  std::vector<SpanEvent> spans;

  ThreadState() {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    tid = r.next_tid++;
    r.threads.push_back(this);
  }

  ~ThreadState() {
    Registry& r = registry();
    std::lock_guard<std::mutex> reg_lock(r.mutex);
    std::lock_guard<std::mutex> self_lock(mutex);
    if (r.retired_counters.size() < counters.size()) {
      r.retired_counters.resize(counters.size(), 0);
    }
    for (std::size_t i = 0; i < counters.size(); ++i) {
      r.retired_counters[i] += counters[i];
    }
    if (r.retired_gauges.size() < gauges.size()) {
      r.retired_gauges.resize(gauges.size());
    }
    for (std::size_t i = 0; i < gauges.size(); ++i) {
      const GaugeCell& cell = gauges[i];
      if (!cell.set) continue;
      GaugeCell& out = r.retired_gauges[i];
      out.max = out.set ? std::max(out.max, cell.max) : cell.max;
      if (!out.set || cell.last_set_ns >= out.last_set_ns) {
        out.value = cell.value;
        out.last_set_ns = cell.last_set_ns;
      }
      out.set = true;
    }
    for (const SpanEvent& e : spans) {
      r.retired_spans.push_back(SpanSample{e.name, e.start_ns, e.dur_ns, tid});
    }
    r.threads.erase(std::find(r.threads.begin(), r.threads.end(), this));
  }
};

ThreadState& thread_state() {
  thread_local ThreadState state;
  return state;
}

std::uint32_t intern(const char* name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  const auto it = r.ids.find(std::string_view(name));
  if (it != r.ids.end()) return it->second;
  r.name_store.emplace_back(name);  // own the bytes: callers may pass
                                    // short-lived strings to ctors
  const char* stored = r.name_store.back().c_str();
  const auto id = static_cast<std::uint32_t>(r.names.size());
  r.names.push_back(stored);
  r.ids.emplace(std::string_view(stored), id);
  return id;
}

}  // namespace

bool set_enabled(bool on) noexcept {
  return detail::g_enabled.exchange(on, std::memory_order_relaxed);
}

std::uint64_t now_ns() noexcept {
  // Trivially destructible, so safe to read from threads exiting during
  // static destruction.
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

Counter::Counter(const char* name) : id_(intern(name)) {}

void Counter::add(std::uint64_t delta) noexcept {
  if (!enabled() || delta == 0) return;
  // Instrumentation is best-effort: swallow allocation failure rather
  // than propagate an exception into an instrumented noexcept path.
  try {
    ThreadState& ts = thread_state();
    std::lock_guard<std::mutex> lock(ts.mutex);
    if (ts.counters.size() <= id_) ts.counters.resize(id_ + 1, 0);
    ts.counters[id_] += delta;
  } catch (...) {
  }
}

Gauge::Gauge(const char* name) : id_(intern(name)) {}

void Gauge::set(std::int64_t value) noexcept {
  if (!enabled()) return;
  try {
    ThreadState& ts = thread_state();
    std::lock_guard<std::mutex> lock(ts.mutex);
    if (ts.gauges.size() <= id_) ts.gauges.resize(id_ + 1);
    GaugeCell& cell = ts.gauges[id_];
    cell.value = value;
    cell.max = cell.set ? std::max(cell.max, value) : value;
    cell.last_set_ns = now_ns();
    cell.set = true;
  } catch (...) {
  }
}

void Span::finish() noexcept {
  const std::uint64_t end_ns = now_ns();
  try {
    ThreadState& ts = thread_state();
    std::lock_guard<std::mutex> lock(ts.mutex);
    ts.spans.push_back(SpanEvent{name_, start_ns_, end_ns - start_ns_});
  } catch (...) {
  }
}

Snapshot snapshot() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);

  std::vector<std::uint64_t> counters = r.retired_counters;
  std::vector<GaugeCell> gauges = r.retired_gauges;
  Snapshot snap;
  snap.spans = r.retired_spans;

  for (ThreadState* ts : r.threads) {
    std::lock_guard<std::mutex> ts_lock(ts->mutex);
    if (counters.size() < ts->counters.size()) {
      counters.resize(ts->counters.size(), 0);
    }
    for (std::size_t i = 0; i < ts->counters.size(); ++i) {
      counters[i] += ts->counters[i];
    }
    if (gauges.size() < ts->gauges.size()) gauges.resize(ts->gauges.size());
    for (std::size_t i = 0; i < ts->gauges.size(); ++i) {
      const GaugeCell& cell = ts->gauges[i];
      if (!cell.set) continue;
      GaugeCell& out = gauges[i];
      out.max = out.set ? std::max(out.max, cell.max) : cell.max;
      if (!out.set || cell.last_set_ns >= out.last_set_ns) {
        out.value = cell.value;
        out.last_set_ns = cell.last_set_ns;
      }
      out.set = true;
    }
    for (const SpanEvent& e : ts->spans) {
      snap.spans.push_back(SpanSample{e.name, e.start_ns, e.dur_ns, ts->tid});
    }
  }

  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (counters[i] == 0) continue;
    snap.counters.push_back(CounterSample{r.names[i], counters[i]});
  }
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    if (!gauges[i].set) continue;
    snap.gauges.push_back(GaugeSample{r.names[i], gauges[i].value, gauges[i].max});
  }

  std::sort(snap.counters.begin(), snap.counters.end(),
            [](const CounterSample& a, const CounterSample& b) {
              return a.name < b.name;
            });
  std::sort(snap.gauges.begin(), snap.gauges.end(),
            [](const GaugeSample& a, const GaugeSample& b) {
              return a.name < b.name;
            });
  std::sort(snap.spans.begin(), snap.spans.end(),
            [](const SpanSample& a, const SpanSample& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              if (a.tid != b.tid) return a.tid < b.tid;
              return a.name < b.name;
            });
  return snap;
}

void reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  for (ThreadState* ts : r.threads) {
    std::lock_guard<std::mutex> ts_lock(ts->mutex);
    std::fill(ts->counters.begin(), ts->counters.end(), 0);
    std::fill(ts->gauges.begin(), ts->gauges.end(), GaugeCell{});
    ts->spans.clear();  // clear() keeps capacity: warmed steady state
                        // stays allocation-free
  }
  std::fill(r.retired_counters.begin(), r.retired_counters.end(), 0);
  std::fill(r.retired_gauges.begin(), r.retired_gauges.end(), GaugeCell{});
  r.retired_spans.clear();
}

}  // namespace pml::obs
