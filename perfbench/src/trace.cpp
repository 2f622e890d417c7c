#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

/// Open spans of the calling thread, innermost last (parent links).
thread_local std::vector<std::uint64_t> open_spans;

std::uint64_t thread_number() {
  static std::atomic<std::uint64_t> next{1};
  thread_local const std::uint64_t mine = next.fetch_add(1);
  return mine;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t Tracer::begin(const char* name, std::uint64_t request) {
  if (!enabled_) return 0;
  SpanRecord r;
  r.name = name;
  r.parent = open_spans.empty() ? 0 : open_spans.back();
  r.request = request;
  r.thread = thread_number();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    r.id = spans_.size() + 1;
    spans_.push_back(r);
  }
  open_spans.push_back(r.id);
  // Stamp last, so the bookkeeping above is not charged to the span.
  const std::int64_t start = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[r.id - 1].start_ns = start;
  return r.id;
}

void Tracer::end(std::uint64_t id) {
  if (id == 0) return;
  const std::int64_t stop = now_ns();
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].end_ns = stop;
}

void Tracer::record(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t request) {
  if (!enabled_) return;
  SpanRecord r;
  r.name = name;
  r.start_ns = start_ns;
  r.end_ns = end_ns;
  r.parent = open_spans.empty() ? 0 : open_spans.back();
  r.request = request;
  r.thread = thread_number();
  std::lock_guard<std::mutex> lock(mutex_);
  r.id = spans_.size() + 1;
  spans_.push_back(r);
}

std::vector<double> Tracer::durations_ns(const std::string& name) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const SpanRecord& r : spans_) {
    if (r.end_ns != 0 && name == r.name) {
      out.push_back(static_cast<double>(r.end_ns - r.start_ns));
    }
  }
  return out;
}

double Tracer::total_s(const std::string& name) const {
  double total = 0.0;
  for (const double ns : durations_ns(name)) total += ns;
  return total / 1e9;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  for (const SpanRecord& r : spans_) {
    if (r.end_ns == 0) continue;
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%llu}}",
                 first ? "" : ",", r.name,
                 static_cast<unsigned long long>(r.thread),
                 static_cast<double>(r.start_ns - origin) / 1e3,
                 static_cast<double>(r.end_ns - r.start_ns) / 1e3,
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent),
                 static_cast<unsigned long long>(r.request));
    first = false;
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
