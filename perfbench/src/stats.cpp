#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

namespace {

/// 1-based nearest rank of the p-th percentile of n samples. The small
/// epsilon keeps e.g. 90% of 100 at rank 90 despite 0.9 * 100 rounding up.
std::size_t nearest_rank(std::size_t n, double p) {
  const double exact = p * static_cast<double>(n) / 100.0;
  const auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no samples");
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2.0;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) throw std::invalid_argument("percentile of no samples");
  const std::size_t rank = nearest_rank(values.size(), p);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  return n - nearest_rank(n, p);
}

Tail highest_supported_percentile(std::vector<double> values,
                                  std::size_t min_beyond) {
  static constexpr double kLadder[] = {99.99, 99.9, 99.0, 90.0, 50.0};
  Tail tail;
  tail.samples = values.size();
  for (const double p : kLadder) {
    const std::size_t beyond = samples_beyond(values.size(), p);
    if (beyond >= min_beyond) {
      tail.p = p;
      tail.beyond = beyond;
      tail.value = percentile(std::move(values), p);
      return tail;
    }
  }
  return tail;
}

OpenLoopSummary summarize_open_loop(std::span<const OpenLoopRecord> records) {
  OpenLoopSummary summary;
  for (const OpenLoopRecord& r : records) {
    if (r.sent_ns == 0) continue;  // never sent: the run ended first
    summary.lateness_us.push_back(static_cast<double>(r.sent_ns - r.due_ns) / 1e3);
    if (r.done_ns == 0) {
      ++summary.missing;
      continue;
    }
    summary.latency_us.push_back(static_cast<double>(r.done_ns - r.due_ns) / 1e3);
    ++summary.completed;
  }
  return summary;
}

std::vector<double> windowed_latency_us(std::span<const OpenLoopRecord> records,
                                        std::int64_t origin_ns,
                                        std::int64_t window_ns, double p,
                                        std::size_t min_samples) {
  std::vector<std::vector<double>> windows;
  for (const OpenLoopRecord& r : records) {
    if (r.sent_ns == 0 || r.done_ns == 0 || r.due_ns < origin_ns) continue;
    const auto w = static_cast<std::size_t>((r.due_ns - origin_ns) / window_ns);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(static_cast<double>(r.done_ns - r.due_ns) / 1e3);
  }
  std::vector<double> out;
  for (std::vector<double>& w : windows) {
    if (w.size() >= min_samples) out.push_back(percentile(std::move(w), p));
  }
  return out;
}

std::int64_t open_loop_due_ns(std::int64_t start_ns, double rate_per_s,
                              std::size_t j) {
  return start_ns +
         static_cast<std::int64_t>(static_cast<double>(j) * 1e9 / rate_per_s);
}

}  // namespace perfbench
