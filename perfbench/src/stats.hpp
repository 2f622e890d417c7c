// Summary statistics used by every workload of the benchmark.
//
// Timings are reported as a median plus the highest percentile that still
// has at least ten samples beyond it, together with the sample count, so a
// tail figure is never read off a handful of points.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count).
/// Throws std::invalid_argument when `values` is empty.
double median(std::vector<double> values);

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it. `p` is in (0, 100]. Throws on an empty input.
double percentile(std::vector<double> values, double p);

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double p);

/// The percentile the tail rule settles on.
struct Tail {
  double p = 0.0;          ///< chosen percentile, e.g. 99
  double value = 0.0;      ///< its value
  std::size_t samples = 0; ///< total sample count
  std::size_t beyond = 0;  ///< samples beyond it (>= min_beyond)
};

/// The tail rule: of the ladder p50, p90, p99, p99.9, p99.99, the highest
/// percentile that leaves at least `min_beyond` samples beyond it. Returns
/// p = 0 (and value 0) when even the median lacks that many samples.
Tail highest_supported_percentile(std::vector<double> values,
                                  std::size_t min_beyond = 10);

/// Open-loop accounting for one request: when it was due to be sent, when
/// the generator actually sent it, and when its reply arrived (0 = never).
struct OpenLoopRecord {
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = 0;
};

struct OpenLoopSummary {
  /// done - due per completed request: a stall of the generator or the
  /// server is charged to every request that was due during it.
  std::vector<double> latency_us;
  /// sent - due per sent request: how late the generator ran.
  std::vector<double> lateness_us;
  std::size_t completed = 0;
  std::size_t missing = 0;  ///< sent but never answered
};

OpenLoopSummary summarize_open_loop(std::span<const OpenLoopRecord> records);

/// The p-th percentile latency (us, from the due time) of each consecutive
/// `window_ns` window of `records`, assigned by due time from `origin_ns`.
/// Windows with fewer than `min_samples` completed requests are skipped.
/// The median over windows is steadier than one percentile over the whole
/// phase: a single disturbed second moves one window, not the figure.
std::vector<double> windowed_latency_us(std::span<const OpenLoopRecord> records,
                                        std::int64_t origin_ns,
                                        std::int64_t window_ns, double p,
                                        std::size_t min_samples);

/// Due time of the j-th request of a fixed-rate schedule starting at
/// `start_ns`, at `rate_per_s` requests per second.
std::int64_t open_loop_due_ns(std::int64_t start_ns, double rate_per_s,
                              std::size_t j);

}  // namespace perfbench
