// The benchmark's workloads (README.md explains why each exists).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;  ///< "select_hot" or "onboard_cold"
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< budget of the measured serve phase
  bool trace = false;     ///< traced run: per-layer metrics instead of end-to-end
  std::string out_dir = ".";  ///< model artifacts and the span file go here
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  ///< what the final JSON line reports
};

/// Names of the workloads run_workload accepts.
const std::vector<std::string>& workload_names();

/// Run one workload end to end. Progress and the named figures go to
/// stdout as human-readable lines; failed checks go to stderr.
RunResult run_workload(const RunConfig& config);

}  // namespace perfbench
