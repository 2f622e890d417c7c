// pmlbench: the repository's end-to-end benchmark (README.md).
//
//   pmlbench --workload <select_hot|onboard_cold> --seed N --seconds S
//            --trace 0|1 [--out-dir DIR]
//
// Prints the host fingerprint, human-readable figures, and as its last line
// one JSON object {"correct","attempted","failed","metrics"}. Exits 0 only
// when every correctness check passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "host.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "pmlbench: %s\nusage: pmlbench --workload <select_hot|onboard_cold> "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        config.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        config.seed = std::stoull(value);
      } else if (key == "--seconds") {
        config.seconds = std::stod(value);
      } else if (key == "--trace") {
        config.trace = std::stoi(value) != 0;
      } else if (key == "--out-dir") {
        config.out_dir = value;
      } else {
        return usage(("unknown option " + key).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("options come in --key value pairs");
  if (!have_workload) return usage("--workload is required");
  bool known = false;
  for (const std::string& name : perfbench::workload_names()) {
    known = known || name == config.workload;
  }
  if (!known) return usage(("unknown workload " + config.workload).c_str());
  if (!(config.seconds > 0.0)) return usage("--seconds must be positive");

  const perfbench::HostInfo host = perfbench::host_info();
  std::printf("host %s\n", perfbench::to_json(host).c_str());
  if (host.sanitized) {
    std::fprintf(stderr, "pmlbench: refusing to time a sanitized build\n");
    return 3;
  }
  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n", config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);

  perfbench::RunResult result;
  try {
    result = perfbench::run_workload(config);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "pmlbench: %s\n", err.what());
    return 1;
  }

  std::string metrics;
  for (const perfbench::Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "pmlbench: metric %s is not finite\n", m.name.c_str());
      result.correct = false;
      continue;
    }
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    if (!metrics.empty()) metrics += ",";
    metrics += "\"" + m.name + "\":{\"value\":" + value + ",\"unit\":\"" + m.unit + "\"}";
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
