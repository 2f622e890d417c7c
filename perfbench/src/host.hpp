// Host fingerprint and process resource readings.
//
// Every result carries the fingerprint of the host and build that produced
// it. Recorded numbers are a same-host trajectory, never a cross-host gate.
#pragma once

#include <string>

// Sanitized builds time the sanitizer, not the program: refuse them.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#ifndef PERFBENCH_SANITIZED
#define PERFBENCH_SANITIZED 0
#endif

namespace perfbench {

struct HostInfo {
  std::string cpu_model;   ///< /proc/cpuinfo "model name"
  int nproc = 0;           ///< online CPUs
  std::string build_type;  ///< CMAKE_BUILD_TYPE of the benchmark build
  std::string compiler;    ///< compiler id and version
  bool sanitized = false;
};

HostInfo host_info();

/// One-line JSON rendering of `info`.
std::string to_json(const HostInfo& info);

/// Peak resident set size of this process so far (VmHWM), in MB.
double peak_rss_mb();

/// User plus system CPU seconds this process has consumed.
double process_cpu_s();

}  // namespace perfbench
