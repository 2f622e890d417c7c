#include "host.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <fstream>

namespace perfbench {

HostInfo host_info() {
  HostInfo info;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) info.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  if (info.cpu_model.empty()) info.cpu_model = "unknown";
  info.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  info.build_type = PERFBENCH_BUILD_TYPE;
#if defined(__clang__)
  info.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  info.compiler = "gcc " __VERSION__;
#else
  info.compiler = "unknown";
#endif
  info.sanitized = PERFBENCH_SANITIZED != 0;
  return info;
}

std::string to_json(const HostInfo& info) {
  const auto quoted = [](const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out + "\"";
  };
  return "{\"cpu_model\":" + quoted(info.cpu_model) +
         ",\"nproc\":" + std::to_string(info.nproc) +
         ",\"build_type\":" + quoted(info.build_type) +
         ",\"compiler\":" + quoted(info.compiler) +
         ",\"sanitized\":" + (info.sanitized ? "true" : "false") + "}";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

}  // namespace perfbench
