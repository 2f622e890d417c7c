#include "gen.hpp"

#include <cstdio>
#include <unordered_set>

namespace perfbench {

std::uint64_t SeededStream::next() {
  state_ += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t SeededStream::below(std::uint64_t n) { return next() % n; }

double SeededStream::uniform(double lo, double hi) {
  const double unit = static_cast<double>(next() >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * unit;
}

namespace {

template <typename T>
const T& pick(SeededStream& rng, const std::vector<T>& values) {
  return values[rng.below(values.size())];
}

/// One unseen-cluster candidate (see make_unseen_clusters).
pml::sim::ClusterSpec make_unseen_cluster(std::uint64_t seed,
                                          std::size_t index) {
  SeededStream rng(seed * 0x100000001b3ULL + index);
  const auto& clusters = pml::sim::builtin_clusters();
  pml::sim::ClusterSpec c = pick(rng, clusters);
  c.name = "unseen-" + std::to_string(seed) + "-" + std::to_string(index);
  c.hw.cpu_max_clock_ghz *= rng.uniform(0.8, 1.2);
  c.hw.l3_cache_mb *= rng.uniform(0.8, 1.2);
  c.hw.mem_bw_gbs *= rng.uniform(0.8, 1.2);
  return c;
}

/// A message size whose table row is uniform over the 21 power-of-two
/// breakpoints 2^0..2^20: TuningTable::lookup answers a size from the first
/// row whose bound is at or above it, so row e holds (2^(e-1), 2^e].
std::uint64_t log_uniform_msg_bytes(SeededStream& rng) {
  const std::uint64_t e = rng.below(21);
  if (e == 0) return 1;
  const std::uint64_t half = std::uint64_t{1} << (e - 1);
  return half + 1 + rng.below(half);
}

}  // namespace

std::vector<SelectRequest> make_select_mix(std::uint64_t seed,
                                           std::size_t count) {
  const auto& clusters = pml::sim::builtin_clusters();
  const auto& collectives = pml::coll::paper_collectives();
  SeededStream rng(seed ^ 0x5e1ec7ULL);
  std::vector<SelectRequest> mix(count);
  for (SelectRequest& r : mix) {
    const pml::sim::ClusterSpec& c = pick(rng, clusters);
    r.cluster = c.name;
    r.collective = pick(rng, collectives);
    r.nodes = pick(rng, c.node_counts);
    r.ppn = pick(rng, c.ppn_values);
    r.msg_bytes = log_uniform_msg_bytes(rng);
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"op\":\"select\",\"cluster\":\"%s\",\"collective\":\"%s\","
                  "\"nodes\":%d,\"ppn\":%d,\"msg_bytes\":%llu}",
                  r.cluster.c_str(), pml::coll::to_string(r.collective).c_str(),
                  r.nodes, r.ppn, static_cast<unsigned long long>(r.msg_bytes));
    r.line = buf;
  }
  return mix;
}

std::vector<pml::sim::ClusterSpec> make_unseen_clusters(std::uint64_t seed,
                                                        std::size_t count) {
  std::vector<pml::sim::ClusterSpec> out;
  std::unordered_set<std::uint64_t> seen;
  for (const auto& builtin : pml::sim::builtin_clusters()) {
    seen.insert(builtin.hardware_fingerprint());
  }
  for (std::size_t i = 0; out.size() < count; ++i) {
    pml::sim::ClusterSpec c = make_unseen_cluster(seed, i);
    if (seen.insert(c.hardware_fingerprint()).second) out.push_back(std::move(c));
  }
  return out;
}

std::string table_request_line(const pml::sim::ClusterSpec& cluster) {
  return "{\"op\":\"table\",\"wait\":true,\"cluster\":" + cluster.to_json().dump() +
         "}";
}

std::vector<std::string> warm_request_lines() {
  std::vector<std::string> lines;
  for (const auto& c : pml::sim::builtin_clusters()) {
    lines.push_back("{\"op\":\"select\",\"wait\":true,\"cluster\":\"" + c.name +
                    "\",\"collective\":\"allgather\",\"nodes\":1,\"ppn\":1,"
                    "\"msg_bytes\":1}");
  }
  return lines;
}

}  // namespace perfbench
