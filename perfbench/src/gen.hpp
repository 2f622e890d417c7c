// Seeded input generators. The benchmark owns its random stream (a plain
// splitmix64), so the inputs depend only on --seed and never on the random
// number code of the program under test.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "coll/collective.hpp"
#include "sim/hardware.hpp"

namespace perfbench {

/// splitmix64 stream: small, fast and identical on every platform.
class SeededStream {
 public:
  explicit SeededStream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n);
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

 private:
  std::uint64_t state_;
};

/// One cached-select request of the select_hot mix.
struct SelectRequest {
  std::string cluster;  ///< a builtin Table-I name
  pml::coll::Collective collective = pml::coll::Collective::kAllgather;
  int nodes = 1;
  int ppn = 1;
  std::uint64_t msg_bytes = 0;
  std::string line;  ///< the request as sent, without the newline
};

/// `count` select requests drawn from all 18 builtin clusters, the paper's
/// two collectives, each cluster's own node and ppn grid, and message sizes
/// in [1, 2^20] bytes drawn log-uniformly: a uniform power-of-two octave,
/// then a uniform size within it, so each of the 21 table rows is equally
/// likely and most sizes fall between breakpoints.
std::vector<SelectRequest> make_select_mix(std::uint64_t seed,
                                           std::size_t count);

/// `count` clusters nobody has seen, with pairwise distinct hardware
/// fingerprints that also differ from every builtin cluster's. Each is a
/// Table-I spec with CPU clock, L3 size and memory bandwidth scaled by
/// seeded factors in [0.8, 1.2), renamed "unseen-<seed>-<index>"; the
/// grids stay those of the base cluster. An index whose fingerprint
/// repeats an earlier one is skipped.
std::vector<pml::sim::ClusterSpec> make_unseen_clusters(std::uint64_t seed,
                                                        std::size_t count);

/// {"op":"table","wait":true,"cluster":<inline spec>}
std::string table_request_line(const pml::sim::ClusterSpec& cluster);

/// {"op":"select","wait":true,...} for every builtin cluster: one request
/// per cluster compiles and caches its table under the default sweep.
std::vector<std::string> warm_request_lines();

}  // namespace perfbench
