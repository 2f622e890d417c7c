// Shared helpers for the experiment-reproduction benches.
//
// Every bench binary regenerates one table or figure of the paper. The
// helpers here centralise the evaluation protocol:
//  - leave-cluster-out training (the paper excludes the cluster under
//    evaluation from the training set, §VII-C),
//  - noisy point evaluation where every algorithm's time at a benchmark
//    point is drawn once and shared across selectors (so two selectors
//    picking the same algorithm see the same "network conditions", as the
//    paper notes about identical choices),
//  - percentage / ratio formatting.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "coll/cost.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/framework.hpp"
#include "core/selectors.hpp"
#include "ml/metrics.hpp"
#include "sim/network.hpp"

namespace pml::bench {

/// All Table-I clusters except those named (leave-cluster-out protocol).
inline std::vector<sim::ClusterSpec> clusters_except(
    std::initializer_list<const char*> excluded) {
  std::vector<sim::ClusterSpec> out;
  for (const auto& c : sim::builtin_clusters()) {
    bool skip = false;
    for (const char* name : excluded) skip = skip || c.name == name;
    if (!skip) out.push_back(c);
  }
  return out;
}

/// Per-candidate noisy times at one benchmark point (shared across
/// selectors). Index matches coll::selection_space(collective) — the flat
/// prefix draws its jitter first, so flat times are unchanged from the v1
/// label space; +inf = invalid at this topology.
inline std::vector<double> point_times(const sim::ClusterSpec& cluster,
                                       sim::Topology topo,
                                       coll::Collective collective,
                                       std::uint64_t msg_bytes,
                                       std::uint64_t seed,
                                       double noise_sigma = 0.015,
                                       int iterations = 3) {
  const sim::NetworkModel model(cluster, topo);
  const auto& space = coll::selection_space(collective);
  std::uint64_t material = seed;
  material ^= msg_bytes * std::uint64_t{0x9e3779b97f4a7c15ULL};
  material ^= static_cast<std::uint64_t>(topo.nodes) << 32;
  material ^= static_cast<std::uint64_t>(topo.ppn);
  Rng rng(splitmix64(material));
  std::vector<double> times(space.size(),
                            std::numeric_limits<double>::infinity());
  for (std::size_t a = 0; a < space.size(); ++a) {
    if (!coll::selection_supports(space[a], topo)) continue;
    times[a] = space[a].hierarchical()
                   ? coll::measured_cost(cluster, topo, space[a], msg_bytes,
                                         iterations, rng, noise_sigma)
                   : coll::measured_cost(model, space[a].algorithm, msg_bytes,
                                         iterations, rng, noise_sigma);
  }
  return times;
}

/// Time of the selection a selector picks, read from shared point times.
inline double selector_time(core::Selector& selector,
                            const sim::ClusterSpec& cluster,
                            sim::Topology topo, coll::Collective collective,
                            std::uint64_t msg_bytes,
                            const std::vector<double>& times) {
  const coll::Selection choice =
      selector.select(collective, cluster, topo, msg_bytes);
  const auto& space = coll::selection_space(collective);
  for (std::size_t a = 0; a < space.size(); ++a) {
    if (space[a] == choice) return times[a];
  }
  throw ConfigError("selector returned an unknown selection");
}

/// The random and oracle baselines at one benchmark point, scored from its
/// shared point_times over the flat prefix of the selection space
/// (coll::algorithms_for(collective)): the label space of the flat models
/// the benches train (default_train_options()), so a baseline draws from
/// the same candidates the model ranks.
struct FlatBaselines {
  double random_expected;  ///< mean time of a uniform draw among valid ones
  double random_worst;     ///< slowest valid candidate (a draw users hit)
  double oracle;           ///< fastest measured (exhaustive micro-benchmark)
};

inline FlatBaselines flat_baselines(coll::Collective collective,
                                    const std::vector<double>& times) {
  const std::size_t flat = coll::algorithms_for(collective).size();
  FlatBaselines out{0.0, 0.0, std::numeric_limits<double>::infinity()};
  int valid = 0;
  for (std::size_t a = 0; a < flat; ++a) {
    const double t = times[a];
    if (!std::isfinite(t)) continue;
    out.random_expected += t;
    out.random_worst = std::max(out.random_worst, t);
    out.oracle = std::min(out.oracle, t);
    ++valid;
  }
  if (valid == 0) throw ConfigError("flat_baselines: no valid algorithm");
  out.random_expected /= valid;
  return out;
}

/// "+36.6%" / "-5.6%" style percentage of baseline vs candidate.
inline std::string percent_faster(double baseline, double candidate) {
  const double pct = (baseline / candidate - 1.0) * 100.0;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%+.1f%%", pct);
  return buf;
}

/// Geometric-mean ratio of baseline/candidate over a series.
inline double geomean_ratio(const std::vector<double>& baseline,
                            const std::vector<double>& candidate) {
  if (baseline.size() != candidate.size() || baseline.empty()) {
    throw ConfigError("geomean_ratio: size mismatch");
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    acc += std::log(baseline[i] / candidate[i]);
  }
  return std::exp(acc / static_cast<double>(baseline.size()));
}

/// The standard PML training configuration used across benches.
inline core::TrainOptions default_train_options() {
  return core::TrainOptions{};
}

/// Print a per-message-size comparison of two selectors on one
/// (cluster, topology, collective) series and return the geometric-mean
/// baseline/candidate ratio (>1 means the candidate is faster).
inline double print_comparison(const std::string& title,
                               const sim::ClusterSpec& cluster,
                               sim::Topology topo,
                               coll::Collective collective,
                               core::Selector& candidate,
                               core::Selector& baseline,
                               std::uint64_t max_msg = 1u << 20,
                               std::uint64_t seed = 17) {
  TextTable table({"msg size", candidate.name(), "time", baseline.name(),
                   "time", "speedup"});
  table.set_title(title);
  std::vector<double> cand_times;
  std::vector<double> base_times;
  for (std::uint64_t msg = 1; msg <= max_msg; msg <<= 1) {
    const auto times = point_times(cluster, topo, collective, msg, seed);
    const coll::Selection ca = candidate.select(collective, cluster, topo, msg);
    const coll::Selection ba = baseline.select(collective, cluster, topo, msg);
    const double ct = selector_time(candidate, cluster, topo, collective, msg, times);
    const double bt = selector_time(baseline, cluster, topo, collective, msg, times);
    cand_times.push_back(ct);
    base_times.push_back(bt);
    table.add_row({format_bytes(msg), ca.encode(), format_time(ct),
                   ba.encode(), format_time(bt),
                   percent_faster(bt, ct)});
  }
  const double geo = geomean_ratio(base_times, cand_times);
  std::printf("%s", table.str().c_str());
  std::printf("Geomean speedup of %s over %s: %+.1f%%\n\n",
              candidate.name().c_str(), baseline.name().c_str(),
              (geo - 1.0) * 100.0);
  return geo;
}

}  // namespace pml::bench
