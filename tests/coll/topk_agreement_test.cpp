// Analytic/engine rank agreement: the safety margin the dataset builder's
// pruning layer rests on (core::BuildOptions::prune_topk). For every
// Table-I cluster at small configurations, the noise-free engine argmin
// must sit inside the analytic top-k for the default k=3 — measured as the
// *strict* analytic rank (algorithms strictly cheaper than the argmin),
// which is exactly the builder's tie-inclusive keep rule: an algorithm is
// measured iff fewer than k rivals are strictly cheaper.
//
// Documentation of the observed margin (2026-08, this engine/model pair):
//   - worst strict rank over this matrix at p >= core::kPruneWorldFloor: 2
//   - at the degenerate p=2 worlds (2 nodes x ppn 1) rank 4 appears — every
//     alltoall is one exchange there and the analytic ordering is
//     meaningless, which is exactly why the builder never prunes below
//     kPruneWorldFloor (those cells are asserted exempt here);
//   - rank 3 first appears at p = 128 — beyond this matrix and the bench
//     reference grid, which is why bench/sweep_pruning pins p <= 64.
// If this test starts failing after a cost-model change, re-derive the
// margin before touching prune_topk's default.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "coll/cost.hpp"
#include "coll/runner.hpp"
#include "core/dataset_builder.hpp"
#include "sim/hardware.hpp"

namespace pml::coll {
namespace {

/// Strict analytic rank of the engine argmin: how many valid algorithms
/// the closed-form model prices strictly below it.
int strict_rank_of_engine_argmin(const sim::ClusterSpec& cluster,
                                 const sim::Topology& topo,
                                 Collective collective,
                                 std::uint64_t bytes) {
  const sim::NetworkModel model(cluster, topo);
  const auto algorithms = valid_algorithms(collective, topo.world_size());
  double best = std::numeric_limits<double>::infinity();
  std::size_t argmin = 0;
  std::vector<double> analytic(algorithms.size());
  for (std::size_t i = 0; i < algorithms.size(); ++i) {
    sim::SimOptions options;
    options.payload = sim::PayloadMode::kTimingOnly;  // noise-free
    const double seconds =
        run_collective(cluster, topo, algorithms[i], bytes, options).seconds;
    analytic[i] = analytic_cost(model, algorithms[i], bytes);
    if (seconds < best) {
      best = seconds;
      argmin = i;
    }
  }
  int rank = 0;
  for (const double cost : analytic) rank += cost < analytic[argmin];
  return rank;
}

TEST(TopKAgreement, AnalyticTop3ContainsEngineArgminOnAllClusters) {
  // Matches core::BuildOptions{}.prune_topk: the default must be safe on
  // every built-in cluster at these world sizes.
  constexpr int kDefaultTopK = 3;
  constexpr int kWorstObservedRank = 2;

  int worst = 0;
  const auto clusters = sim::builtin_clusters();
  ASSERT_EQ(clusters.size(), 18u);  // all of Table I
  for (const auto& cluster : clusters) {
    // Smallest sweep ppn that still fits the per-node hardware, capped at
    // 8 so every world stays small (p <= 32: the engine is O(messages)).
    int ppn = 0;
    for (const int candidate : cluster.ppn_values) {
      if (candidate <= 8 && (ppn == 0 || candidate < ppn)) ppn = candidate;
    }
    if (ppn == 0) ppn = 4;
    for (const int nodes : {2, 4}) {
      const sim::Topology topo{nodes, ppn};
      for (const auto collective :
           {Collective::kAllgather, Collective::kAlltoall}) {
        for (const std::uint64_t bytes : {64ull, 4096ull, 262144ull}) {
          const int rank =
              strict_rank_of_engine_argmin(cluster, topo, collective, bytes);
          // Below the floor the builder never prunes, so containment is
          // only required (and only holds) at p >= kPruneWorldFloor.
          if (topo.world_size() < core::kPruneWorldFloor) continue;
          EXPECT_LT(rank, kDefaultTopK)
              << cluster.name << " nodes=" << nodes << " ppn=" << ppn
              << " " << to_string(collective) << " bytes=" << bytes;
          worst = rank > worst ? rank : worst;
        }
      }
    }
  }
  // Documented margin; a drop is fine, growth needs investigation.
  EXPECT_EQ(worst, kWorstObservedRank);
}

}  // namespace
}  // namespace pml::coll
