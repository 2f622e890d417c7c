// Tests for the leader-based hierarchical collective schedules: payload
// correctness across topologies and selections, exact flat-path equality
// of run_selection vs run_collective, hierarchy-model behaviour, and the
// win condition (a leader schedule beating every flat algorithm on
// multi-node high-PPN grids).
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <tuple>

#include "coll/cost.hpp"
#include "coll/hierarchical.hpp"
#include "coll/runner.hpp"
#include "coll/selection.hpp"
#include "common/error.hpp"
#include "sim/hardware.hpp"

namespace pml::coll {
namespace {

const sim::ClusterSpec& frontera() { return sim::cluster_by_name("Frontera"); }

using HierCase =
    std::tuple<int /*space index*/, Collective, int /*nodes*/, int /*ppn*/,
               int /*bytes*/>;

class HierCorrectness
    : public ::testing::TestWithParam<std::tuple<Collective, int, int, int>> {};

TEST_P(HierCorrectness, EveryLeaderSelectionVerifies) {
  const auto [coll, nodes, ppn, bytes] = GetParam();
  const sim::Topology topo{nodes, ppn};
  int ran = 0;
  for (const Selection& s : selection_space(coll)) {
    if (!s.hierarchical() || !selection_supports(s, topo)) continue;
    const RunResult r = run_selection(frontera(), topo, s,
                                      static_cast<std::uint64_t>(bytes));
    EXPECT_TRUE(r.verified) << s.encode();
    EXPECT_GE(r.seconds, 0.0) << s.encode();
    ++ran;
  }
  EXPECT_GT(ran, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HierCorrectness,
    ::testing::Combine(::testing::Values(Collective::kAllgather,
                                         Collective::kAlltoall,
                                         Collective::kAllreduce,
                                         Collective::kBcast),
                       ::testing::Values(2, 3, 4),
                       ::testing::Values(2, 3, 4),
                       ::testing::Values(1, 16, 4096)),
    [](const auto& param_info) {
      return to_string(std::get<0>(param_info.param)) + "_n" +
             std::to_string(std::get<1>(param_info.param)) + "_p" +
             std::to_string(std::get<2>(param_info.param)) + "_b" +
             std::to_string(std::get<3>(param_info.param));
    });

TEST(HierCorrectness, LargePayloadHighPpn) {
  const sim::Topology topo{2, 8};
  for (const Collective c : all_collectives()) {
    for (const Selection& s : selection_space(c)) {
      if (!s.hierarchical() || !selection_supports(s, topo)) continue;
      const RunResult r = run_selection(frontera(), topo, s, 100000);
      EXPECT_TRUE(r.verified) << s.encode();
    }
  }
}

TEST(RunSelection, FlatPathBitIdenticalToRunCollective) {
  // run_selection(flat(a)) and run_collective(a) must take the same code
  // path event for event: exact double equality, per algorithm.
  for (const sim::Topology topo :
       {sim::Topology{2, 4}, sim::Topology{1, 6}, sim::Topology{3, 3}}) {
    for (const Collective c : all_collectives()) {
      for (const Algorithm a : valid_algorithms(c, topo.world_size())) {
        for (const std::uint64_t bytes : {16u, 8192u}) {
          const double flat =
              run_collective(frontera(), topo, a, bytes).seconds;
          const double sel =
              run_selection(frontera(), topo, Selection::flat(a), bytes)
                  .seconds;
          EXPECT_EQ(flat, sel) << to_string(c) << ":" << to_string(a);
        }
      }
    }
  }
}

TEST(RunSelection, RejectsUnsupportedSelection) {
  const Selection s =
      Selection::leader(Algorithm::kAgRing, Algorithm::kBcBinomial);
  EXPECT_THROW(run_selection(frontera(), sim::Topology{1, 8}, s, 64),
               SimError);
  EXPECT_THROW(run_selection(frontera(), sim::Topology{4, 1}, s, 64),
               SimError);
}

TEST(RunSelection, HierarchyModelChangesIntraTimes) {
  // Enabling the hierarchy tier model on a NUMA cluster must change the
  // virtual time of an intra-node-heavy schedule, and stay deterministic.
  const sim::Topology topo{2, 8};
  sim::SimOptions flat_opts;
  flat_opts.payload = sim::PayloadMode::kTimingOnly;
  sim::SimOptions hier_opts = flat_opts;
  hier_opts.hierarchy = sim::HierarchySpec::from_cluster(frontera());

  const Selection s =
      Selection::leader(Algorithm::kAgRing, Algorithm::kBcBinomial);
  const double base =
      run_selection(frontera(), topo, s, 4096, flat_opts).seconds;
  const double hier =
      run_selection(frontera(), topo, s, 4096, hier_opts).seconds;
  const double hier2 =
      run_selection(frontera(), topo, s, 4096, hier_opts).seconds;
  EXPECT_NE(base, hier);
  EXPECT_EQ(hier, hier2);

  // An empty-hierarchy spec is the exact flat engine.
  sim::SimOptions disabled = flat_opts;
  disabled.hierarchy = sim::HierarchySpec{};
  EXPECT_EQ(base,
            run_selection(frontera(), topo, s, 4096, disabled).seconds);
}

TEST(HierWins, LeaderBeatsEveryFlatAlgorithmOnMultiNodeHighPpn) {
  // Acceptance: on at least two multi-node x high-PPN Table-I grids some
  // hierarchical variant out-simulates the best flat algorithm. High PPN
  // multiplies flat NIC flows; leader schedules keep one flow per node.
  sim::SimOptions opts;
  opts.payload = sim::PayloadMode::kTimingOnly;
  int grids_with_win = 0;
  for (const sim::Topology topo : {sim::Topology{4, 16}, sim::Topology{8, 16},
                                   sim::Topology{4, 32}}) {
    bool win = false;
    for (const Collective c :
         {Collective::kAllgather, Collective::kBcast, Collective::kAllreduce}) {
      double best_flat = std::numeric_limits<double>::infinity();
      double best_hier = std::numeric_limits<double>::infinity();
      for (const Selection& s : valid_selections(c, topo)) {
        const double t =
            run_selection(frontera(), topo, s, 65536, opts).seconds;
        (s.hierarchical() ? best_hier : best_flat) =
            std::min(s.hierarchical() ? best_hier : best_flat, t);
      }
      if (best_hier < best_flat) win = true;
    }
    if (win) ++grids_with_win;
  }
  EXPECT_GE(grids_with_win, 2);
}

TEST(HierCost, AnalyticSelectionCostsAreFiniteAndRankFlat) {
  // The analytic selection cost must agree with the flat analytic path on
  // the flat prefix and produce finite positive costs for leader entries.
  const sim::Topology topo{4, 8};
  const sim::NetworkModel model(frontera(), topo);
  for (const Collective c : all_collectives()) {
    for (const Selection& s : valid_selections(c, topo)) {
      const double cost = analytic_cost(frontera(), topo, s, 4096);
      EXPECT_GT(cost, 0.0) << s.encode();
      EXPECT_TRUE(std::isfinite(cost)) << s.encode();
      if (!s.hierarchical()) {
        EXPECT_EQ(cost, analytic_cost(model, s.algorithm, 4096));
      }
    }
  }
  EXPECT_THROW(
      analytic_cost(frontera(), sim::Topology{1, 4},
                    Selection::leader(Algorithm::kAgRing,
                                      Algorithm::kBcBinomial),
                    64),
      SimError);
}

}  // namespace
}  // namespace pml::coll
