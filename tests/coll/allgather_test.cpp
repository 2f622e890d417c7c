#include "coll/allgather.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <tuple>
#include <vector>

#include "coll/runner.hpp"
#include "common/error.hpp"
#include "sim/engine.hpp"
#include "sim/hardware.hpp"
#include "supported_sweep.hpp"

namespace pml::coll {
namespace {

const sim::ClusterSpec& frontera() { return sim::cluster_by_name("Frontera"); }

// ---- Correctness sweep over (algorithm, nodes, ppn, message size) ---------

class AllgatherCorrectness : public ::testing::TestWithParam<SweepCase> {};

TEST_P(AllgatherCorrectness, DeliversEveryBlockEverywhere) {
  const auto [algo, nodes, ppn, bytes] = GetParam();
  const RunResult r = run_collective(
      frontera(), sim::Topology{nodes, ppn}, algo,
      static_cast<std::uint64_t>(bytes));
  EXPECT_TRUE(r.verified);
  EXPECT_GE(r.seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllgatherCorrectness,
    ::testing::ValuesIn(supported_sweep(
        {Algorithm::kAgRecursiveDoubling, Algorithm::kAgRing,
         Algorithm::kAgBruck, Algorithm::kAgRdComm},
        {1, 2, 3}, {1, 2, 4, 5}, {1, 16, 1024})),
    [](const ::testing::TestParamInfo<SweepCase>& param_info) {
      return to_string(std::get<0>(param_info.param)) + "_n" +
             std::to_string(std::get<1>(param_info.param)) + "_p" +
             std::to_string(std::get<2>(param_info.param)) + "_b" +
             std::to_string(std::get<3>(param_info.param));
    });

// Non-power-of-two and prime world sizes (the generalised RD pre/post path).
class AllgatherAwkwardWorlds : public ::testing::TestWithParam<int> {};

TEST_P(AllgatherAwkwardWorlds, AllAlgorithmsCorrect) {
  const int p = GetParam();
  for (const Algorithm a : valid_algorithms(Collective::kAllgather, p)) {
    const RunResult r =
        run_collective(frontera(), sim::Topology{1, p}, a, 64);
    EXPECT_TRUE(r.verified) << display_name(a) << " p=" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Worlds, AllgatherAwkwardWorlds,
                         ::testing::Values(1, 2, 3, 5, 6, 7, 9, 11, 12, 13,
                                           24, 30));

// ---- Schedule-structure properties ----------------------------------------

/// The blocks of rd_owned_blocks' two runs, in order.
std::vector<int> owned(int rank, int step, int world) {
  std::vector<int> blocks;
  for (const BlockRun run : rd_owned_blocks(rank, step, world)) {
    EXPECT_GE(run.size(), 0);
    for (int b = run.begin; b < run.end; ++b) blocks.push_back(b);
  }
  return blocks;
}

/// Requests one timing-only engine run of `algorithm` posts on 1 x p.
std::size_t posted_requests(Algorithm algorithm, int p) {
  sim::Engine engine(frontera(), sim::Topology{1, p},
                     {.payload = sim::PayloadMode::kTimingOnly});
  std::vector<std::byte> buf(static_cast<std::size_t>(p) * 8);
  engine.run([&](int rank) {
    return run_allgather(algorithm, sim::Comm(engine, rank),
                         std::span<const std::byte>(buf).first(8), buf);
  });
  return engine.posted_requests();
}

TEST(RdOwnedBlocks, StartsWithOwnAndProxyBlocks) {
  // p=6: pow2 group {0..3}, extras {4, 5} parked at ranks {0, 1}.
  EXPECT_EQ(owned(0, 0, 6), (std::vector<int>{0, 4}));
  EXPECT_EQ(owned(1, 0, 6), (std::vector<int>{1, 5}));
  EXPECT_EQ(owned(2, 0, 6), (std::vector<int>{2}));
  EXPECT_EQ(rd_owned_blocks(2, 0, 6)[1].size(), 0);
  EXPECT_THROW(rd_owned_blocks(4, 0, 6), SimError);
}

TEST(RdOwnedBlocks, FinalStepOwnsEverything) {
  for (const int p : {4, 6, 8, 12}) {
    const int m = floor_log2(p);
    for (int r = 0; r < (1 << m); ++r) {
      const auto blocks = owned(r, m, p);
      ASSERT_EQ(static_cast<int>(blocks.size()), p) << "p=" << p;
      for (int b = 0; b < p; ++b) EXPECT_EQ(blocks[static_cast<std::size_t>(b)], b);
    }
  }
}

TEST(RdOwnedBlocks, PartnersHaveDisjointSets) {
  for (const int p : {6, 8, 12, 13}) {
    const int m = floor_log2(p);
    for (int k = 0; k < m; ++k) {
      for (int r = 0; r < (1 << m); ++r) {
        const int partner = r ^ (1 << k);
        const auto mine = owned(r, k, p);
        const auto theirs = owned(partner, k, p);
        ASSERT_TRUE(std::is_sorted(mine.begin(), mine.end()));
        std::vector<int> inter;
        std::set_intersection(mine.begin(), mine.end(), theirs.begin(),
                              theirs.end(), std::back_inserter(inter));
        EXPECT_TRUE(inter.empty()) << "p=" << p << " k=" << k << " r=" << r;
        // One step later each side owns the union of both sets.
        std::vector<int> both;
        std::set_union(mine.begin(), mine.end(), theirs.begin(), theirs.end(),
                       std::back_inserter(both));
        EXPECT_EQ(owned(r, k + 1, p), both) << "p=" << p << " k=" << k;
      }
    }
  }
}

TEST(NeighborExchangePlan, RequiresEvenWorld) {
  EXPECT_THROW(neighbor_step(0, 0, 5), SimError);
  EXPECT_THROW(run_collective(frontera(), sim::Topology{1, 5},
                              Algorithm::kAgRdComm, 8),
               SimError);
}

TEST(NeighborExchangePlan, StepCountIsHalfWorld) {
  for (const int p : {2, 4, 6, 10, 16}) {
    for (int r = 0; r < p; ++r) {
      EXPECT_NO_THROW(neighbor_step(r, p / 2 - 1, p));
      EXPECT_THROW(neighbor_step(r, p / 2, p), SimError);
    }
    // p/2 sendrecv steps per rank, each one send and one receive.
    EXPECT_EQ(posted_requests(Algorithm::kAgRdComm, p),
              static_cast<std::size_t>(p * p))
        << "p=" << p;
  }
}

TEST(NeighborExchangePlan, PartnersAreMutualEachStep) {
  for (const int p : {4, 6, 12}) {
    for (int s = 0; s < p / 2; ++s) {
      for (int r = 0; r < p; ++r) {
        const NeighborStep st = neighbor_step(r, s, p);
        const NeighborStep back = neighbor_step(st.partner, s, p);
        EXPECT_EQ(back.partner, r);
        // What I receive is exactly what the partner sends.
        EXPECT_EQ(st.recv_block, back.send_block);
        EXPECT_EQ(st.chunk_blocks, back.chunk_blocks);
        // From step 1 on a rank forwards the chunk it received last.
        if (s > 0) {
          EXPECT_EQ(st.send_block,
                    s == 1 ? r - r % 2 : neighbor_step(r, s - 1, p).recv_block);
        }
      }
    }
  }
}

TEST(NeighborExchangePlan, CoversAllBlocks) {
  for (const int p : {2, 4, 6, 8, 14}) {
    for (int r = 0; r < p; ++r) {
      std::vector<bool> have(static_cast<std::size_t>(p), false);
      have[static_cast<std::size_t>(r)] = true;
      for (int s = 0; s < p / 2; ++s) {
        const NeighborStep st = neighbor_step(r, s, p);
        for (int b = 0; b < st.chunk_blocks; ++b) {
          have[static_cast<std::size_t>(st.recv_block + b)] = true;
        }
      }
      EXPECT_TRUE(std::all_of(have.begin(), have.end(), [](bool x) { return x; }))
          << "p=" << p << " rank=" << r;
    }
  }
}

// ---- Performance-shape sanity ----------------------------------------------

TEST(AllgatherShape, RingBeatsRecursiveDoublingAtLargeMessagesMultiNode) {
  // Ring enters each node once per block; RD pushes ppn concurrent flows
  // through the NIC on its top steps. At 256 KiB blocks ring must win.
  const sim::Topology topo{4, 8};
  const auto ring =
      run_collective(frontera(), topo, Algorithm::kAgRing, 256 << 10);
  const auto rd = run_collective(frontera(), topo,
                                 Algorithm::kAgRecursiveDoubling, 256 << 10);
  EXPECT_LT(ring.seconds, rd.seconds);
}

TEST(AllgatherShape, LogAlgorithmsBeatRingAtSmallMessages) {
  const sim::Topology topo{4, 8};
  const auto ring = run_collective(frontera(), topo, Algorithm::kAgRing, 4);
  const auto rd =
      run_collective(frontera(), topo, Algorithm::kAgRecursiveDoubling, 4);
  const auto bruck = run_collective(frontera(), topo, Algorithm::kAgBruck, 4);
  EXPECT_LT(rd.seconds, ring.seconds);
  EXPECT_LT(bruck.seconds, ring.seconds);
}

TEST(AllgatherShape, TimeGrowsWithMessageSize) {
  const sim::Topology topo{2, 4};
  for (const Algorithm a : algorithms_for(Collective::kAllgather)) {
    const auto small = run_collective(frontera(), topo, a, 8);
    const auto large = run_collective(frontera(), topo, a, 64 << 10);
    EXPECT_LT(small.seconds, large.seconds) << display_name(a);
  }
}

TEST(AllgatherShape, SingleRankIsInstant) {
  for (const Algorithm a : algorithms_for(Collective::kAllgather)) {
    const auto r = run_collective(frontera(), sim::Topology{1, 1}, a, 1024);
    EXPECT_TRUE(r.verified);
    EXPECT_LT(r.seconds, 1e-4) << display_name(a);
  }
}

}  // namespace
}  // namespace pml::coll
