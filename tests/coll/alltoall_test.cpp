#include "coll/alltoall.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
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
const sim::ClusterSpec& mri() { return sim::cluster_by_name("MRI"); }

// ---- Correctness sweep ------------------------------------------------------

class AlltoallCorrectness : public ::testing::TestWithParam<SweepCase> {};

TEST_P(AlltoallCorrectness, RoutesEveryBlockToItsDestination) {
  const auto [algo, nodes, ppn, bytes] = GetParam();
  const RunResult r = run_collective(
      frontera(), sim::Topology{nodes, ppn}, algo,
      static_cast<std::uint64_t>(bytes));
  EXPECT_TRUE(r.verified);
  EXPECT_GE(r.seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AlltoallCorrectness,
    ::testing::ValuesIn(supported_sweep(
        {Algorithm::kAaBruck, Algorithm::kAaScatterDest, Algorithm::kAaPairwise,
         Algorithm::kAaRecursiveDoubling, Algorithm::kAaInplace},
        {1, 2, 3}, {1, 2, 4, 5}, {1, 16, 512})),
    [](const ::testing::TestParamInfo<SweepCase>& param_info) {
      return to_string(std::get<0>(param_info.param)) + "_n" +
             std::to_string(std::get<1>(param_info.param)) + "_p" +
             std::to_string(std::get<2>(param_info.param)) + "_b" +
             std::to_string(std::get<3>(param_info.param));
    });

class AlltoallAwkwardWorlds : public ::testing::TestWithParam<int> {};

TEST_P(AlltoallAwkwardWorlds, AllValidAlgorithmsCorrect) {
  const int p = GetParam();
  for (const Algorithm a : valid_algorithms(Collective::kAlltoall, p)) {
    const RunResult r = run_collective(frontera(), sim::Topology{1, p}, a, 32);
    EXPECT_TRUE(r.verified) << display_name(a) << " p=" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Worlds, AlltoallAwkwardWorlds,
                         ::testing::Values(1, 2, 3, 5, 7, 8, 11, 12, 16, 24));

// ---- Store-and-forward routing properties ----------------------------------
// The schedule keeps this invariant: before step k, slot s of rank r holds
// the block with destination (s's bits >= k | r's bits < k) and origin
// (s's bits < k | r's bits >= k). Step k packs, in ascending order, the p/2
// slots whose bit k differs from r's, sends them to r ^ 2^k, and unpacks
// the partner's blocks into the same slots in the same order.

struct Held {
  int dest;
  int origin;
  friend bool operator==(const Held&, const Held&) = default;
};

Held held(int rank, int slot, int k) {
  const int low = (1 << k) - 1;
  return {(slot & ~low) | (rank & low), (slot & low) | (rank & ~low)};
}

std::vector<int> moving_slots(int rank, int k, int p) {
  std::vector<int> slots;
  for (int s = 0; s < p; ++s) {
    if ((s & (1 << k)) != (~rank & (1 << k))) continue;
    slots.push_back(s);
  }
  return slots;
}

/// Requests one timing-only engine run of `algorithm` posts on 1 x p.
std::size_t posted_requests(Algorithm algorithm, int p) {
  sim::Engine engine(frontera(), sim::Topology{1, p},
                     {.payload = sim::PayloadMode::kTimingOnly});
  std::vector<std::byte> buf(static_cast<std::size_t>(p) * 8);
  engine.run([&](int rank) {
    return run_alltoall(algorithm, sim::Comm(engine, rank), buf, buf);
  });
  return engine.posted_requests();
}

TEST(AlltoallRdPlan, RejectsNonPowerOfTwo) {
  for (const int p : {6, 12}) {
    EXPECT_THROW(run_collective(frontera(), sim::Topology{1, p},
                                Algorithm::kAaRecursiveDoubling, 8),
                 SimError)
        << "p=" << p;
  }
}

TEST(AlltoallRdPlan, StepAndVolumeCounts) {
  for (const int p : {2, 4, 8, 16}) {
    // log2(p) sendrecv steps per rank, each one send and one receive.
    EXPECT_EQ(posted_requests(Algorithm::kAaRecursiveDoubling, p),
              static_cast<std::size_t>(2 * p * floor_log2(p)));
    for (int r = 0; r < p; ++r) {
      for (int k = 0; k < floor_log2(p); ++k) {
        // Each step forwards exactly half of the p held blocks.
        EXPECT_EQ(moving_slots(r, k, p).size(), static_cast<std::size_t>(p / 2));
      }
    }
  }
}

TEST(AlltoallRdPlan, SendAndRecvSetsMirror) {
  for (const int p : {2, 8, 16}) {
    const int m = floor_log2(p);
    for (int r = 0; r < p; ++r) {
      for (int k = 0; k < m; ++k) {
        const int partner = r ^ (1 << k);
        const auto mine = moving_slots(r, k, p);
        const auto theirs = moving_slots(partner, k, p);
        ASSERT_EQ(mine.size(), theirs.size());
        // What lands in my i-th moved slot is the partner's i-th packed
        // block, and it is what the invariant puts there for step k + 1.
        for (std::size_t i = 0; i < mine.size(); ++i) {
          EXPECT_EQ(held(partner, theirs[i], k), held(r, mine[i], k + 1))
              << "p=" << p << " r=" << r << " k=" << k;
        }
        // Slots that stay already hold their step-(k + 1) blocks.
        for (int s = 0; s < p; ++s) {
          if (std::find(mine.begin(), mine.end(), s) != mine.end()) continue;
          EXPECT_EQ(held(r, s, k), held(r, s, k + 1));
        }
      }
      // After the last step slot o holds origin o's block for r.
      for (int o = 0; o < p; ++o) EXPECT_EQ(held(r, o, m), (Held{r, o}));
    }
  }
}

TEST(AlltoallRdPlan, ForwardedBlocksMoveTowardDestination) {
  const int p = 16;
  for (int r = 0; r < p; ++r) {
    for (int k = 0; k < floor_log2(p); ++k) {
      const int bit = 1 << k;
      const int partner = r ^ bit;
      for (const int s : moving_slots(r, k, p)) {
        // A forwarded block's destination lies in the partner's half.
        EXPECT_EQ(held(r, s, k).dest & bit, partner & bit);
      }
    }
  }
}

// ---- Performance-shape sanity ----------------------------------------------

TEST(AlltoallShape, PairwiseBeatsBruckAtLargeMessages) {
  // Bruck forwards each byte ~log(p)/2 times; pairwise moves it once.
  const sim::Topology topo{2, 8};
  const auto bruck =
      run_collective(frontera(), topo, Algorithm::kAaBruck, 64 << 10);
  const auto pairwise =
      run_collective(frontera(), topo, Algorithm::kAaPairwise, 64 << 10);
  EXPECT_LT(pairwise.seconds, bruck.seconds);
}

TEST(AlltoallShape, BruckCompetitiveAtTinyMessages) {
  // log(p) rounds vs p-1 rounds: Bruck must beat pairwise at 1-byte blocks.
  const sim::Topology topo{2, 8};
  const auto bruck = run_collective(frontera(), topo, Algorithm::kAaBruck, 1);
  const auto pairwise =
      run_collective(frontera(), topo, Algorithm::kAaPairwise, 1);
  EXPECT_LT(bruck.seconds, pairwise.seconds);
}

TEST(AlltoallShape, InplaceSlowerThanPairwise) {
  const sim::Topology topo{2, 4};
  const auto inplace =
      run_collective(frontera(), topo, Algorithm::kAaInplace, 1024);
  const auto pairwise =
      run_collective(frontera(), topo, Algorithm::kAaPairwise, 1024);
  EXPECT_GT(inplace.seconds, pairwise.seconds);
}

TEST(AlltoallShape, TimeGrowsWithMessageSize) {
  const sim::Topology topo{2, 4};
  for (const Algorithm a : algorithms_for(Collective::kAlltoall)) {
    const auto small = run_collective(frontera(), topo, a, 8);
    const auto large = run_collective(frontera(), topo, a, 32 << 10);
    EXPECT_LT(small.seconds, large.seconds) << display_name(a);
  }
}

TEST(AlltoallShape, FasterNetworkHelpsLargeAlltoall) {
  // MRI's HDR+PCIe4 NIC moves the alltoall bandwidth term faster than
  // Frontera's EDR at the same topology and message size.
  const sim::Topology topo{2, 8};
  const auto f =
      run_collective(frontera(), topo, Algorithm::kAaPairwise, 128 << 10);
  const auto m = run_collective(mri(), topo, Algorithm::kAaPairwise, 128 << 10);
  EXPECT_LT(m.seconds, f.seconds);
}

TEST(AlltoallShape, SingleRankIsInstant) {
  for (const Algorithm a : algorithms_for(Collective::kAlltoall)) {
    const auto r = run_collective(frontera(), sim::Topology{1, 1}, a, 4096);
    EXPECT_TRUE(r.verified);
    EXPECT_LT(r.seconds, 1e-4) << display_name(a);
  }
}

TEST(AlltoallShape, ZeroByteBlocksStillComplete) {
  for (const Algorithm a : valid_algorithms(Collective::kAlltoall, 8)) {
    const auto r = run_collective(frontera(), sim::Topology{2, 4}, a, 0);
    EXPECT_TRUE(r.verified) << display_name(a);
  }
}

}  // namespace
}  // namespace pml::coll
