#include "coll/alltoall.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "coll/runner.hpp"
#include "common/error.hpp"
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

// ---- Store-and-forward plan properties -------------------------------------

TEST(AlltoallRdPlan, RejectsNonPowerOfTwo) {
  EXPECT_THROW(alltoall_rd_plan(6), SimError);
  EXPECT_THROW(alltoall_rd_plan(12), SimError);
}

TEST(AlltoallRdPlan, StepAndVolumeCounts) {
  for (const int p : {2, 4, 8, 16}) {
    const auto plan = alltoall_rd_plan(p);
    ASSERT_EQ(plan.size(), static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      const auto& steps = plan[static_cast<std::size_t>(r)];
      ASSERT_EQ(static_cast<int>(steps.size()), floor_log2(p));
      for (const auto& st : steps) {
        // Each step forwards exactly half of the p held blocks.
        EXPECT_EQ(st.send_blocks.size(), static_cast<std::size_t>(p / 2));
        EXPECT_EQ(st.recv_blocks.size(), static_cast<std::size_t>(p / 2));
      }
    }
  }
}

TEST(AlltoallRdPlan, SendAndRecvSetsMirror) {
  const int p = 8;
  const auto plan = alltoall_rd_plan(p);
  for (int r = 0; r < p; ++r) {
    for (std::size_t s = 0; s < plan[static_cast<std::size_t>(r)].size(); ++s) {
      const auto& st = plan[static_cast<std::size_t>(r)][s];
      const auto& back = plan[static_cast<std::size_t>(st.partner)][s];
      EXPECT_EQ(back.partner, r);
      EXPECT_EQ(st.recv_blocks, back.send_blocks);
    }
  }
}

TEST(AlltoallRdPlan, ForwardedBlocksMoveTowardDestination) {
  const int p = 16;
  const auto plan = alltoall_rd_plan(p);
  for (int r = 0; r < p; ++r) {
    for (std::size_t s = 0; s < plan[static_cast<std::size_t>(r)].size(); ++s) {
      const auto& st = plan[static_cast<std::size_t>(r)][s];
      const int bit = 1 << s;
      for (const RoutedBlock& b : st.send_blocks) {
        // A forwarded block's destination lies in the partner's half.
        EXPECT_EQ(b.dest & bit, st.partner & bit);
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
