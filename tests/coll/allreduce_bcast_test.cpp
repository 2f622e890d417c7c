// Tests for the future-work extension collectives: MPI_Allreduce and
// MPI_Bcast flat algorithms (correctness on real payloads, schedule
// constraints, performance-shape sanity, analytic/engine consistency).
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "coll/allreduce.hpp"
#include "coll/bcast.hpp"
#include "coll/cost.hpp"
#include "coll/runner.hpp"
#include "common/error.hpp"
#include "sim/hardware.hpp"
#include "supported_sweep.hpp"

namespace pml::coll {
namespace {

const sim::ClusterSpec& frontera() { return sim::cluster_by_name("Frontera"); }

TEST(CombineBytes, WrappingSum) {
  std::vector<std::byte> dst = {std::byte{200}, std::byte{1}};
  const std::vector<std::byte> src = {std::byte{100}, std::byte{2}};
  combine_bytes(dst, src);
  EXPECT_EQ(dst[0], std::byte{44});  // 300 mod 256
  EXPECT_EQ(dst[1], std::byte{3});
  EXPECT_THROW(combine_bytes(dst, std::vector<std::byte>(1)), SimError);
}

class ExtensionCorrectness : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ExtensionCorrectness, PayloadVerified) {
  const auto [algo, nodes, ppn, bytes] = GetParam();
  const RunResult r = run_collective(frontera(), sim::Topology{nodes, ppn},
                                     algo, static_cast<std::uint64_t>(bytes));
  EXPECT_TRUE(r.verified);
  EXPECT_GE(r.seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExtensionCorrectness,
    ::testing::ValuesIn(supported_sweep(
        {Algorithm::kArRecursiveDoubling, Algorithm::kArRabenseifner,
         Algorithm::kArRing, Algorithm::kBcBinomial,
         Algorithm::kBcScatterAllgather, Algorithm::kBcPipelinedRing},
        {1, 2, 3}, {1, 2, 4, 5}, {1, 16, 1024, 100000})),
    [](const ::testing::TestParamInfo<SweepCase>& param_info) {
      return to_string(collective_of(std::get<0>(param_info.param))) + "_" +
             to_string(std::get<0>(param_info.param)) + "_n" +
             std::to_string(std::get<1>(param_info.param)) + "_p" +
             std::to_string(std::get<2>(param_info.param)) + "_b" +
             std::to_string(std::get<3>(param_info.param));
    });

class ExtensionWorlds : public ::testing::TestWithParam<int> {};

TEST_P(ExtensionWorlds, AllValidAlgorithmsCorrect) {
  const int p = GetParam();
  for (const auto collective : {Collective::kAllreduce, Collective::kBcast}) {
    for (const Algorithm a : valid_algorithms(collective, p)) {
      const RunResult r =
          run_collective(frontera(), sim::Topology{1, p}, a, 100);
      EXPECT_TRUE(r.verified) << display_name(a) << " p=" << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Worlds, ExtensionWorlds,
                         ::testing::Values(1, 2, 3, 5, 7, 8, 11, 16, 24));

TEST(ExtensionRegistry, CollectivesAndAlgorithms) {
  EXPECT_EQ(all_collectives().size(), 4u);
  EXPECT_EQ(paper_collectives().size(), 2u);
  EXPECT_EQ(algorithms_for(Collective::kAllreduce).size(), 3u);
  EXPECT_EQ(algorithms_for(Collective::kBcast).size(), 3u);
  EXPECT_EQ(collective_of(Algorithm::kArRing), Collective::kAllreduce);
  EXPECT_EQ(collective_of(Algorithm::kBcBinomial), Collective::kBcast);
  EXPECT_EQ(algorithm_from_string("allreduce:ring"), Algorithm::kArRing);
  EXPECT_EQ(algorithm_from_string("rabenseifner"), Algorithm::kArRabenseifner);
  // "ring" alone is ambiguous now (allgather vs allreduce).
  EXPECT_THROW(algorithm_from_string("ring"), Error);
}

TEST(ExtensionRegistry, Pow2Constraints) {
  EXPECT_FALSE(algorithm_supports(Algorithm::kArRecursiveDoubling, 12));
  EXPECT_FALSE(algorithm_supports(Algorithm::kArRabenseifner, 6));
  EXPECT_TRUE(algorithm_supports(Algorithm::kArRing, 6));
  EXPECT_TRUE(algorithm_supports(Algorithm::kBcBinomial, 13));
}

TEST(AllreduceShape, RabenseifnerBeatsRdAtLargeMessages) {
  // RD moves n per step; Rabenseifner halves volumes — bandwidth wins.
  const sim::Topology topo{4, 8};
  const auto rd = run_collective(frontera(), topo,
                                 Algorithm::kArRecursiveDoubling, 512 << 10);
  const auto rab =
      run_collective(frontera(), topo, Algorithm::kArRabenseifner, 512 << 10);
  EXPECT_LT(rab.seconds, rd.seconds);
}

TEST(AllreduceShape, RdBestAtTinyMessages) {
  const sim::Topology topo{4, 8};
  const auto rd =
      run_collective(frontera(), topo, Algorithm::kArRecursiveDoubling, 8);
  const auto ring = run_collective(frontera(), topo, Algorithm::kArRing, 8);
  EXPECT_LT(rd.seconds, ring.seconds);
}

TEST(BcastShape, BinomialBestAtTinyMessages) {
  const sim::Topology topo{4, 8};
  const auto binom =
      run_collective(frontera(), topo, Algorithm::kBcBinomial, 8);
  const auto sag =
      run_collective(frontera(), topo, Algorithm::kBcScatterAllgather, 8);
  const auto ring =
      run_collective(frontera(), topo, Algorithm::kBcPipelinedRing, 8);
  EXPECT_LT(binom.seconds, sag.seconds);
  EXPECT_LT(binom.seconds, ring.seconds);
}

TEST(BcastShape, ScatterAllgatherBeatsBinomialAtLargeMessagesSingleNode) {
  // On one node the doubling allgather has no NIC contention, so the
  // chunked algorithm's 2x bandwidth advantage shows cleanly.
  const sim::Topology topo{1, 8};
  const auto binom =
      run_collective(frontera(), topo, Algorithm::kBcBinomial, 1 << 20);
  const auto sag =
      run_collective(frontera(), topo, Algorithm::kBcScatterAllgather,
                     1 << 20);
  EXPECT_LT(sag.seconds, binom.seconds);
}

TEST(BcastShape, PipelinedRingBeatsBinomialAtHugeMessagesMultiNode) {
  // Across nodes the chain crosses each NIC once; the binomial tree pushes
  // the full payload log(p) times along its critical path.
  const sim::Topology topo{4, 8};
  const auto binom =
      run_collective(frontera(), topo, Algorithm::kBcBinomial, 4 << 20);
  const auto ring =
      run_collective(frontera(), topo, Algorithm::kBcPipelinedRing, 4 << 20);
  EXPECT_LT(ring.seconds, binom.seconds);
}

TEST(BcastShape, PipelineSegmentCaps) {
  EXPECT_EQ(bcast_pipeline_segment(100), 100u);
  EXPECT_EQ(bcast_pipeline_segment(1 << 20), 8u * 1024u);
  EXPECT_EQ(bcast_pipeline_segment(0), 1u);
}

TEST(ExtensionConsistency, AnalyticWithinFactorOfEngine) {
  const sim::Topology topo{2, 4};
  const sim::NetworkModel model(frontera(), topo);
  for (const auto collective : {Collective::kAllreduce, Collective::kBcast}) {
    for (const Algorithm a : valid_algorithms(collective, 8)) {
      for (const std::uint64_t bytes : {64ull, 16384ull, 524288ull}) {
        const double engine =
            run_collective(frontera(), topo, a, bytes).seconds;
        const double analytic = analytic_cost(model, a, bytes);
        const double ratio = analytic / engine;
        EXPECT_GT(ratio, 1.0 / 3.0) << display_name(a) << " " << bytes;
        EXPECT_LT(ratio, 3.0) << display_name(a) << " " << bytes;
      }
    }
  }
}

TEST(ExtensionConsistency, TimeGrowsWithMessageSize) {
  const sim::Topology topo{2, 4};
  for (const auto collective : {Collective::kAllreduce, Collective::kBcast}) {
    for (const Algorithm a : valid_algorithms(collective, 8)) {
      const auto small = run_collective(frontera(), topo, a, 64);
      const auto large = run_collective(frontera(), topo, a, 256 << 10);
      EXPECT_LT(small.seconds, large.seconds) << display_name(a);
    }
  }
}

}  // namespace
}  // namespace pml::coll
