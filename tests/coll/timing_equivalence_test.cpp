// The timing-only fast path (PayloadMode::kTimingOnly) must be a pure
// optimisation: for every algorithm it has to report exactly the virtual
// time of the verified path. Every payload operation charges its simulated
// cost whether or not bytes move, and jitter is drawn per matched transfer
// in event order, so the two modes consume identical noise streams. Exact
// double equality is intentional. Because no byte moves, its buffers must
// not grow with the world size either.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <vector>

#include "coll/runner.hpp"
#include "sim/hardware.hpp"

namespace pml::coll {
namespace {

using sim::PayloadMode;
using sim::SimOptions;
using sim::Topology;

struct TimingCase {
  int nodes;
  int ppn;
  std::uint64_t bytes;
};

class TimingEquivalence : public ::testing::TestWithParam<TimingCase> {};

TEST_P(TimingEquivalence, FastPathMatchesVerifiedPathExactly) {
  const auto& c = GetParam();
  const auto& cluster = sim::cluster_by_name("Frontera");
  const Topology topo{c.nodes, c.ppn};
  // Nonzero noise so the test also proves the jitter streams line up.
  const SimOptions verified{.noise_sigma = 0.15, .seed = 99};
  const SimOptions timing_only{
      .noise_sigma = 0.15, .seed = 99, .payload = PayloadMode::kTimingOnly};
  for (const auto coll :
       {Collective::kAllgather, Collective::kAlltoall, Collective::kAllreduce,
        Collective::kBcast}) {
    for (const Algorithm a : valid_algorithms(coll, topo.world_size())) {
      const RunResult slow =
          run_collective(cluster, topo, a, c.bytes, verified);
      const RunResult fast =
          run_collective(cluster, topo, a, c.bytes, timing_only);
      EXPECT_TRUE(slow.verified) << display_name(a);
      EXPECT_FALSE(fast.verified) << display_name(a);
      EXPECT_EQ(fast.seconds, slow.seconds)
          << display_name(a) << " n=" << c.nodes << " ppn=" << c.ppn
          << " bytes=" << c.bytes;
    }
  }
}

TEST_P(TimingEquivalence, FastPathIsDeterministicAcrossReuse) {
  // The per-thread engine is reused across invocations; a second call must
  // reproduce the first exactly (reset() fully re-seeds the noise stream).
  const auto& c = GetParam();
  const auto& cluster = sim::cluster_by_name("Frontera");
  const Topology topo{c.nodes, c.ppn};
  const SimOptions timing_only{
      .noise_sigma = 0.15, .seed = 7, .payload = PayloadMode::kTimingOnly};
  for (const Algorithm a :
       valid_algorithms(Collective::kAllgather, topo.world_size())) {
    const double first =
        run_collective(cluster, topo, a, c.bytes, timing_only).seconds;
    const double second =
        run_collective(cluster, topo, a, c.bytes, timing_only).seconds;
    EXPECT_EQ(first, second) << display_name(a);
  }
}

/// Peak resident set of this process so far, in bytes (Linux reports
/// ru_maxrss in KiB).
std::uint64_t peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

TEST(TimingOnlyMemory, BuffersDoNotScaleWithTheWorldSize) {
  // 256 ranks at 16 KiB per block: one rank's allgather recv buffer or
  // alltoall send buffer is 4 MiB, so buffers, algorithm temporaries or
  // leader staging scratch held per rank would take 1 GiB each. Shared by
  // every rank they take a few MiB.
  const auto& cluster = sim::cluster_by_name("MRI");
  const Topology topo{2, 128};
  const std::uint64_t bytes = 16 << 10;
  const SimOptions timing_only{.payload = PayloadMode::kTimingOnly};
  const std::uint64_t before = peak_rss_bytes();
  for (const Selection& selection :
       {Selection::flat(Algorithm::kAgRecursiveDoubling),
        Selection::flat(Algorithm::kAgRing),
        Selection::flat(Algorithm::kAgBruck),
        Selection::flat(Algorithm::kAgRdComm),
        Selection::flat(Algorithm::kAaBruck),
        Selection::flat(Algorithm::kAaScatterDest),
        Selection::flat(Algorithm::kAaPairwise),
        Selection::flat(Algorithm::kAaRecursiveDoubling),
        Selection::flat(Algorithm::kAaInplace),
        Selection::leader(Algorithm::kAgRing, Algorithm::kBcBinomial)}) {
    EXPECT_GT(
        run_selection(cluster, topo, selection, bytes, timing_only).seconds,
        0.0)
        << selection.display();
  }
  EXPECT_LT(peak_rss_bytes() - before, std::uint64_t{256} << 20);
}

TEST(TimingOnlyMemory, RecursiveDoublingKeepsNoRoutingTables) {
  // 1024 ranks at 1-byte blocks: the payload is a few KiB, so any growth
  // here is routing state. Recursive-doubling alltoall and allgather derive
  // each step's partner and blocks from (rank, step, world); a routing
  // table of p^2 log p entries, or a block map per rank, would take
  // hundreds of MiB.
  const auto& cluster = sim::cluster_by_name("Spock");
  const Topology topo{16, 64};
  const SimOptions timing_only{.payload = PayloadMode::kTimingOnly};
  const std::uint64_t before = peak_rss_bytes();
  for (const Algorithm a :
       {Algorithm::kAaRecursiveDoubling, Algorithm::kAgRecursiveDoubling}) {
    EXPECT_GT(run_collective(cluster, topo, a, 1, timing_only).seconds, 0.0)
        << display_name(a);
  }
  EXPECT_LT(peak_rss_bytes() - before, std::uint64_t{32} << 20);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TimingEquivalence,
    ::testing::Values(TimingCase{2, 4, 4096},      // eager, pow2 world
                      TimingCase{3, 2, 64 << 10},  // rendezvous, non-pow2
                      TimingCase{1, 5, 16},        // single node, odd world
                      TimingCase{2, 8, 1},         // tiny payload
                      TimingCase{4, 4, 0}),        // zero-byte edge case
    [](const ::testing::TestParamInfo<TimingCase>& tpi) {
      std::string name = "n";
      name += std::to_string(tpi.param.nodes);
      name += "_p";
      name += std::to_string(tpi.param.ppn);
      name += "_b";
      name += std::to_string(tpi.param.bytes);
      return name;
    });

}  // namespace
}  // namespace pml::coll
