// Fault-injected simulations must stay a pure function of
// (cluster, topology, options): the same FaultPlan and seed yield
// bit-identical virtual times — and therefore identical argmin algorithm
// choices — whether the sweep runs serially or fanned out over threads.
// This is the regression guard for the determinism claim in sim/fault.hpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <vector>

#include "coll/runner.hpp"
#include "common/parallel.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/hardware.hpp"

namespace pml::sim {
namespace {

/// A plan exercising every fault type at once (corruption included: its
/// draw stream must not perturb timing even though kTimingOnly never
/// flips a bit).
FaultPlan combined_plan() {
  FaultPlan plan;
  plan.seed = 42;
  plan.link_degradations.push_back({0, 0.5, 2e-6});
  plan.link_degradations.push_back({2, 0.8, 0.0});
  plan.stragglers.push_back({1, 3.0});
  plan.stragglers.push_back({6, 1.5});
  plan.flaps.push_back({1, 0.0, 5e-5});
  plan.flaps.push_back({3, 1e-4, 1e-4});
  plan.corruption.probability = 0.25;
  return plan;
}

/// One sweep cell: timing-only elapsed seconds plus the per-cell argmin
/// algorithm over the allgather candidates.
struct Cell {
  double seconds = 0.0;
  coll::Algorithm best = coll::Algorithm::kAgRing;

  bool operator==(const Cell& other) const {
    return seconds == other.seconds && best == other.best;
  }
};

std::vector<Cell> sweep(int threads) {
  const auto& cluster = cluster_by_name("Frontera");
  const FaultPlan plan = combined_plan();
  const std::uint64_t sizes[] = {256, 4096, 65536};
  const coll::Algorithm candidates[] = {coll::Algorithm::kAgRing,
                                        coll::Algorithm::kAgBruck,
                                        coll::Algorithm::kAgRecursiveDoubling};

  std::vector<Cell> cells(std::size(sizes));
  parallel_for(threads, cells.size(), [&](std::size_t i) {
    SimOptions opts;
    opts.payload = PayloadMode::kTimingOnly;
    opts.noise_sigma = 0.01;  // jitter stream must coexist with faults
    opts.seed = 7;
    opts.faults = plan;
    Cell cell;
    double best = 0.0;
    for (const auto algorithm : candidates) {
      const double t = coll::run_collective(cluster, Topology{4, 2}, algorithm,
                                            sizes[i], opts)
                           .seconds;
      if (algorithm == candidates[0] || t < best) {
        best = t;
        cell.best = algorithm;
      }
      cell.seconds += t;
    }
    cells[i] = cell;
  });
  return cells;
}

TEST(FaultDeterminism, SweepIsBitIdenticalAcrossThreadCounts) {
  const std::vector<Cell> serial = sweep(1);
  for (const int threads : {2, 8}) {
    const std::vector<Cell> parallel = sweep(threads);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i], parallel[i]) << "cell " << i << " at " << threads
                                        << " threads";
    }
  }
}

TEST(FaultDeterminism, RepeatedRunsAreBitIdentical) {
  const FaultPlan plan = combined_plan();
  SimOptions opts;
  opts.payload = PayloadMode::kTimingOnly;
  opts.faults = plan;
  const auto run = [&] {
    return coll::run_collective(cluster_by_name("Frontera"), Topology{4, 2},
                                coll::Algorithm::kAgRing, 4096, opts)
        .seconds;
  };
  const double first = run();
  EXPECT_EQ(first, run());
  EXPECT_EQ(first, run());
}

}  // namespace
}  // namespace pml::sim
