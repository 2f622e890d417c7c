// Cross-validation of the two cost paths: the event engine replays every
// message; the analytic model sums closed-form round costs. They derive
// from the same NetworkModel, so on small configurations they must agree
// in magnitude and, more importantly, must rank algorithms consistently —
// the dataset builder trains on analytic labels while the engine is the
// ground truth.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <vector>

#include "coll/cost.hpp"
#include "coll/runner.hpp"
#include "sim/hardware.hpp"

namespace pml::coll {
namespace {

using sim::NetworkModel;
using sim::Topology;

struct ConsistencyCase {
  const char* cluster;
  int nodes;
  int ppn;
  std::uint64_t bytes;
};

// gtest would otherwise print the case as raw bytes, pointer included, and
// that text is part of each ctest name.
void PrintTo(const ConsistencyCase& c, std::ostream* os) {
  *os << c.cluster << ':' << c.nodes << 'x' << c.ppn << ':' << c.bytes << 'B';
}

class CostConsistency : public ::testing::TestWithParam<ConsistencyCase> {};

TEST_P(CostConsistency, AnalyticWithinFactorOfEngine) {
  const auto& c = GetParam();
  const auto& cluster = sim::cluster_by_name(c.cluster);
  const Topology topo{c.nodes, c.ppn};
  const NetworkModel model(cluster, topo);
  for (const auto coll : {Collective::kAllgather, Collective::kAlltoall}) {
    for (const Algorithm a : valid_algorithms(coll, topo.world_size())) {
      const double engine =
          run_collective(cluster, topo, a, c.bytes).seconds;
      const double analytic = analytic_cost(model, a, c.bytes);
      ASSERT_GT(engine, 0.0) << display_name(a);
      ASSERT_GT(analytic, 0.0) << display_name(a);
      const double ratio = analytic / engine;
      // The lockstep closed form approximates the asynchronous engine; a
      // factor-3 band still guarantees the ranking behaviour checked below.
      EXPECT_GT(ratio, 1.0 / 3.0)
          << to_string(coll) << ":" << display_name(a) << " " << c.cluster
          << " n=" << c.nodes << " ppn=" << c.ppn << " bytes=" << c.bytes;
      EXPECT_LT(ratio, 3.0)
          << to_string(coll) << ":" << display_name(a) << " " << c.cluster
          << " n=" << c.nodes << " ppn=" << c.ppn << " bytes=" << c.bytes;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CostConsistency,
    ::testing::Values(ConsistencyCase{"Frontera", 2, 4, 16},
                      ConsistencyCase{"Frontera", 2, 4, 4096},
                      ConsistencyCase{"Frontera", 4, 2, 64 << 10},
                      ConsistencyCase{"MRI", 2, 8, 256},
                      ConsistencyCase{"MRI", 2, 8, 32 << 10},
                      ConsistencyCase{"RI", 2, 2, 1024},
                      ConsistencyCase{"Catalyst", 2, 6, 2048}),
    [](const ::testing::TestParamInfo<ConsistencyCase>& param_info) {
      const ConsistencyCase& c = param_info.param;
      return std::string(c.cluster) + "_n" + std::to_string(c.nodes) + "_p" +
             std::to_string(c.ppn) + "_b" + std::to_string(c.bytes);
    });

TEST(CostConsistency, BestAlgorithmAgreesOrIsNearOptimal) {
  // The analytic argmin, executed on the engine, must be within 40% of the
  // engine's own argmin — i.e. analytic labels are near-optimal choices.
  const auto& cluster = sim::cluster_by_name("Frontera");
  const Topology topo{2, 8};
  const NetworkModel model(cluster, topo);
  for (const auto coll : {Collective::kAllgather, Collective::kAlltoall}) {
    for (const std::uint64_t bytes : {4ull, 512ull, 16384ull, 262144ull}) {
      const auto algos = valid_algorithms(coll, topo.world_size());
      Algorithm analytic_best = algos.front();
      double analytic_lo = 1e300;
      Algorithm engine_best = algos.front();
      double engine_lo = 1e300;
      std::vector<double> engine_times;
      for (const Algorithm a : algos) {
        const double ta = analytic_cost(model, a, bytes);
        const double te = run_collective(cluster, topo, a, bytes).seconds;
        if (ta < analytic_lo) {
          analytic_lo = ta;
          analytic_best = a;
        }
        if (te < engine_lo) {
          engine_lo = te;
          engine_best = a;
        }
        if (a == analytic_best && ta == analytic_lo) engine_times.push_back(te);
      }
      const double chosen =
          run_collective(cluster, topo, analytic_best, bytes).seconds;
      EXPECT_LT(chosen, 1.4 * engine_lo)
          << to_string(coll) << " bytes=" << bytes << " analytic picked "
          << display_name(analytic_best) << ", engine best "
          << display_name(engine_best);
    }
  }
}

}  // namespace
}  // namespace pml::coll
