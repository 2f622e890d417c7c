// Observability must never perturb results (obs design constraint #2):
// with collection on, every instrumented pipeline — the event-driven
// simulator, dataset builds, forest training — has to produce bit-identical
// outputs to the collection-off run. Spans and counters only observe; they
// must not touch RNG streams, iteration order, or accumulation order.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "coll/runner.hpp"
#include "core/framework.hpp"
#include "obs/obs.hpp"
#include "sim/hardware.hpp"

namespace pml {
namespace {

/// Run `body` twice — collection off, then on — and return both results.
template <typename Body>
auto with_obs_off_then_on(Body body) {
  const bool was = obs::set_enabled(false);
  obs::reset();
  auto off = body();
  obs::set_enabled(true);
  auto on = body();
  obs::reset();
  obs::set_enabled(was);
  return std::pair{std::move(off), std::move(on)};
}

TEST(ObsDeterminism, VirtualTimeIsBitIdenticalWithTracingOn) {
  const auto& cluster = sim::cluster_by_name("Frontera");
  const sim::Topology topo{4, 8};
  for (const auto payload :
       {sim::PayloadMode::kVerify, sim::PayloadMode::kTimingOnly}) {
    // Nonzero noise: the jitter stream must be untouched by instrumentation.
    const sim::SimOptions opts{
        .noise_sigma = 0.1, .seed = 321, .payload = payload};
    const auto [off, on] = with_obs_off_then_on([&] {
      return coll::run_collective(cluster, topo, coll::Algorithm::kAgRing,
                                  4096, opts)
          .seconds;
    });
    EXPECT_EQ(off, on);  // exact double equality is intentional
  }
}

TEST(ObsDeterminism, TrainedBundleBytesAreBitIdenticalWithTracingOn) {
  core::TrainOptions options;
  options.forest.n_trees = 8;
  const std::vector<sim::ClusterSpec> clusters = {sim::cluster_by_name("RI"),
                                                  sim::cluster_by_name("Rome")};
  const auto [off, on] = with_obs_off_then_on([&] {
    return core::PmlFramework::train(clusters, options).to_json().dump();
  });
  EXPECT_EQ(off, on);
}

TEST(ObsDeterminism, CompiledTableIsBitIdenticalWithTracingOn) {
  core::TrainOptions train_options;
  train_options.forest.n_trees = 8;
  const std::vector<sim::ClusterSpec> clusters = {
      sim::cluster_by_name("RI"), sim::cluster_by_name("Rome")};
  auto fw = core::PmlFramework::train(clusters, train_options);
  const auto& target = sim::cluster_by_name("MRI");
  const auto compile_options =
      core::CompileOptions::sweep({2, 4}, {16}, {1024, 65536});
  const auto [off, on] = with_obs_off_then_on([&] {
    return fw.compile_for(target, compile_options).to_json().dump();
  });
  EXPECT_EQ(off, on);
}

}  // namespace
}  // namespace pml
