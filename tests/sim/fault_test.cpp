// sim::FaultPlan: plan validation/serialization, the effect of each fault
// type on virtual time, and the two invariants the design leans on — an
// identity-valued plan is bit-identical to no plan at all, and corruption
// touches payload bytes only (never timing).
#include "sim/fault.hpp"

#include <gtest/gtest.h>

#include <string>

#include "coll/runner.hpp"
#include "common/error.hpp"
#include "obs/obs.hpp"
#include "sim/comm.hpp"
#include "sim/engine.hpp"

namespace pml::sim {
namespace {

const ClusterSpec& frontera() { return cluster_by_name("Frontera"); }

/// Timing-only elapsed seconds of one allgather under `plan`.
double timed_run(const FaultPlan& plan, std::uint64_t bytes = 4096) {
  SimOptions opts;
  opts.payload = PayloadMode::kTimingOnly;
  opts.faults = plan;
  return coll::run_collective(frontera(), Topology{4, 2},
                              coll::Algorithm::kAgRing, bytes, opts)
      .seconds;
}

TEST(FaultPlan, DefaultIsEmpty) {
  const FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  FaultPlan with_corruption;
  with_corruption.corruption.probability = 0.5;
  EXPECT_FALSE(with_corruption.empty());
}

TEST(FaultPlan, JsonRoundTrip) {
  FaultPlan plan;
  plan.seed = 77;
  plan.link_degradations.push_back({1, 0.25, 3e-6});
  plan.stragglers.push_back({5, 2.5});
  plan.flaps.push_back({0, 1e-4, 5e-5});
  plan.corruption.probability = 0.125;

  const FaultPlan back = FaultPlan::from_json(plan.to_json());
  EXPECT_EQ(back.seed, 77u);
  ASSERT_EQ(back.link_degradations.size(), 1u);
  EXPECT_EQ(back.link_degradations[0].node, 1);
  EXPECT_EQ(back.link_degradations[0].bandwidth_factor, 0.25);
  EXPECT_EQ(back.link_degradations[0].extra_latency, 3e-6);
  ASSERT_EQ(back.stragglers.size(), 1u);
  EXPECT_EQ(back.stragglers[0].rank, 5);
  EXPECT_EQ(back.stragglers[0].slowdown, 2.5);
  ASSERT_EQ(back.flaps.size(), 1u);
  EXPECT_EQ(back.flaps[0].node, 0);
  EXPECT_EQ(back.flaps[0].start, 1e-4);
  EXPECT_EQ(back.flaps[0].duration, 5e-5);
  EXPECT_EQ(back.corruption.probability, 0.125);
}

TEST(FaultPlan, FromJsonRejectsWrongFormat) {
  Json j = Json::object();
  j["format"] = "pml-other-v1";
  EXPECT_THROW(FaultPlan::from_json(j), ConfigError);
}

TEST(FaultPlan, ValidateRejectsBadEntries) {
  const auto reject = [](FaultPlan plan) {
    EXPECT_THROW(plan.validate(4, 8), ConfigError);
    // The engine validates on construction too: a bad plan never runs.
    SimOptions opts;
    opts.faults = std::move(plan);
    EXPECT_THROW(Engine(frontera(), Topology{4, 2}, opts), ConfigError);
  };
  FaultPlan bad_node;
  bad_node.link_degradations.push_back({4, 0.5, 0.0});
  reject(bad_node);
  FaultPlan bad_factor;
  bad_factor.link_degradations.push_back({0, 0.0, 0.0});
  reject(bad_factor);
  FaultPlan bad_latency;
  bad_latency.link_degradations.push_back({0, 0.5, -1e-6});
  reject(bad_latency);
  FaultPlan bad_rank;
  bad_rank.stragglers.push_back({8, 2.0});
  reject(bad_rank);
  FaultPlan bad_slowdown;
  bad_slowdown.stragglers.push_back({0, 0.5});
  reject(bad_slowdown);
  FaultPlan bad_window;
  bad_window.flaps.push_back({0, -1.0, 1.0});
  reject(bad_window);
  FaultPlan bad_probability;
  bad_probability.corruption.probability = 1.5;
  reject(bad_probability);
}

TEST(FaultPlan, IdentityValuedPlanIsBitIdenticalToNoPlan) {
  // Non-empty plan whose every knob is the identity: faults_active_ is
  // true, so all guarded hot-path math runs — and must reproduce the
  // fault-free timings exactly.
  FaultPlan identity;
  identity.link_degradations.push_back({0, 1.0, 0.0});
  identity.stragglers.push_back({0, 1.0});
  identity.flaps.push_back({0, 0.0, 0.0});
  ASSERT_FALSE(identity.empty());
  EXPECT_EQ(timed_run({}), timed_run(identity));
}

TEST(FaultPlan, EachFaultTypeSlowsTheRun) {
  const double baseline = timed_run({});

  FaultPlan slow_link;
  slow_link.link_degradations.push_back({1, 0.25, 0.0});
  EXPECT_GT(timed_run(slow_link), baseline);

  FaultPlan lagged_link;
  lagged_link.link_degradations.push_back({1, 1.0, 5e-5});
  EXPECT_GT(timed_run(lagged_link), baseline);

  FaultPlan straggler;
  straggler.stragglers.push_back({3, 8.0});
  EXPECT_GT(timed_run(straggler), baseline);

  FaultPlan flap;
  flap.flaps.push_back({0, 0.0, baseline});  // NIC down for the whole run
  EXPECT_GT(timed_run(flap), baseline);
}

TEST(FaultPlan, EngineCountsFaultEffects) {
  FaultPlan plan;
  plan.link_degradations.push_back({1, 0.5, 1e-6});
  plan.stragglers.push_back({0, 2.0});
  plan.flaps.push_back({0, 0.0, 1e-4});
  SimOptions opts;
  opts.payload = PayloadMode::kTimingOnly;
  opts.faults = plan;

  Engine engine(frontera(), Topology{4, 2}, opts);
  engine.run([&](int rank) -> RankTask {
    Comm comm(engine, rank);
    const int peer = (rank + engine.world_size() / 2) % engine.world_size();
    std::span<std::byte> out = engine.scratch(rank, 0, 4096);
    std::span<std::byte> in = engine.scratch(rank, 1, 4096);
    co_await comm.sendrecv(peer, out, peer, in);
  });

  EXPECT_GT(engine.fault_straggler_charges(), 0u);
  EXPECT_GT(engine.fault_degraded_transfers(), 0u);
  EXPECT_GT(engine.fault_flap_stalls(), 0u);
  EXPECT_EQ(engine.fault_corrupted_payloads(), 0u);  // no corruption planned
}

TEST(FaultPlan, CorruptionIsDetectedByVerification) {
  FaultPlan plan;
  plan.corruption.probability = 1.0;  // every transfer flips a bit
  SimOptions opts;
  opts.faults = plan;
  EXPECT_THROW(coll::run_collective(frontera(), Topology{2, 2},
                                    coll::Algorithm::kAgRing, 1024, opts),
               SimError);
}

TEST(FaultPlan, CorruptionNeverChangesTiming) {
  // Corruption flips payload bits only; the timing-only path must be
  // bit-identical with and without it.
  FaultPlan corrupting;
  corrupting.corruption.probability = 1.0;
  FaultPlan inert;
  inert.stragglers.push_back({0, 1.0});  // non-empty, identity-valued
  EXPECT_EQ(timed_run(inert), timed_run(corrupting));
}

TEST(FaultPlan, EffectsFlushToObsCounters) {
  const bool was = obs::set_enabled(true);
  obs::reset();

  FaultPlan plan;
  plan.stragglers.push_back({0, 4.0});
  plan.link_degradations.push_back({1, 0.5, 0.0});
  timed_run(plan);

  const obs::Snapshot snap = obs::snapshot();
  std::uint64_t straggler = 0;
  std::uint64_t degraded = 0;
  for (const auto& c : snap.counters) {
    if (c.name == "sim.faults.straggler_charges") straggler = c.value;
    if (c.name == "sim.faults.degraded_transfers") degraded = c.value;
  }
  EXPECT_GT(straggler, 0u);
  EXPECT_GT(degraded, 0u);

  obs::reset();
  obs::set_enabled(was);
}

}  // namespace
}  // namespace pml::sim
