// sim::RunOptions — the options struct that replaced the positional
// run_collective(..., SimOptions{..., bool copy_data}) signature. Pins the
// documented defaults, the RunOptions -> SimOptions projection, and the
// trace_sink capture path.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "coll/runner.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "obs/obs.hpp"
#include "sim/hardware.hpp"

namespace pml::coll {
namespace {

using sim::PayloadMode;
using sim::RunOptions;
using sim::SimOptions;
using sim::Topology;

TEST(RunOptionsTest, DefaultsMatchDocumentedValues) {
  const RunOptions opts;
  EXPECT_EQ(opts.payload, PayloadMode::kVerify);
  EXPECT_EQ(opts.noise_sigma, 0.0);
  EXPECT_EQ(opts.seed, 1u);
  EXPECT_EQ(opts.eager_threshold, 16u * 1024u);
  EXPECT_TRUE(opts.trace_sink.empty());
}

TEST(RunOptionsTest, SimOptionsDefaultsMatchRunOptions) {
  const SimOptions opts;
  EXPECT_EQ(opts.noise_sigma, 0.0);
  EXPECT_EQ(opts.seed, 1u);
  EXPECT_EQ(opts.payload, PayloadMode::kVerify);
  EXPECT_EQ(opts.eager_threshold, 16u * 1024u);
  EXPECT_TRUE(opts.payload_enabled());
  SimOptions timing = opts;
  timing.payload = PayloadMode::kTimingOnly;
  EXPECT_FALSE(timing.payload_enabled());
}

TEST(RunOptionsTest, SimOptionsProjectionCarriesEveryField) {
  const RunOptions run{PayloadMode::kTimingOnly, 0.25, 77, 4096};
  const SimOptions sim = run.sim_options();
  EXPECT_EQ(sim.noise_sigma, 0.25);
  EXPECT_EQ(sim.seed, 77u);
  EXPECT_EQ(sim.payload, PayloadMode::kTimingOnly);
  EXPECT_EQ(sim.eager_threshold, 4096u);
  EXPECT_FALSE(sim.payload_enabled());
}

TEST(RunOptionsTest, DefaultRunVerifiesPayload) {
  const auto& cluster = sim::cluster_by_name("Frontera");
  const RunResult result =
      run_collective(cluster, Topology{2, 4}, Algorithm::kAgRing, 1024);
  EXPECT_TRUE(result.verified);
  EXPECT_GT(result.seconds, 0.0);
}

TEST(RunOptionsTest, TraceSinkWritesMetricsWithSimCounters) {
  const std::string metrics_path =
      ::testing::TempDir() + "run_options_metrics.json";
  const bool was = obs::set_enabled(false);
  obs::reset();
  {
    const auto& cluster = sim::cluster_by_name("Frontera");
    RunOptions opts;
    opts.trace_sink.metrics = metrics_path;
    const RunResult result = run_collective(cluster, Topology{2, 4},
                                            Algorithm::kAgRing, 1024, opts);
    EXPECT_TRUE(result.verified);
  }
  EXPECT_FALSE(obs::enabled());  // capture scope restored the flag
  const Json doc = Json::parse(read_file(metrics_path));
  EXPECT_EQ(doc.at("format").as_string(), "pml-metrics-v1");
  // The engine flushed its always-on statistics into obs counters.
  EXPECT_GT(doc.at("counters").at("sim.events_processed").as_int(), 0);
  EXPECT_TRUE(doc.at("spans").as_object().contains("coll.run.verified"));
  std::remove(metrics_path.c_str());
  obs::reset();
  obs::set_enabled(was);
}

}  // namespace
}  // namespace pml::coll
