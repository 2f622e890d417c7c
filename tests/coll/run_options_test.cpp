// sim::SimOptions as the options of one collective invocation (it
// absorbed the former RunOptions): pins the documented defaults, the
// engine's eager threshold, the default verified run, and capture of a
// run's metrics through obs::ScopedCapture.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "coll/runner.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "obs/export.hpp"
#include "sim/hardware.hpp"

namespace pml::coll {
namespace {

using sim::PayloadMode;
using sim::SimOptions;
using sim::Topology;

TEST(RunOptionsTest, DefaultsMatchDocumentedValues) {
  const SimOptions opts;
  EXPECT_EQ(opts.payload, PayloadMode::kVerify);
  EXPECT_EQ(opts.noise_sigma, 0.0);
  EXPECT_EQ(opts.seed, 1u);
  EXPECT_TRUE(opts.faults.empty());
  EXPECT_FALSE(opts.hierarchy.enabled);
  EXPECT_EQ(sim::kEagerThreshold, 16u * 1024u);
}

TEST(RunOptionsTest, SimOptionsDefaultsMatchRunOptions) {
  const SimOptions opts;
  EXPECT_TRUE(opts.payload_enabled());
  SimOptions timing = opts;
  timing.payload = PayloadMode::kTimingOnly;
  EXPECT_FALSE(timing.payload_enabled());
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
    const obs::ScopedCapture capture(obs::Sink{"", metrics_path});
    const auto& cluster = sim::cluster_by_name("Frontera");
    const RunResult result =
        run_collective(cluster, Topology{2, 4}, Algorithm::kAgRing, 1024);
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
