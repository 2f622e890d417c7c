// The filesystem compile_or_cached must always return a usable table:
// truncated, bit-flipped, legacy, or unreadable cache entries are reasons
// to recompile (and repair the cache), never to throw or — worse — to
// silently serve damaged data. Before the pml-artifact-v1 envelope, any
// parseable JSON with a matching sweep was trusted; the poisoned-cache
// test below is the regression guard for that bug.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "common/artifact.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "core/framework.hpp"
#include "obs/obs.hpp"

namespace pml::core {
namespace {

/// Cheap trained framework shared by every test in this file.
PmlFramework& trained() {
  static PmlFramework fw = [] {
    TrainOptions options;
    options.forest.n_trees = 8;
    const std::vector<sim::ClusterSpec> clusters = {
        sim::cluster_by_name("RI"), sim::cluster_by_name("Rome")};
    return PmlFramework::train(clusters, options);
  }();
  return fw;
}

const sim::ClusterSpec& target() { return sim::cluster_by_name("MRI"); }

CompileOptions options_in(const std::filesystem::path& dir) {
  CompileOptions options = CompileOptions::sweep({2, 4}, {16}, {1024, 65536});
  options.cache_dir = dir.string();
  return options;
}

std::uint64_t counter_value(const char* name) {
  for (const auto& c : obs::snapshot().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

class CacheRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pml_cache_test_" + std::string(::testing::UnitTest::GetInstance()
                                                ->current_test_info()
                                                ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    was_enabled_ = obs::set_enabled(true);
    obs::reset();
  }
  void TearDown() override {
    obs::reset();
    obs::set_enabled(was_enabled_);
    std::filesystem::remove_all(dir_);
  }

  std::filesystem::path cache_file() const {
    return dir_ / (target().name + ".table.json");
  }

  std::filesystem::path dir_;
  bool was_enabled_ = false;
};

TEST_F(CacheRobustnessTest, CompileWritesAnEnvelopeAndReusesIt) {
  const CompileOptions options = options_in(dir_);
  const TuningTable first = trained().compile_or_cached(target(), options);
  ASSERT_TRUE(std::filesystem::exists(cache_file()));
  const Json doc = Json::parse(read_file(cache_file().string()));
  EXPECT_TRUE(is_artifact_envelope(doc));
  EXPECT_EQ(inspect_artifact(cache_file().string()).status,
            ArtifactStatus::kOk);

  const TuningTable second = trained().compile_or_cached(target(), options);
  EXPECT_EQ(first.to_json().dump(), second.to_json().dump());
  EXPECT_EQ(counter_value("online.fallback.cache_corrupt"), 0u);
  EXPECT_EQ(counter_value("online.fallback.cache_stale"), 0u);
}

TEST_F(CacheRobustnessTest, TruncatedCacheIsRecompiled) {
  const CompileOptions options = options_in(dir_);
  const TuningTable clean = trained().compile_or_cached(target(), options);

  const std::string full = read_file(cache_file().string());
  write_file(cache_file().string(), full.substr(0, full.size() / 2));

  const TuningTable recovered = trained().compile_or_cached(target(), options);
  EXPECT_EQ(recovered.to_json().dump(), clean.to_json().dump());
  EXPECT_GE(counter_value("online.fallback.cache_corrupt"), 1u);
  // The damaged entry was rewritten as a valid envelope.
  EXPECT_EQ(inspect_artifact(cache_file().string()).status,
            ArtifactStatus::kOk);
}

TEST_F(CacheRobustnessTest, FlippedByteCacheIsRecompiled) {
  const CompileOptions options = options_in(dir_);
  const TuningTable clean = trained().compile_or_cached(target(), options);

  // Flip one byte inside the payload: still perfectly parseable JSON, but
  // the checksum no longer matches. The pre-envelope code served this.
  std::string bytes = read_file(cache_file().string());
  const std::size_t at = bytes.find("\"cluster\"");
  ASSERT_NE(at, std::string::npos);
  bytes[at + 1] = 'k';
  write_file(cache_file().string(), bytes);

  const TuningTable recovered = trained().compile_or_cached(target(), options);
  EXPECT_EQ(recovered.to_json().dump(), clean.to_json().dump());
  EXPECT_GE(counter_value("online.fallback.cache_corrupt"), 1u);
  EXPECT_EQ(inspect_artifact(cache_file().string()).status,
            ArtifactStatus::kOk);
}

TEST_F(CacheRobustnessTest, PoisonedLegacyCacheIsNotServed) {
  const CompileOptions options = options_in(dir_);

  // A hand-built table that satisfies every pre-envelope trust check —
  // matching cluster name, non-empty, matching sweep provenance — but
  // carries garbage content (a single allgather rule, nothing else). The
  // old code would have served it verbatim.
  TuningTable poisoned(target().name);
  poisoned.set_sweep(options.node_counts, options.ppn_values,
                     options.message_sizes);
  JobTable job;
  job.collective = coll::Collective::kAllgather;
  job.nodes = 2;
  job.ppn = 16;
  job.entries.push_back(
      TuningEntry{std::numeric_limits<std::uint64_t>::max(),
                  coll::Selection::flat(coll::Algorithm::kAgRing)});
  poisoned.add(std::move(job));
  write_file(cache_file().string(), poisoned.to_json().dump(2) + "\n");

  const TuningTable served = trained().compile_or_cached(target(), options);
  // The served table is a fresh compile covering the full grid, not the
  // single-entry poison.
  EXPECT_TRUE(served.has(coll::Collective::kAlltoall, 2, 16));
  EXPECT_GT(served.job_count(), 1u);
  EXPECT_GE(counter_value("online.fallback.cache_stale"), 1u);
  // And the cache was upgraded to an envelope in passing.
  EXPECT_EQ(inspect_artifact(cache_file().string()).status,
            ArtifactStatus::kOk);
}

TEST_F(CacheRobustnessTest, V1TableInTheCacheIsRecompiledNotServed) {
  const CompileOptions options = options_in(dir_);
  const TuningTable clean = trained().compile_or_cached(target(), options);

  // The same table in the retired v1 layout (bare algorithm names), in a
  // valid envelope: it covers the sweep, but v1 no longer loads.
  Json v1 = artifact_payload(Json::parse(read_file(cache_file().string())),
                             "tuning-table");
  v1["format"] = "pml-mpi-tuning-table-v1";
  for (Json& job : v1["jobs"].as_array()) {
    for (Json& entry : job["entries"].as_array()) {
      Json flat = Json::object();
      flat["max_bytes"] = entry.at("max_bytes");
      flat["algorithm"] = entry.at("selection");
      entry = std::move(flat);
    }
  }
  write_artifact(cache_file().string(), v1, "tuning-table");

  const TuningTable recovered = trained().compile_or_cached(target(), options);
  EXPECT_EQ(recovered.to_json().dump(), clean.to_json().dump());
  EXPECT_GE(counter_value("online.fallback.cache_corrupt"), 1u);
  // The cache now holds the v2 table again.
  const Json cached = artifact_payload(
      Json::parse(read_file(cache_file().string())), "tuning-table");
  EXPECT_EQ(cached.at("format").as_string(), "pml-mpi-tuning-table-v2");
}

TEST_F(CacheRobustnessTest, UnreadableCacheRetriesThenRecompiles) {
  CompileOptions options = options_in(dir_);
  std::vector<double> sleeps;
  options.cache_retry.max_attempts = 3;
  options.cache_retry.sleep = [&](double s) { sleeps.push_back(s); };

  // A directory at the cache path: exists() is true, every read fails.
  std::filesystem::create_directories(cache_file());

  const TuningTable table = trained().compile_or_cached(target(), options);
  EXPECT_FALSE(table.empty());
  // All three read attempts ran (two backoff sleeps) before degrading.
  EXPECT_EQ(sleeps.size(), 2u);
  EXPECT_GE(counter_value("online.fallback.cache_unreadable"), 1u);
  // The rewrite onto a directory fails too: degrade and continue.
  EXPECT_GE(counter_value("online.fallback.cache_write_failed"), 1u);
}

TEST_F(CacheRobustnessTest, DeletedModelFallsBackToHeuristicTable) {
  CompileOptions options = options_in(dir_);
  const TuningTable table =
      online_table((dir_ / "missing_model.json").string(), target(), options);
  EXPECT_FALSE(table.empty());
  EXPECT_TRUE(table.has(coll::Collective::kAllgather, 2, 16));
  EXPECT_GE(counter_value("online.fallback.heuristic"), 1u);
}

TEST_F(CacheRobustnessTest, CorruptModelFallsBackToHeuristicTable) {
  CompileOptions options = options_in(dir_);
  const std::string model_path = (dir_ / "model.json").string();
  write_file(model_path, "{\"format\": \"pml-mpi-model-v1\", \"collec");

  const TuningTable table = online_table(model_path, target(), options);
  EXPECT_FALSE(table.empty());
  EXPECT_GE(counter_value("online.fallback.heuristic"), 1u);

  // Strict mode surfaces the failure instead.
  options.heuristic_fallback = false;
  EXPECT_THROW(online_table(model_path, target(), options), Error);
}

TEST_F(CacheRobustnessTest, HealthyModelRoundTripsThroughOnlineTable) {
  const CompileOptions options = options_in(dir_);
  const std::string model_path = (dir_ / "model.json").string();
  write_artifact(model_path, trained().to_json(), "model");

  const TuningTable via_file = online_table(model_path, target(), options);
  const TuningTable direct = trained().compile_for(target(), options);
  EXPECT_EQ(via_file.to_json().dump(), direct.to_json().dump());
  EXPECT_EQ(counter_value("online.fallback.heuristic"), 0u);
}

}  // namespace
}  // namespace pml::core
