// core::CompileOptions — the single options struct that replaced the
// positional (nodes, ppn, sizes) span triple across the online stage.
// Pins defaults, validation, the empty-grid fallback to the cluster's own
// benchmarked sweep, and the filesystem cache behaviour.
#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "common/error.hpp"
#include "core/framework.hpp"
#include "sim/hardware.hpp"

namespace pml::core {
namespace {

/// One small trained framework shared by every test in this binary.
PmlFramework& shared_framework() {
  static PmlFramework fw = [] {
    TrainOptions options;
    options.forest.n_trees = 8;
    const std::vector<sim::ClusterSpec> clusters = {
        sim::cluster_by_name("RI"), sim::cluster_by_name("Rome")};
    return PmlFramework::train(clusters, options);
  }();
  return fw;
}

TEST(CompileOptionsTest, DefaultsMatchDocumentedValues) {
  const CompileOptions options;
  EXPECT_TRUE(options.node_counts.empty());
  EXPECT_TRUE(options.ppn_values.empty());
  EXPECT_TRUE(options.message_sizes.empty());
  EXPECT_EQ(options.threads, 0);
  EXPECT_TRUE(options.cache_dir.empty());
  EXPECT_TRUE(options.trace_sink.empty());
  options.validate();  // empty grids are valid (cluster fallback)
}

TEST(CompileOptionsTest, SweepFactoryFillsTheGrids) {
  const auto options = CompileOptions::sweep({2, 4}, {16}, {1024});
  EXPECT_EQ(options.node_counts, (std::vector<int>{2, 4}));
  EXPECT_EQ(options.ppn_values, (std::vector<int>{16}));
  EXPECT_EQ(options.message_sizes, (std::vector<std::uint64_t>{1024}));
  EXPECT_EQ(options.threads, 0);
}

TEST(CompileOptionsTest, ValidateRejectsNonPositiveGridEntries) {
  EXPECT_THROW(CompileOptions::sweep({0}, {16}, {1024}).validate(),
               ConfigError);
  EXPECT_THROW(CompileOptions::sweep({2}, {-1}, {1024}).validate(),
               ConfigError);
  EXPECT_THROW(
      shared_framework().compile_for(sim::cluster_by_name("MRI"),
                                     CompileOptions::sweep({2}, {0}, {64})),
      ConfigError);
}

TEST(CompileOptionsTest, EmptyGridsFallBackToTheClustersOwnSweep) {
  auto& fw = shared_framework();
  const auto& cluster = sim::cluster_by_name("MRI");
  const TuningTable implicit = fw.compile_for(cluster);  // empty grids
  const TuningTable explicit_grid = fw.compile_for(
      cluster, CompileOptions::sweep(cluster.node_counts, cluster.ppn_values,
                                     cluster.message_sizes));
  EXPECT_EQ(implicit.to_json().dump(), explicit_grid.to_json().dump());
}

TEST(CompileOptionsTest, InMemoryCacheIsReusedWhenSweepMatches) {
  auto& fw = shared_framework();
  const auto& cluster = sim::cluster_by_name("MRI");
  const auto options = CompileOptions::sweep({2, 4}, {16}, {1024, 65536});
  TuningTable cache;
  const TuningTable& first = fw.compile_or_cached(cluster, options, cache);
  const std::string bytes = first.to_json().dump();
  const TuningTable& second = fw.compile_or_cached(cluster, options, cache);
  EXPECT_EQ(&first, &second);  // same object: the cache was reused
  EXPECT_EQ(second.to_json().dump(), bytes);
}

TEST(CompileOptionsTest, FilesystemCacheWritesAndReloadsTheTable) {
  namespace fs = std::filesystem;
  auto& fw = shared_framework();
  const auto& cluster = sim::cluster_by_name("MRI");
  const fs::path dir = fs::path(::testing::TempDir()) / "pml_table_cache";
  fs::remove_all(dir);
  auto options = CompileOptions::sweep({2, 4}, {16}, {1024, 65536});
  options.cache_dir = dir.string();

  const TuningTable fresh = fw.compile_or_cached(cluster, options);
  const fs::path table_path = dir / (cluster.name + ".table.json");
  ASSERT_TRUE(fs::exists(table_path));

  const TuningTable cached = fw.compile_or_cached(cluster, options);
  EXPECT_EQ(cached.to_json().dump(), fresh.to_json().dump());
  fs::remove_all(dir);
}

TEST(CompileOptionsTest, ThreadCountDoesNotChangeTheTable) {
  auto& fw = shared_framework();
  const auto& cluster = sim::cluster_by_name("Frontera");
  auto serial = CompileOptions::sweep({2, 4}, {8, 16}, {64, 4096});
  serial.threads = 1;
  auto parallel = serial;
  parallel.threads = 4;
  EXPECT_EQ(fw.compile_for(cluster, serial).to_json().dump(),
            fw.compile_for(cluster, parallel).to_json().dump());
}

}  // namespace
}  // namespace pml::core
