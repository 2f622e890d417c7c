#include "core/dataset_builder.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "coll/selection.hpp"
#include "obs/obs.hpp"

namespace pml::core {
namespace {

const sim::ClusterSpec& ri() { return sim::cluster_by_name("RI"); }

TEST(DatasetBuilder, RecordCountMatchesSweep) {
  // RI: 1 node count x 2 ppn values x 21 sizes = 42 records (Table I).
  const auto records =
      build_cluster_records(ri(), coll::Collective::kAllgather, {});
  EXPECT_EQ(records.size(), 42u);
}

TEST(DatasetBuilder, RecordsHaveValidLabelsAndTimes) {
  const auto records =
      build_cluster_records(ri(), coll::Collective::kAlltoall, {});
  const auto n_algos =
      coll::algorithms_for(coll::Collective::kAlltoall).size();
  for (const auto& rec : records) {
    ASSERT_EQ(rec.times.size(), n_algos);
    ASSERT_GE(rec.label, 0);
    ASSERT_LT(rec.label, static_cast<int>(n_algos));
    // The label is the argmin of the times.
    const double best = rec.times[static_cast<std::size_t>(rec.label)];
    ASSERT_TRUE(std::isfinite(best));
    for (const double t : rec.times) EXPECT_GE(t, best);
    EXPECT_EQ(rec.features.size(), feature_count());
  }
}

TEST(DatasetBuilder, DeterministicForSeed) {
  const BuildOptions options;
  const auto a = build_cluster_records(ri(), coll::Collective::kAllgather, options);
  const auto b = build_cluster_records(ri(), coll::Collective::kAllgather, options);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label);
    EXPECT_EQ(a[i].times, b[i].times);
  }
}

TEST(DatasetBuilder, SeedChangesNoisyMeasurements) {
  BuildOptions opts_a;
  BuildOptions opts_b;
  opts_b.seed = opts_a.seed + 1;
  const auto a = build_cluster_records(ri(), coll::Collective::kAllgather, opts_a);
  const auto b = build_cluster_records(ri(), coll::Collective::kAllgather, opts_b);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_difference = any_difference || a[i].times != b[i].times;
  }
  EXPECT_TRUE(any_difference);
}

TEST(DatasetBuilder, InvalidAlgorithmsMarkedInfinite) {
  // RI ppn values are {4, 8}; with 1 node, p=4 and p=8 are powers of two,
  // so use a cluster/ppn giving non-pow2 worlds: Frontera ppn includes 28.
  const auto records = build_cluster_records(
      sim::cluster_by_name("Frontera"), coll::Collective::kAlltoall, {});
  bool found_invalid = false;
  const auto& algos = coll::algorithms_for(coll::Collective::kAlltoall);
  for (const auto& rec : records) {
    const int p = rec.nodes * rec.ppn;
    for (std::size_t a = 0; a < algos.size(); ++a) {
      if (!coll::algorithm_supports(algos[a], p)) {
        EXPECT_TRUE(std::isinf(rec.times[a]));
        found_invalid = true;
      }
    }
  }
  EXPECT_TRUE(found_invalid);
}

TEST(DatasetBuilder, ToMlDatasetShapes) {
  const auto records =
      build_cluster_records(ri(), coll::Collective::kAllgather, {});
  const auto data = to_ml_dataset(records, coll::Collective::kAllgather);
  EXPECT_EQ(data.size(), records.size());
  EXPECT_EQ(data.x.cols(), feature_count());
  // Classes index the full label-space-v2 selection space; flat builds
  // simply leave the hierarchical suffix unpopulated.
  const std::size_t space =
      coll::selection_space(coll::Collective::kAllgather).size();
  EXPECT_EQ(static_cast<std::size_t>(data.num_classes), space);
  EXPECT_EQ(data.class_names.size(), space);
  EXPECT_NO_THROW(data.validate());
}

TEST(DatasetBuilder, ToMlDatasetColumnSubset) {
  const auto records =
      build_cluster_records(ri(), coll::Collective::kAllgather, {});
  const auto data =
      to_ml_dataset(records, coll::Collective::kAllgather, {0, 2, 4});
  EXPECT_EQ(data.x.cols(), 3u);
  EXPECT_EQ(data.feature_names,
            (std::vector<std::string>{"num_nodes", "msg_size", "l3_cache_mb"}));
}

TEST(DatasetBuilder, ToMlDatasetRejectsMixedCollectives) {
  auto records = build_cluster_records(ri(), coll::Collective::kAllgather, {});
  EXPECT_THROW(to_ml_dataset(records, coll::Collective::kAlltoall),
               TuningError);
}

TEST(DatasetBuilder, RowFilters) {
  std::vector<TuningRecord> records(4);
  records[0].cluster = "A";
  records[0].nodes = 1;
  records[1].cluster = "A";
  records[1].nodes = 8;
  records[2].cluster = "B";
  records[2].nodes = 2;
  records[3].cluster = "C";
  records[3].nodes = 16;

  const std::vector<std::string> names = {"A", "C"};
  EXPECT_EQ(rows_in_clusters(records, names),
            (std::vector<std::size_t>{0, 1, 3}));
  EXPECT_EQ(rows_with_nodes_at_most(records, 2),
            (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(rows_with_nodes_above(records, 2),
            (std::vector<std::size_t>{1, 3}));
}

TEST(DatasetBuilder, MultiClusterBuildConcatenates) {
  const std::vector<sim::ClusterSpec> clusters = {
      ri(), sim::cluster_by_name("Haswell")};
  const auto records =
      build_records(clusters, coll::Collective::kAllgather, {});
  const auto solo_ri =
      build_cluster_records(ri(), coll::Collective::kAllgather, {});
  const auto solo_haswell = build_cluster_records(
      sim::cluster_by_name("Haswell"), coll::Collective::kAllgather, {});
  EXPECT_EQ(records.size(), solo_ri.size() + solo_haswell.size());
}

TEST(DatasetBuilder, CellSeedSeparatesComponents) {
  // The sponge must be positional: swapping nodes and ppn, or shifting a
  // value between adjacent components, must change the seed.
  const auto base =
      cell_seed(1, "A", coll::Collective::kAllgather, 2, 4, 64);
  EXPECT_NE(base, cell_seed(1, "A", coll::Collective::kAllgather, 4, 2, 64));
  EXPECT_NE(base, cell_seed(1, "B", coll::Collective::kAllgather, 2, 4, 64));
  EXPECT_NE(base, cell_seed(1, "A", coll::Collective::kAlltoall, 2, 4, 64));
  EXPECT_NE(base, cell_seed(1, "A", coll::Collective::kAllgather, 2, 4, 65));
  EXPECT_NE(base, cell_seed(2, "A", coll::Collective::kAllgather, 2, 4, 64));
  EXPECT_EQ(base, cell_seed(1, "A", coll::Collective::kAllgather, 2, 4, 64));
}

TEST(DatasetBuilder, ParallelSweepIsByteIdenticalToSerial) {
  // The tentpole guarantee: records are bit-identical at any thread count.
  // Exact double equality is intentional — the per-cell RNG split makes the
  // noise stream independent of scheduling, not merely close.
  const std::vector<sim::ClusterSpec> clusters = {
      ri(), sim::cluster_by_name("Frontera")};
  BuildOptions serial;
  serial.threads = 1;
  const auto base =
      build_records(clusters, coll::Collective::kAllgather, serial);
  for (const int threads : {2, 8}) {
    BuildOptions opts;
    opts.threads = threads;
    const auto got =
        build_records(clusters, coll::Collective::kAllgather, opts);
    ASSERT_EQ(got.size(), base.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(got[i].cluster, base[i].cluster);
      EXPECT_EQ(got[i].nodes, base[i].nodes);
      EXPECT_EQ(got[i].ppn, base[i].ppn);
      EXPECT_EQ(got[i].msg_bytes, base[i].msg_bytes);
      EXPECT_EQ(got[i].features, base[i].features);
      EXPECT_EQ(got[i].times, base[i].times) << "threads=" << threads
                                             << " record=" << i;
      EXPECT_EQ(got[i].label, base[i].label);
    }
  }
}

/// A deliberately tiny grid so engine-mode tests stay fast: Frontera's
/// hardware at p ∈ {8, 16} with two message sizes (8 cells).
sim::ClusterSpec small_engine_grid() {
  sim::ClusterSpec grid = sim::cluster_by_name("Frontera");
  grid.node_counts = {2, 4};
  grid.ppn_values = {4};
  grid.message_sizes = {256, 4096};
  return grid;
}

BuildOptions engine_options() {
  BuildOptions options;
  options.cost_source = CostSource::kEngine;
  options.iterations = 2;
  return options;
}

TEST(DatasetBuilder, CostSourceNamesRoundTrip) {
  EXPECT_EQ(to_string(CostSource::kAnalytic), "analytic");
  EXPECT_EQ(to_string(CostSource::kEngine), "engine");
  EXPECT_EQ(cost_source_from_string("analytic"), CostSource::kAnalytic);
  EXPECT_EQ(cost_source_from_string("engine"), CostSource::kEngine);
  EXPECT_THROW(cost_source_from_string("exact"), ConfigError);
}

TEST(DatasetBuilder, MeasurementSeedSeparatesComponents) {
  const auto base = measurement_seed(7, 1, 0);
  EXPECT_NE(base, measurement_seed(8, 1, 0));
  EXPECT_NE(base, measurement_seed(7, 2, 0));
  EXPECT_NE(base, measurement_seed(7, 1, 1));
  EXPECT_NE(base, measurement_seed(7, 0, 1));  // positional, not summed
  EXPECT_EQ(base, measurement_seed(7, 1, 0));
}

TEST(DatasetBuilder, SweepCellContextNamesTheCell) {
  const std::string context = sweep_cell_context(
      "Frontera", coll::Collective::kAlltoall, 4, 28, 65536);
  EXPECT_NE(context.find("Frontera"), std::string::npos);
  EXPECT_NE(context.find("alltoall"), std::string::npos);
  EXPECT_NE(context.find("nodes=4"), std::string::npos);
  EXPECT_NE(context.find("ppn=28"), std::string::npos);
  EXPECT_NE(context.find("msg_bytes=65536"), std::string::npos);
}

TEST(DatasetBuilder, EngineRecordsBitIdenticalAcrossThreads) {
  // The tentpole acceptance: engine-mode records (measurement jitter comes
  // from measurement_seed, a pure function of the cell) are bit-identical
  // at 1, 2, and 8 threads.
  const std::vector<sim::ClusterSpec> clusters = {small_engine_grid()};
  BuildOptions serial = engine_options();
  serial.threads = 1;
  const auto base =
      build_records(clusters, coll::Collective::kAlltoall, serial);
  for (const int threads : {2, 8}) {
    BuildOptions opts = engine_options();
    opts.threads = threads;
    const auto got =
        build_records(clusters, coll::Collective::kAlltoall, opts);
    ASSERT_EQ(got.size(), base.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(got[i].times, base[i].times)
          << "threads=" << threads << " record=" << i;
      EXPECT_EQ(got[i].label, base[i].label);
    }
  }
}

TEST(DatasetBuilder, PruningSkipsMeasurements) {
  const std::vector<sim::ClusterSpec> clusters = {small_engine_grid()};
  BuildOptions options = engine_options();
  options.prune_topk = 1;
  options.prune_epsilon = 0.0;
  BuildStats stats;
  const auto records =
      build_records(clusters, coll::Collective::kAlltoall, options, stats);
  EXPECT_EQ(stats.cells, records.size());
  EXPECT_GT(stats.pruned_evals, 0u);
  EXPECT_EQ(stats.epsilon_evals, 0u);
  EXPECT_EQ(stats.prune_mispredictions, 0u);  // audit off
  for (const auto& rec : records) {
    std::size_t finite = 0;
    for (const double t : rec.times) finite += std::isfinite(t);
    // Top-1 plus any analytic ties; strictly fewer than the 5 alltoall
    // algorithms, so something was provably skipped.
    EXPECT_GE(finite, 1u);
    EXPECT_LT(finite, rec.times.size());
  }
}

TEST(DatasetBuilder, PruningKeepsSharedMeasurementsBitIdentical) {
  // Pruning must never perturb the measurements it keeps: every finite
  // entry of a pruned build equals the exhaustive build's entry exactly.
  const std::vector<sim::ClusterSpec> clusters = {small_engine_grid()};
  BuildOptions exhaustive = engine_options();
  exhaustive.prune_topk = 0;
  const auto base =
      build_records(clusters, coll::Collective::kAlltoall, exhaustive);
  BuildOptions pruned = engine_options();
  pruned.prune_topk = 2;
  pruned.prune_epsilon = 0.25;
  const auto got =
      build_records(clusters, coll::Collective::kAlltoall, pruned);
  ASSERT_EQ(got.size(), base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    for (std::size_t a = 0; a < base[i].times.size(); ++a) {
      if (std::isfinite(got[i].times[a])) {
        EXPECT_EQ(got[i].times[a], base[i].times[a])
            << "record=" << i << " algorithm=" << a;
      }
    }
  }
}

TEST(DatasetBuilder, FaultPlanForcesExhaustiveEngineMeasurement) {
  // The acceptance criterion: a non-empty FaultPlan bypasses pruning (the
  // analytic ranking is fault-blind), so every valid algorithm is measured
  // even with an aggressive top-k.
  const std::vector<sim::ClusterSpec> clusters = {small_engine_grid()};
  BuildOptions options = engine_options();
  options.prune_topk = 1;
  options.prune_epsilon = 0.0;
  options.faults.stragglers.push_back({0, 4.0});
  BuildStats stats;
  const auto records =
      build_records(clusters, coll::Collective::kAlltoall, options, stats);
  EXPECT_EQ(stats.pruned_evals, 0u);
  EXPECT_EQ(stats.epsilon_evals, 0u);
  const auto& algos = coll::algorithms_for(coll::Collective::kAlltoall);
  for (const auto& rec : records) {
    for (std::size_t a = 0; a < algos.size(); ++a) {
      if (coll::algorithm_supports(algos[a], rec.nodes * rec.ppn)) {
        EXPECT_TRUE(std::isfinite(rec.times[a]));
      }
    }
  }
}

TEST(DatasetBuilder, FaultPlanChangesEngineMeasurements) {
  const std::vector<sim::ClusterSpec> clusters = {small_engine_grid()};
  BuildOptions clean = engine_options();
  clean.prune_topk = 0;
  const auto base =
      build_records(clusters, coll::Collective::kAllgather, clean);
  BuildOptions faulted = clean;
  faulted.faults.stragglers.push_back({0, 4.0});
  const auto got =
      build_records(clusters, coll::Collective::kAllgather, faulted);
  ASSERT_EQ(got.size(), base.size());
  bool any_slower = false;
  for (std::size_t i = 0; i < base.size(); ++i) {
    any_slower = any_slower || got[i].times != base[i].times;
  }
  EXPECT_TRUE(any_slower);
}

TEST(DatasetBuilder, AuditMeasuresEverythingAndCountsMispredictions) {
  const std::vector<sim::ClusterSpec> clusters = {small_engine_grid()};
  BuildOptions audit = engine_options();
  audit.prune_topk = 1;
  audit.prune_epsilon = 0.0;
  audit.prune_audit = true;
  BuildStats stats;
  const auto records =
      build_records(clusters, coll::Collective::kAlltoall, audit, stats);
  // Audit keeps the records exhaustive (labels match the unpruned build)
  // while still tallying the simulated pruning decision.
  BuildOptions exhaustive = engine_options();
  exhaustive.prune_topk = 0;
  const auto base =
      build_records(clusters, coll::Collective::kAlltoall, exhaustive);
  ASSERT_EQ(records.size(), base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(records[i].times, base[i].times);
    EXPECT_EQ(records[i].label, base[i].label);
  }
  EXPECT_GT(stats.pruned_evals, 0u);
  EXPECT_LE(stats.prune_mispredictions, stats.cells);
}

TEST(DatasetBuilder, ObsCountersFlushEachCallOnce) {
  // Two builds into one BuildStats: each dataset.* counter must add each
  // call's own sums, so it ends equal to the accumulated struct.
  const bool was = obs::set_enabled(true);
  obs::reset();
  const std::vector<sim::ClusterSpec> clusters = {small_engine_grid()};
  BuildOptions audit = engine_options();
  audit.prune_topk = 1;
  audit.prune_epsilon = 0.25;
  audit.prune_audit = true;
  BuildStats stats;
  build_records(clusters, coll::Collective::kAlltoall, audit, stats);
  build_records(clusters, coll::Collective::kAllgather, audit, stats);
  const obs::Snapshot snap = obs::snapshot();
  obs::set_enabled(was);
  const auto counter = [&](const std::string& name) {
    for (const obs::CounterSample& c : snap.counters) {
      if (c.name == name) return c.value;
    }
    return std::uint64_t{0};
  };
  EXPECT_GT(stats.measured_evals, 0u);
  EXPECT_GT(stats.pruned_evals, 0u);
  EXPECT_EQ(counter("dataset.cells"), stats.cells);
  EXPECT_EQ(counter("dataset.measured_evals"), stats.measured_evals);
  EXPECT_EQ(counter("dataset.pruned_evals"), stats.pruned_evals);
  EXPECT_EQ(counter("dataset.epsilon_evals"), stats.epsilon_evals);
  EXPECT_EQ(counter("dataset.prune_mispredictions"),
            stats.prune_mispredictions);
}

TEST(DatasetBuilder, AnalyticCostSourceRejectsFaultPlan) {
  BuildOptions options;  // kAnalytic
  options.faults.stragglers.push_back({0, 2.0});
  EXPECT_THROW(
      build_cluster_records(ri(), coll::Collective::kAllgather, options),
      TuningError);
}

TEST(DatasetBuilder, RecordsJsonRoundTrip) {
  // Frontera's sweep includes ppn=28 worlds, so some times are +inf
  // (invalid algorithms) and the round trip covers the null encoding.
  BuildOptions options;
  options.iterations = 2;
  const auto records = build_cluster_records(
      sim::cluster_by_name("Frontera"), coll::Collective::kAlltoall, options);
  const Json doc = records_to_json(records, coll::Collective::kAlltoall);
  const auto parsed = records_from_json(doc);
  ASSERT_EQ(parsed.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(parsed[i].cluster, records[i].cluster);
    EXPECT_EQ(parsed[i].nodes, records[i].nodes);
    EXPECT_EQ(parsed[i].ppn, records[i].ppn);
    EXPECT_EQ(parsed[i].msg_bytes, records[i].msg_bytes);
    EXPECT_EQ(parsed[i].collective, records[i].collective);
    EXPECT_EQ(parsed[i].features, records[i].features);
    EXPECT_EQ(parsed[i].times, records[i].times);
    EXPECT_EQ(parsed[i].label, records[i].label);
  }
}

TEST(DatasetBuilder, LabelsAreDiverseAcrossSweep) {
  // Over a full sweep of a multi-node cluster, more than one algorithm
  // must win somewhere (otherwise there is nothing to learn).
  const auto records = build_cluster_records(
      sim::cluster_by_name("Frontera"), coll::Collective::kAllgather, {});
  std::set<int> labels;
  for (const auto& rec : records) labels.insert(rec.label);
  EXPECT_GE(labels.size(), 2u);
}

}  // namespace
}  // namespace pml::core
