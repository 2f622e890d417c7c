#include "core/framework.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "coll/cost.hpp"
#include "common/error.hpp"

namespace pml::core {
namespace {

/// Small, fast training configuration for tests: a handful of clusters and
/// a compact forest (still enough signal to be meaningfully better than
/// chance on unseen hardware).
TrainOptions fast_options() {
  TrainOptions options;
  options.forest.n_trees = 25;
  return options;
}

std::vector<sim::ClusterSpec> small_training_set() {
  // Architecturally diverse subset (Intel/AMD/ARM, QDR..HDR, OPA).
  std::vector<sim::ClusterSpec> out;
  for (const char* name :
       {"RI", "RI2", "Rome", "Haswell", "Catalyst", "Bridges", "Spock"}) {
    out.push_back(sim::cluster_by_name(name));
  }
  return out;
}

const PmlFramework& shared_framework() {
  static const PmlFramework fw =
      PmlFramework::train(small_training_set(), fast_options());
  return fw;
}

TEST(Framework, SelectsValidAlgorithmsOnUnseenCluster) {
  auto fw = shared_framework();  // copy: select() is non-const
  const auto& mri = sim::cluster_by_name("MRI");
  for (const auto collective :
       {coll::Collective::kAllgather, coll::Collective::kAlltoall}) {
    for (const int ppn : {7, 16, 28}) {  // includes non-pow2 worlds
      const sim::Topology topo{3, ppn};
      for (std::uint64_t msg = 1; msg <= (1u << 20); msg <<= 3) {
        const coll::Selection sel = fw.select(collective, mri, topo, msg);
        EXPECT_TRUE(coll::selection_supports(sel, topo));
        EXPECT_EQ(sel.collective(), collective);
      }
    }
  }
}

TEST(Framework, SelectManyAndSelectBatchMatchScalarSelect) {
  auto fw = shared_framework();
  const auto& mri = sim::cluster_by_name("MRI");

  // select_many: one cell's whole message sweep in a single batched
  // inference must reproduce the per-size select() loop exactly (this is
  // what makes batched tuning-table compiles bit-identical to scalar).
  std::vector<std::uint64_t> sizes;
  for (std::uint64_t msg = 1; msg <= (1u << 20); msg <<= 1) {
    sizes.push_back(msg);
  }
  for (const auto collective :
       {coll::Collective::kAllgather, coll::Collective::kAlltoall}) {
    for (const int ppn : {7, 16, 28}) {
      const sim::Topology topo{3, ppn};
      std::vector<coll::Selection> batched(sizes.size());
      fw.select_many(collective, mri, topo, sizes, batched);
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        EXPECT_EQ(batched[i], fw.select(collective, mri, topo, sizes[i]))
            << "ppn " << ppn << " msg " << sizes[i];
      }
    }
  }

  // Shape mismatches fail loudly.
  std::vector<coll::Selection> wrong(sizes.size() + 1);
  EXPECT_THROW(fw.select_many(coll::Collective::kAlltoall, mri,
                              sim::Topology{3, 16}, sizes, wrong),
               TuningError);
}

TEST(Framework, BeatsRandomSelectionOnUnseenCluster) {
  auto fw = shared_framework();
  RandomSelector random_sel(3);
  const auto& mri = sim::cluster_by_name("MRI");
  const sim::Topology topo{4, 64};
  double log_ratio = 0.0;
  int n = 0;
  for (const auto collective :
       {coll::Collective::kAllgather, coll::Collective::kAlltoall}) {
    for (std::uint64_t msg = 1; msg <= (1u << 15); msg <<= 1) {
      const double t_fw = coll::analytic_cost(
          mri, topo, fw.select(collective, mri, topo, msg), msg);
      double t_rand = 0.0;
      for (int i = 0; i < 8; ++i) {
        t_rand += coll::analytic_cost(
            mri, topo, random_sel.select(collective, mri, topo, msg), msg);
      }
      t_rand /= 8.0;
      log_ratio += std::log(t_rand / t_fw);
      ++n;
    }
  }
  EXPECT_GT(std::exp(log_ratio / n), 1.3);  // well above parity
}

TEST(Framework, NearOracleOnTrainingCluster) {
  auto fw = shared_framework();
  OracleSelector oracle;
  const auto& rome = sim::cluster_by_name("Rome");  // in the training set
  const sim::Topology topo{4, 32};
  double log_ratio = 0.0;
  int n = 0;
  for (std::uint64_t msg = 1; msg <= (1u << 20); msg <<= 1) {
    const double t_fw = coll::analytic_cost(
        rome, topo, fw.select(coll::Collective::kAlltoall, rome, topo, msg),
        msg);
    const double t_orc = coll::analytic_cost(
        rome, topo, oracle.select(coll::Collective::kAlltoall, rome, topo, msg),
        msg);
    log_ratio += std::log(t_fw / t_orc);
    ++n;
  }
  EXPECT_LT(std::exp(log_ratio / n), 1.15);  // within 15% of optimal
}

TEST(Framework, CompileForProducesCompleteTable) {
  auto fw = shared_framework();
  const auto& mri = sim::cluster_by_name("MRI");
  const std::vector<int> nodes = {1, 2, 4};
  const std::vector<int> ppns = {64, 128};
  const auto sizes = sim::power_of_two_sizes(16);
  const TuningTable table = fw.compile_for(mri, CompileOptions::sweep(nodes, ppns, sizes));
  EXPECT_EQ(table.cluster_name(), "MRI");
  EXPECT_EQ(table.job_count(), 2u * 3u * 2u);  // collectives x nodes x ppns
  EXPECT_GT(fw.inference_seconds(), 0.0);
  EXPECT_LT(fw.inference_seconds(), 1.0);  // paper: "less than a second"
  // Table answers must match direct inference.
  for (std::uint64_t msg = 1; msg <= (1u << 15); msg <<= 2) {
    EXPECT_EQ(table.lookup(coll::Collective::kAlltoall, 4, 64, msg),
              fw.select(coll::Collective::kAlltoall, mri,
                        sim::Topology{4, 64}, msg));
  }
}

TEST(Framework, CompileOrCachedReusesExistingTable) {
  auto fw = shared_framework();
  const auto& mri = sim::cluster_by_name("MRI");
  const std::vector<int> nodes = {1, 2};
  const std::vector<int> ppns = {64};
  const auto sizes = sim::power_of_two_sizes(8);

  TuningTable cache;
  const TuningTable& first =
      fw.compile_or_cached(mri, CompileOptions::sweep(nodes, ppns, sizes), cache);
  EXPECT_EQ(first.cluster_name(), "MRI");
  const double first_inference = fw.inference_seconds();

  // Second call: the cached table short-circuits the ML path (Fig. 4).
  const TuningTable& second =
      fw.compile_or_cached(mri, CompileOptions::sweep(nodes, ppns, sizes), cache);
  EXPECT_EQ(&second, &cache);
  EXPECT_EQ(fw.inference_seconds(), first_inference);  // no new inference

  // A different cluster invalidates the cache.
  const auto& frontera = sim::cluster_by_name("Frontera");
  const TuningTable& third =
      fw.compile_or_cached(frontera, CompileOptions::sweep(nodes, ppns, sizes), cache);
  EXPECT_EQ(third.cluster_name(), "Frontera");
}

TEST(Framework, CompileOrCachedRecompilesWhenSweepChanges) {
  // Regression: the cache hit used to key on cluster name only, so a call
  // with different node/ppn/message sweeps silently returned a stale table.
  auto fw = shared_framework();
  const auto& mri = sim::cluster_by_name("MRI");
  const std::vector<int> nodes = {1, 2};
  const std::vector<int> ppns = {64};
  const auto sizes = sim::power_of_two_sizes(8);

  TuningTable cache;
  fw.compile_or_cached(mri, CompileOptions::sweep(nodes, ppns, sizes), cache);
  EXPECT_EQ(cache.job_count(), 2u * 2u * 1u);

  const std::vector<int> more_nodes = {1, 2, 4, 8};
  const TuningTable& recompiled =
      fw.compile_or_cached(mri, CompileOptions::sweep(more_nodes, ppns, sizes), cache);
  EXPECT_EQ(recompiled.job_count(), 2u * 4u * 1u);
  EXPECT_TRUE(recompiled.has(coll::Collective::kAllgather, 8, 64));

  // Changing only the message sweep also invalidates the cache.
  const double before = fw.inference_seconds();
  const auto more_sizes = sim::power_of_two_sizes(12);
  fw.compile_or_cached(mri, CompileOptions::sweep(more_nodes, ppns, more_sizes), cache);
  EXPECT_NE(fw.inference_seconds(), before);
  EXPECT_TRUE(cache.matches_sweep(more_nodes, ppns, more_sizes));

  // And an identical sweep still hits.
  const double after = fw.inference_seconds();
  fw.compile_or_cached(mri, CompileOptions::sweep(more_nodes, ppns, more_sizes), cache);
  EXPECT_EQ(fw.inference_seconds(), after);
}

TEST(Framework, CompileOrCachedRecompilesWhenHardwareChangesUnderOneName) {
  // Regression: the in-memory cache used to match on cluster name + sweep
  // only, so two same-named specs with different silicon silently shared
  // one table. Coverage now requires the hardware fingerprint to match.
  auto fw = shared_framework();
  sim::ClusterSpec original = sim::cluster_by_name("MRI");
  sim::ClusterSpec respeced = original;
  respeced.hw.cores = original.hw.cores * 2;
  respeced.hw.mem_bw_gbs = original.hw.mem_bw_gbs / 2.0;
  ASSERT_NE(original.hardware_fingerprint(), respeced.hardware_fingerprint());

  const CompileOptions options =
      CompileOptions::sweep({1, 2}, {64}, sim::power_of_two_sizes(8));
  TuningTable cache;
  fw.compile_or_cached(original, options, cache);
  EXPECT_TRUE(cache.matches_cluster(original));
  EXPECT_FALSE(cache.matches_cluster(respeced));

  const double before = fw.inference_seconds();
  fw.compile_or_cached(respeced, options, cache);
  EXPECT_NE(fw.inference_seconds(), before);  // recompiled, no stale reuse
  EXPECT_TRUE(cache.matches_cluster(respeced));

  // The fingerprint is provenance: it survives a JSON round trip.
  const TuningTable back = TuningTable::from_json(cache.to_json());
  EXPECT_TRUE(back.matches_cluster(respeced));
  EXPECT_EQ(back.cluster_fingerprint(), respeced.hardware_fingerprint());
}

TEST(Framework, ParallelTrainingIsByteIdenticalToSerial) {
  TrainOptions options = fast_options();
  options.forest.n_trees = 8;
  options.threads = 1;
  std::vector<sim::ClusterSpec> clusters = {sim::cluster_by_name("RI"),
                                            sim::cluster_by_name("Rome")};
  const std::string serial = PmlFramework::train(clusters, options)
                                 .to_json()
                                 .dump();
  // 0 = every hardware thread.
  for (const int threads : {2, 3, 0}) {
    options.threads = threads;
    EXPECT_EQ(PmlFramework::train(clusters, options).to_json().dump(), serial)
        << "threads " << threads;
  }
}

TEST(Framework, JsonRoundTripPreservesSelections) {
  auto fw = shared_framework();
  const Json bundle = fw.to_json();
  auto restored = PmlFramework::load(Json::parse(bundle.dump()));
  const auto& mri = sim::cluster_by_name("MRI");
  const sim::Topology topo{2, 16};
  for (const auto collective :
       {coll::Collective::kAllgather, coll::Collective::kAlltoall}) {
    for (std::uint64_t msg = 1; msg <= (1u << 20); msg <<= 1) {
      EXPECT_EQ(restored.select(collective, mri, topo, msg),
                fw.select(collective, mri, topo, msg));
    }
  }
}

TEST(Framework, LoadedModelMatchesTheFittedOne) {
  // A loaded forest is decoded straight into the packed form the fitted
  // one was flattened into: the bundle re-serializes to the same bytes and
  // every Table-I cluster compiles to the same table, flat and hierarchical.
  for (const bool hierarchy : {false, true}) {
    TrainOptions options = fast_options();
    options.forest.n_trees = 8;
    options.build.hierarchy = hierarchy;
    PmlFramework fitted = PmlFramework::train(small_training_set(), options);
    const std::string bundle = fitted.to_json().dump();
    PmlFramework loaded = PmlFramework::load(Json::parse(bundle));
    EXPECT_EQ(loaded.to_json().dump(), bundle) << "hierarchy " << hierarchy;
    ASSERT_EQ(sim::builtin_clusters().size(), 18u);
    for (const sim::ClusterSpec& cluster : sim::builtin_clusters()) {
      EXPECT_EQ(loaded.compile_for(cluster).to_json().dump(),
                fitted.compile_for(cluster).to_json().dump())
          << cluster.name << " hierarchy " << hierarchy;
    }
  }
}

/// `fitted`'s bundle in the v1 layout: the v2 bundle with its format tag
/// and every forest swapped for the node-object rendering.
Json v1_bundle(const PmlFramework& fitted) {
  Json bundle = fitted.to_json();
  bundle["format"] = "pml-mpi-model-v1";
  for (auto& [name, part] : bundle["collectives"].as_object()) {
    part["forest"] =
        fitted.model(coll::collective_from_string(name)).to_json();
  }
  return bundle;
}

TEST(ModelBundleV2, LoadsTheSameModelAsV1) {
  // One fit, loaded from its v1 and from its v2 rendering: the v2-loaded
  // forests render the v1 bytes again (the layout is lossless), and every
  // Table-I cluster compiles to the same table, flat and hierarchical.
  for (const bool hierarchy : {false, true}) {
    TrainOptions options = fast_options();
    options.forest.n_trees = 8;
    options.build.hierarchy = hierarchy;
    const PmlFramework fitted =
        PmlFramework::train(small_training_set(), options);
    const std::string v2 = fitted.to_json().dump();
    const std::string v1 = v1_bundle(fitted).dump();
    ASSERT_NE(v2.find("\"pml-mpi-model-v2\""), std::string::npos);
    EXPECT_LT(v2.size(), v1.size());
    PmlFramework from_v1 = PmlFramework::load(Json::parse(v1));
    PmlFramework from_v2 = PmlFramework::load(Json::parse(v2));
    EXPECT_EQ(from_v1.to_json().dump(), v2) << "hierarchy " << hierarchy;
    EXPECT_EQ(v1_bundle(from_v2).dump(), v1) << "hierarchy " << hierarchy;
    for (const auto collective :
         {coll::Collective::kAllgather, coll::Collective::kAlltoall}) {
      EXPECT_EQ(from_v2.model(collective).to_json().dump(),
                fitted.model(collective).to_json().dump());
    }
    ASSERT_EQ(sim::builtin_clusters().size(), 18u);
    for (const sim::ClusterSpec& cluster : sim::builtin_clusters()) {
      EXPECT_EQ(from_v2.compile_for(cluster).to_json().dump(),
                from_v1.compile_for(cluster).to_json().dump())
          << cluster.name << " hierarchy " << hierarchy;
    }
  }
}

/// Both renderings of the shared fit, each with `edit` applied to the
/// alltoall part. Checksums play no role here: load() sees the payload.
std::vector<Json> edited_bundles(const std::function<void(Json& part)>& edit) {
  std::vector<Json> bundles = {shared_framework().to_json(),
                               v1_bundle(shared_framework())};
  for (Json& bundle : bundles) edit(bundle["collectives"]["alltoall"]);
  return bundles;
}

void expect_load_fails(const std::function<void(Json& part)>& edit,
                       const std::string& fragment) {
  for (const Json& bundle : edited_bundles(edit)) {
    try {
      PmlFramework::load(bundle);
      ADD_FAILURE() << bundle.at("format").as_string() << " loaded";
    } catch (const TuningError& err) {
      EXPECT_NE(std::string(err.what()).find(fragment), std::string::npos)
          << err.what();
    }
  }
}

TEST(ModelBundleV2, LoadRejectsMoreClassesThanTheSelectionSpace) {
  // Used to size the leaf pool from the claim and die of std::bad_alloc,
  // which no Error handler catches.
  expect_load_fails(
      [](Json& part) { part["forest"]["num_classes"] = 100000000; },
      "100000000 classes but the selection space holds");
}

TEST(ModelBundleV2, LoadRejectsAColumnBeyondTheFeatureLayout) {
  // Used to load, then fail every compile and write out of bounds in
  // full_feature_importances.
  expect_load_fails(
      [](Json& part) { part["columns"].as_array().back() = 5000000; },
      "column 5000000 is out of range or not ascending");
  expect_load_fails(
      [](Json& part) { part["columns"].as_array().front() = -1; },
      "column -1 is out of range");
}

TEST(ModelBundleV2, LoadRejectsColumnsThatDoNotAscend) {
  expect_load_fails(
      [](Json& part) {
        Json::Array& columns = part["columns"].as_array();
        std::swap(columns[0], columns[1]);
      },
      "not ascending");
  expect_load_fails(
      [](Json& part) {
        Json::Array& columns = part["columns"].as_array();
        columns[1] = columns[0];
      },
      "not ascending");
}

TEST(ModelBundleV2, LoadRejectsAColumnCountOtherThanTheForestWidth) {
  expect_load_fails(
      [](Json& part) { part["columns"].as_array().pop_back(); },
      "features for " + std::to_string(feature_count() - 1) + " columns");
}

TEST(ModelBundleV2, LoadRejectsANegativeForestWidth) {
  expect_load_fails([](Json& part) { part["forest"]["n_features"] = -1; },
                    "forest has -1 features");
}

TEST(Framework, LoadRejectsMalformedBundles) {
  EXPECT_THROW(PmlFramework::load(Json::object()), Error);
  Json j = Json::object();
  j["format"] = "pml-mpi-model-v1";
  j["collectives"] = Json::object();
  EXPECT_THROW(PmlFramework::load(j), TuningError);
}

TEST(Framework, FeatureImportancesCoverFullLayout) {
  const auto& fw = shared_framework();
  const auto imp =
      fw.full_feature_importances(coll::Collective::kAllgather);
  ASSERT_EQ(imp.size(), feature_count());
  double sum = 0.0;
  for (const double v : imp) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Framework, LoadedBundlePreservesFeatureImportances) {
  // Regression: full_feature_importances on a loaded bundle was undefined
  // behaviour (per-tree importances were never restored from JSON).
  const auto& fw = shared_framework();
  const auto restored = PmlFramework::load(Json::parse(fw.to_json().dump()));
  for (const auto collective :
       {coll::Collective::kAllgather, coll::Collective::kAlltoall}) {
    const auto original = fw.full_feature_importances(collective);
    const auto loaded = restored.full_feature_importances(collective);
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t f = 0; f < original.size(); ++f) {
      EXPECT_DOUBLE_EQ(loaded[f], original[f]);
    }
  }
}

TEST(Framework, TopFeatureSelectionShrinksModelInput) {
  TrainOptions options = fast_options();
  options.top_features = 5;
  const auto fw = PmlFramework::train(small_training_set(), options);
  EXPECT_EQ(fw.selected_columns(coll::Collective::kAllgather).size(), 5u);
  EXPECT_EQ(fw.selected_columns(coll::Collective::kAlltoall).size(), 5u);
  // Importances of dropped columns are zero, and the kept ones sum to 1.
  const auto imp = fw.full_feature_importances(coll::Collective::kAlltoall);
  int nonzero = 0;
  for (const double v : imp) nonzero += v > 0.0 ? 1 : 0;
  EXPECT_LE(nonzero, 5);
}

TEST(Framework, MsgSizeAmongTopSelectedFeatures) {
  TrainOptions options = fast_options();
  options.top_features = 5;
  const auto fw = PmlFramework::train(small_training_set(), options);
  const auto& cols = fw.selected_columns(coll::Collective::kAlltoall);
  EXPECT_NE(std::find(cols.begin(), cols.end(), feature_index("msg_size")),
            cols.end());
}

}  // namespace
}  // namespace pml::core
