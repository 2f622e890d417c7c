// Cross-model behaviour tests for RandomForest, GradientBoosting, Knn and
// LinearSvm: each must learn simple separable structure, produce valid
// probability vectors, and respect its hyperparameters.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ml/boosting.hpp"
#include "ml/factory.hpp"
#include "ml/forest.hpp"
#include "ml/knn.hpp"
#include "ml/metrics.hpp"
#include "ml/svm.hpp"

namespace pml::ml {
namespace {

/// Three Gaussian blobs in 2-D (multiclass, linearly separable).
Dataset three_blobs(int per_class, std::uint64_t seed) {
  Dataset d;
  d.num_classes = 3;
  Rng rng(seed);
  const double centers[3][2] = {{0.0, 0.0}, {6.0, 0.0}, {0.0, 6.0}};
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < per_class; ++i) {
      const std::vector<double> row = {rng.normal(centers[c][0], 0.7),
                                       rng.normal(centers[c][1], 0.7)};
      d.x.push_row(row);
      d.y.push_back(c);
    }
  }
  return d;
}

class AllModels : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<Classifier> make() const {
    return make_classifier(GetParam(), Json::object());
  }
};

TEST_P(AllModels, LearnsSeparableBlobs) {
  const Dataset train = three_blobs(60, 1);
  const Dataset test = three_blobs(20, 2);
  auto model = make();
  Rng rng(3);
  model->fit(train, rng);
  EXPECT_GT(evaluate_accuracy(*model, test), 0.9) << GetParam();
}

TEST_P(AllModels, ProbabilitiesAreValid) {
  const Dataset train = three_blobs(30, 5);
  auto model = make();
  Rng rng(6);
  model->fit(train, rng);
  const auto p = model->predict_proba(train.x.row(0));
  ASSERT_EQ(p.size(), 3u);
  double sum = 0.0;
  for (const double v : p) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0 + 1e-12);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST_P(AllModels, PredictBeforeFitThrows) {
  auto model = make();
  EXPECT_THROW(model->predict(std::vector<double>{0.0, 0.0}), MlError);
}

TEST_P(AllModels, AucIsHighOnSeparableData) {
  const Dataset train = three_blobs(50, 7);
  const Dataset test = three_blobs(25, 8);
  auto model = make();
  Rng rng(9);
  model->fit(train, rng);
  EXPECT_GT(evaluate_auc(*model, test), 0.95) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Families, AllModels,
    ::testing::Values("RandomForest", "GradientBoost", "KNN", "SVM"),
    [](const ::testing::TestParamInfo<const char*>& param_info) {
      return std::string(param_info.param);
    });

// ---- RandomForest specifics -------------------------------------------------

TEST(RandomForestModel, ImportancesNormalised) {
  const Dataset d = three_blobs(50, 11);
  RandomForest rf(RandomForestParams{.n_trees = 20});
  Rng rng(12);
  rf.fit(d, rng);
  const auto imp = rf.feature_importances();
  ASSERT_EQ(imp.size(), 2u);
  EXPECT_NEAR(imp[0] + imp[1], 1.0, 1e-9);
}

TEST(RandomForestModel, OobScoreTracksAccuracy) {
  // The forest carries no out-of-bag estimate; a fresh draw of the same
  // blobs stands in for the rows a tree never saw.
  const Dataset d = three_blobs(80, 13);
  RandomForest rf(RandomForestParams{.n_trees = 30});
  Rng rng(14);
  rf.fit(d, rng);
  EXPECT_GT(evaluate_accuracy(rf, three_blobs(40, 113)), 0.85);
}

TEST(RandomForestModel, NoBootstrapHasNoOob) {
  // Every tree fits all rows; the fit is still thread-count independent.
  const Dataset d = three_blobs(20, 15);
  auto fit_with = [&](int threads) {
    RandomForest rf(RandomForestParams{
        .n_trees = 5, .bootstrap = false, .threads = threads});
    Rng rng(16);
    rf.fit(d, rng);
    return rf.to_json().dump();
  };
  EXPECT_EQ(fit_with(4), fit_with(1));
}

TEST(RandomForestModel, DeterministicForSeed) {
  const Dataset d = three_blobs(40, 17);
  auto run = [&] {
    RandomForest rf(RandomForestParams{.n_trees = 10});
    Rng rng(18);
    rf.fit(d, rng);
    return rf.predict_proba(d.x.row(0));
  };
  EXPECT_EQ(run(), run());
}

TEST(RandomForestModel, ParallelFitIsByteIdenticalToSerial) {
  // The tentpole determinism contract: per-tree RNG streams are pre-split
  // sequentially, so the fitted model serializes byte-identically at any
  // thread count (threads=1 is the historical serial path).
  const Dataset d = three_blobs(50, 41);
  auto fit_with = [&](int threads) {
    RandomForest rf(RandomForestParams{.n_trees = 16, .threads = threads});
    Rng rng(42);
    rf.fit(d, rng);
    return rf;
  };
  const RandomForest serial = fit_with(1);
  for (const int threads : {2, 4, 8}) {
    const RandomForest parallel_fit = fit_with(threads);
    EXPECT_EQ(parallel_fit.to_json().dump(), serial.to_json().dump())
        << "threads=" << threads;
  }
}

TEST(RandomForestModel, JsonRoundTripPreservesImportances) {
  // Regression: a loaded forest used to read tree importances out of
  // bounds because from_json never restored them.
  const Dataset d = three_blobs(40, 43);
  RandomForest rf(RandomForestParams{.n_trees = 10});
  Rng rng(44);
  rf.fit(d, rng);
  const RandomForest restored =
      RandomForest::from_json(Json::parse(rf.to_json().dump()));
  const auto original = rf.feature_importances();
  const auto loaded = restored.feature_importances();
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t f = 0; f < original.size(); ++f) {
    EXPECT_DOUBLE_EQ(loaded[f], original[f]);
  }
}

TEST(RandomForestModel, JsonRoundTripPreservesPredictions) {
  const Dataset d = three_blobs(40, 19);
  RandomForest rf(RandomForestParams{.n_trees = 12});
  Rng rng(20);
  rf.fit(d, rng);
  const RandomForest restored =
      RandomForest::from_json(Json::parse(rf.to_json().dump()));
  EXPECT_EQ(restored.tree_count(), rf.tree_count());
  for (std::size_t r = 0; r < d.x.rows(); ++r) {
    EXPECT_EQ(restored.predict(d.x.row(r)), rf.predict(d.x.row(r)));
  }
}

TEST(RandomForestModel, FromJsonRejectsWrongModel) {
  Json j = Json::object();
  j["model"] = "linear_svm";
  EXPECT_THROW(RandomForest::from_json(j), MlError);
}

TEST(RandomForestModel, FromJsonReportsTheFirstCorruptTree) {
  // Trees decode serially, in tree order, so the error raised is the one
  // the first corrupt tree meets, however many loads run at once.
  const Dataset d = three_blobs(40, 47);
  RandomForest rf(RandomForestParams{.n_trees = 16});
  Rng rng(48);
  rf.fit(d, rng);
  const Json good = rf.to_json();

  // Tree 3 decodes fine but claims a fourth class, which only the
  // forest-level check in tree order rejects.
  Json bad = good;
  Json& tree3 = bad["trees"].as_array()[3];
  tree3["num_classes"] = 4;
  for (Json& node : tree3["nodes"].as_array()) {
    if (node.contains("proba")) node["proba"].push_back(0.0);
  }
  // Tree 7 fails inside its own decode: its root points back at itself.
  Json& tree7 = bad["trees"].as_array()[7];
  ASSERT_GE(tree7.at("nodes").as_array()[0].at("feature").as_int(), 0);
  tree7["nodes"].as_array()[0]["left"] = 0;

  // Concurrent loads leave each one a different number of idle workers,
  // from none to all of them.
  std::vector<std::string> errors(8);
  std::vector<std::thread> loaders;
  for (std::size_t i = 0; i < errors.size(); ++i) {
    loaders.emplace_back([&, i] {
      for (int k = 0; k < 5; ++k) {
        try {
          RandomForest::from_json(bad);
          errors[i] = "no error";
        } catch (const MlError& err) {
          if (errors[i].empty() || errors[i] == err.what()) {
            errors[i] = err.what();
          } else {
            errors[i] = "varying errors";
          }
        }
      }
    });
  }
  for (std::thread& t : loaders) t.join();
  for (const std::string& error : errors) {
    EXPECT_NE(error.find("tree 3 has 4 classes, forest has 3"),
              std::string::npos)
        << error;
  }
  EXPECT_EQ(RandomForest::from_json(good).to_json().dump(), good.dump());
}

// ---- GradientBoosting specifics ---------------------------------------------

TEST(GradientBoostingModel, MoreRoundsImproveTrainFit) {
  const Dataset d = three_blobs(60, 21);
  auto train_acc = [&](int rounds) {
    GradientBoosting gb(GradientBoostingParams{.n_rounds = rounds,
                                               .max_depth = 2});
    Rng rng(22);
    gb.fit(d, rng);
    return evaluate_accuracy(gb, d);
  };
  EXPECT_GE(train_acc(30), train_acc(1));
}

TEST(GradientBoostingModel, RejectsBadParams) {
  GradientBoosting bad_rounds(GradientBoostingParams{.n_rounds = 0});
  GradientBoosting bad_subsample(GradientBoostingParams{.subsample = 0.0});
  const Dataset d = three_blobs(10, 23);
  Rng rng(24);
  EXPECT_THROW(bad_rounds.fit(d, rng), MlError);
  EXPECT_THROW(bad_subsample.fit(d, rng), MlError);
}

TEST(GradientBoostingModel, SubsamplingStillLearns) {
  const Dataset train = three_blobs(60, 25);
  GradientBoosting gb(GradientBoostingParams{.n_rounds = 30, .subsample = 0.5});
  Rng rng(26);
  gb.fit(train, rng);
  EXPECT_GT(evaluate_accuracy(gb, train), 0.9);
}

// ---- KNN specifics ------------------------------------------------------------

TEST(KnnModel, KOneMemorisesTrainingSet) {
  const Dataset d = three_blobs(30, 27);
  Knn knn(KnnParams{.k = 1});
  Rng rng(28);
  knn.fit(d, rng);
  EXPECT_DOUBLE_EQ(evaluate_accuracy(knn, d), 1.0);
}

TEST(KnnModel, RejectsBadK) {
  Knn knn(KnnParams{.k = 0});
  const Dataset d = three_blobs(5, 29);
  Rng rng(30);
  EXPECT_THROW(knn.fit(d, rng), MlError);
}

TEST(KnnModel, DistanceWeightingBreaksTies) {
  // Query next to a single class-1 point with two distant class-0 points:
  // k=3 uniform votes class 0; distance weighting votes class 1.
  Dataset d;
  d.num_classes = 2;
  d.x.push_row(std::vector<double>{0.0, 0.0});
  d.y.push_back(1);
  d.x.push_row(std::vector<double>{10.0, 0.0});
  d.y.push_back(0);
  d.x.push_row(std::vector<double>{0.0, 10.0});
  d.y.push_back(0);
  Rng rng(31);
  Knn uniform(KnnParams{.k = 3, .distance_weighted = false});
  uniform.fit(d, rng);
  Knn weighted(KnnParams{.k = 3, .distance_weighted = true});
  weighted.fit(d, rng);
  const std::vector<double> query = {0.5, 0.5};
  EXPECT_EQ(uniform.predict(query), 0);
  EXPECT_EQ(weighted.predict(query), 1);
}

// ---- SVM specifics -------------------------------------------------------------

TEST(SvmModel, MarginsSeparateClasses) {
  const Dataset d = three_blobs(50, 33);
  LinearSvm svm;
  Rng rng(34);
  svm.fit(d, rng);
  // The decision function for the true class should usually be the largest.
  int hits = 0;
  for (std::size_t r = 0; r < d.x.rows(); ++r) {
    const auto margins = svm.decision_function(d.x.row(r));
    const int arg = static_cast<int>(
        std::max_element(margins.begin(), margins.end()) - margins.begin());
    hits += arg == d.y[r] ? 1 : 0;
  }
  EXPECT_GT(hits, static_cast<int>(0.9 * static_cast<double>(d.size())));
}

TEST(SvmModel, RejectsBadParams) {
  const Dataset d = three_blobs(5, 35);
  Rng rng(36);
  LinearSvm bad_lambda(SvmParams{.lambda = 0.0});
  EXPECT_THROW(bad_lambda.fit(d, rng), MlError);
  LinearSvm bad_epochs(SvmParams{.lambda = 1e-3, .epochs = 0});
  EXPECT_THROW(bad_epochs.fit(d, rng), MlError);
}

// ---- Factory -------------------------------------------------------------------

TEST(Factory, BuildsEveryFamilyWithParams) {
  Json rf_params = Json::object();
  rf_params["n_trees"] = 7;
  auto rf = make_classifier("RandomForest", rf_params);
  EXPECT_EQ(rf->name(), "RandomForest");

  Json knn_params = Json::object();
  knn_params["k"] = 3;
  EXPECT_EQ(make_classifier("KNN", knn_params)->name(), "KNN");
}

TEST(Factory, RejectsUnknownFamilyAndKeys) {
  EXPECT_THROW(make_classifier("DeepNet", Json::object()), MlError);
  Json typo = Json::object();
  typo["n_treez"] = 10;
  EXPECT_THROW(make_classifier("RandomForest", typo), MlError);
}

}  // namespace
}  // namespace pml::ml
