#include "ml/tree.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "ml/forest.hpp"

namespace pml::ml {
namespace {

/// Two well-separated 2-D blobs.
Dataset blobs(int per_class, double gap, std::uint64_t seed) {
  Dataset d;
  d.num_classes = 2;
  Rng rng(seed);
  for (int c = 0; c < 2; ++c) {
    for (int i = 0; i < per_class; ++i) {
      const double cx = c == 0 ? 0.0 : gap;
      const std::vector<double> row = {rng.normal(cx, 0.5),
                                       rng.normal(cx, 0.5)};
      d.x.push_row(row);
      d.y.push_back(c);
    }
  }
  return d;
}

TEST(GiniImpurity, KnownValues) {
  EXPECT_DOUBLE_EQ(gini_impurity(std::vector<double>{10, 0}), 0.0);
  EXPECT_DOUBLE_EQ(gini_impurity(std::vector<double>{5, 5}), 0.5);
  EXPECT_NEAR(gini_impurity(std::vector<double>{1, 1, 1}), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(gini_impurity(std::vector<double>{}), 0.0);
}

TEST(DecisionTree, PerfectlySeparableDataFitsExactly) {
  const Dataset d = blobs(50, 10.0, 1);
  DecisionTree tree;
  Rng rng(2);
  tree.fit(d.x, d.y, 2, rng);
  for (std::size_t r = 0; r < d.x.rows(); ++r) {
    EXPECT_EQ(tree.predict(d.x.row(r)), d.y[r]);
  }
}

TEST(DecisionTree, ProbabilitiesSumToOne) {
  const Dataset d = blobs(30, 2.0, 3);
  DecisionTree tree(TreeParams{.max_depth = 3});
  Rng rng(4);
  tree.fit(d.x, d.y, 2, rng);
  const auto p = tree.predict_proba(d.x.row(0));
  ASSERT_EQ(p.size(), 2u);
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-12);
}

TEST(DecisionTree, MaxDepthZeroIsMajorityVote) {
  Dataset d = blobs(10, 10.0, 5);
  d.y.assign(d.y.size(), 0);
  d.y[0] = 1;
  DecisionTree tree(TreeParams{.max_depth = 0});
  Rng rng(6);
  tree.fit(d.x, d.y, 2, rng);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.predict(d.x.row(0)), 0);
}

TEST(DecisionTree, MinSamplesLeafRespected) {
  const Dataset d = blobs(40, 4.0, 7);
  DecisionTree tree(TreeParams{.min_samples_leaf = 10});
  Rng rng(8);
  tree.fit(d.x, d.y, 2, rng);
  // With 80 samples and >=10 per leaf, at most 8 leaves -> at most 15 nodes.
  EXPECT_LE(tree.node_count(), 15u);
}

TEST(DecisionTree, ImportancesConcentrateOnInformativeFeature) {
  // Feature 0 is informative, feature 1 is noise.
  Dataset d;
  d.num_classes = 2;
  Rng data_rng(11);
  for (int i = 0; i < 200; ++i) {
    const double x0 = data_rng.uniform(-1.0, 1.0);
    const std::vector<double> row = {x0, data_rng.uniform(-1.0, 1.0)};
    d.x.push_row(row);
    d.y.push_back(x0 > 0.0 ? 1 : 0);
  }
  DecisionTree tree;
  Rng rng(12);
  tree.fit(d.x, d.y, 2, rng);
  const auto imp = tree.feature_importances();
  EXPECT_GT(imp[0], 10.0 * std::max(imp[1], 1e-12));
}

TEST(DecisionTree, FitWithExplicitSampleIndices) {
  const Dataset d = blobs(20, 10.0, 13);
  // Train only on class-0 rows: the tree must always predict class 0.
  std::vector<std::size_t> samples;
  for (std::size_t i = 0; i < 20; ++i) samples.push_back(i);
  DecisionTree tree;
  Rng rng(14);
  tree.fit(d.x, d.y, 2, rng, samples);
  for (std::size_t r = 20; r < 40; ++r) {
    EXPECT_EQ(tree.predict(d.x.row(r)), 0);
  }
}

TEST(DecisionTree, PredictBeforeFitThrows) {
  DecisionTree tree;
  EXPECT_THROW(tree.predict(std::vector<double>{1.0}), MlError);
}

TEST(DecisionTree, BadInputsThrow) {
  DecisionTree tree;
  Rng rng(1);
  Matrix empty;
  std::vector<int> y;
  EXPECT_THROW(tree.fit(empty, y, 2, rng), MlError);
}

// The tree document (DecisionTree::to_json) has one reader, the forest
// loader: these cases wrap one tree document in a one-tree forest document.

/// Load `tree_doc` through RandomForest::from_json as the only tree of a
/// forest over `n_features` features.
RandomForest load_tree(const Json& tree_doc, std::size_t n_features) {
  Json j = Json::object();
  j["model"] = "random_forest";
  j["num_classes"] = tree_doc.at("num_classes");
  j["n_features"] = n_features;
  Json params = Json::object();
  params["n_trees"] = 1;
  params["max_depth"] = -1;
  params["min_samples_leaf"] = 1;
  params["max_features"] = -1;
  params["bootstrap"] = false;
  j["params"] = std::move(params);
  Json trees = Json::array();
  trees.push_back(tree_doc);
  j["trees"] = std::move(trees);
  return RandomForest::from_json(j);
}

TEST(DecisionTree, JsonRoundTripPreservesPredictions) {
  const Dataset d = blobs(50, 3.0, 15);
  DecisionTree tree;
  Rng rng(16);
  tree.fit(d.x, d.y, 2, rng);
  const RandomForest restored =
      load_tree(Json::parse(tree.to_json().dump()), d.x.cols());
  for (std::size_t r = 0; r < d.x.rows(); ++r) {
    EXPECT_EQ(restored.predict(d.x.row(r)), tree.predict(d.x.row(r)));
    EXPECT_EQ(restored.predict_proba(d.x.row(r)),
              tree.predict_proba(d.x.row(r)));
  }
  // The loaded tree writes back the document it was read from.
  EXPECT_EQ(restored.to_json().at("trees").as_array()[0].dump(),
            tree.to_json().dump());
}

TEST(DecisionTree, JsonRoundTripPreservesImportances) {
  // Regression: from_json used to drop importances_, so a loaded tree
  // returned an empty span and downstream forest code read out of bounds.
  const Dataset d = blobs(50, 3.0, 21);
  DecisionTree tree;
  Rng rng(22);
  tree.fit(d.x, d.y, 2, rng);
  const RandomForest restored =
      load_tree(Json::parse(tree.to_json().dump()), d.x.cols());
  const auto original = tree.feature_importances();
  const Json written = restored.to_json();
  const Json::Array& loaded =
      written.at("trees").as_array()[0].at("importances").as_array();
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t f = 0; f < original.size(); ++f) {
    EXPECT_DOUBLE_EQ(loaded[f].as_number(), original[f]);
  }
}

TEST(DecisionTree, FromJsonWithoutImportancesFallsBackToZeros) {
  // Old bundles (pre-importances) must still load: zeros wide enough to
  // cover every feature the splits reference.
  const Dataset d = blobs(30, 5.0, 23);
  DecisionTree tree;
  Rng rng(24);
  tree.fit(d.x, d.y, 2, rng);
  Json j = tree.to_json();
  Json stripped = Json::object();
  stripped["num_classes"] = j.at("num_classes");
  stripped["depth"] = j.at("depth");
  stripped["nodes"] = j.at("nodes");
  const RandomForest restored = load_tree(stripped, d.x.cols());
  for (const double v : restored.feature_importances()) {
    EXPECT_DOUBLE_EQ(v, 0.0);
  }
  // Predictions are unaffected by the missing field.
  EXPECT_EQ(restored.predict(d.x.row(0)), tree.predict(d.x.row(0)));
}

/// Minimal valid serialized stump: root split on feature 0, two leaves.
Json stump_json() {
  Json j = Json::object();
  j["num_classes"] = 2;
  j["depth"] = 1;
  Json nodes = Json::array();
  Json root = Json::object();
  root["feature"] = 0;
  root["threshold"] = 0.5;
  root["left"] = 1;
  root["right"] = 2;
  nodes.push_back(std::move(root));
  for (const double p0 : {1.0, 0.0}) {
    Json leaf = Json::object();
    leaf["feature"] = -1;
    Json proba = Json::array();
    proba.push_back(p0);
    proba.push_back(1.0 - p0);
    leaf["proba"] = std::move(proba);
    nodes.push_back(std::move(leaf));
  }
  j["nodes"] = std::move(nodes);
  return j;
}

TEST(DecisionTree, FromJsonRejectsOutOfRangeChildIndex) {
  // Regression: an out-of-range child index used to crash predict_proba
  // with an OOB read instead of failing at load time.
  Json j = stump_json();
  j["nodes"].as_array()[0]["right"] = 99;
  EXPECT_THROW(load_tree(j, 1), MlError);
  Json neg = stump_json();
  neg["nodes"].as_array()[0]["left"] = -3;
  EXPECT_THROW(load_tree(neg, 1), MlError);
}

TEST(DecisionTree, FromJsonRejectsNonTerminatingNodeGraph) {
  // A self/backward edge used to make predict_proba loop forever.
  Json j = stump_json();
  j["nodes"].as_array()[0]["left"] = 0;
  EXPECT_THROW(load_tree(j, 1), MlError);
}

TEST(DecisionTree, FromJsonRejectsWrongProbaArity) {
  Json j = stump_json();
  j["nodes"].as_array()[1]["proba"].as_array().pop_back();
  EXPECT_THROW(load_tree(j, 1), MlError);
}

TEST(DecisionTree, FromJsonRejectsUndersizedImportances) {
  Json j = stump_json();
  Json imp = Json::array();  // splits reference feature 0; empty is too short
  j["importances"] = std::move(imp);
  EXPECT_THROW(load_tree(j, 1), MlError);
}

TEST(DecisionTree, FromJsonAcceptsValidStump) {
  const RandomForest tree = load_tree(stump_json(), 1);
  EXPECT_EQ(tree.predict(std::vector<double>{0.0}), 0);
  EXPECT_EQ(tree.predict(std::vector<double>{1.0}), 1);
}

TEST(DecisionTree, FitRejectsOutOfRangeLabels) {
  // Regression: counts[y[i]] was a silent OOB write for bad labels.
  const Dataset d = blobs(10, 5.0, 25);
  DecisionTree tree;
  Rng rng(26);
  std::vector<int> too_big = d.y;
  too_big[3] = 2;  // == num_classes
  EXPECT_THROW(tree.fit(d.x, too_big, 2, rng), MlError);
  std::vector<int> negative = d.y;
  negative[0] = -1;
  EXPECT_THROW(tree.fit(d.x, negative, 2, rng), MlError);
}

TEST(DecisionTree, FitRejectsNonFiniteFeatures) {
  // A NaN has no place in a value order (under a sort it broke strict weak
  // ordering; under ranks it would get a bogus bin): the fit names the cell.
  const Dataset d = blobs(10, 5.0, 27);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    Dataset broken = d;
    broken.x.at(7, 1) = bad;
    for (const bool reference : {false, true}) {
      DecisionTree tree(TreeParams{.reference_splitter = reference});
      Rng rng(28);
      try {
        tree.fit(broken.x, broken.y, 2, rng);
        ADD_FAILURE() << "fit accepted " << bad;
      } catch (const MlError& err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("row 7"), std::string::npos) << what;
        EXPECT_NE(what.find("column 1"), std::string::npos) << what;
      }
    }
    RandomForest forest(RandomForestParams{.n_trees = 3});
    Rng rng(29);
    EXPECT_THROW(forest.fit(broken, rng), MlError) << bad;
  }
}

TEST(RegressionTree, FitsStepFunction) {
  Matrix x(100, 1);
  std::vector<double> y(100);
  for (std::size_t i = 0; i < 100; ++i) {
    x.at(i, 0) = static_cast<double>(i);
    y[i] = i < 50 ? -1.0 : 3.0;
  }
  RegressionTree tree(TreeParams{.max_depth = 2});
  Rng rng(17);
  tree.fit(x, y, rng);
  EXPECT_NEAR(tree.predict(std::vector<double>{10.0}), -1.0, 1e-9);
  EXPECT_NEAR(tree.predict(std::vector<double>{90.0}), 3.0, 1e-9);
}

TEST(RegressionTree, LeafMembersPartitionSamples) {
  Matrix x(60, 1);
  std::vector<double> y(60);
  Rng data_rng(18);
  for (std::size_t i = 0; i < 60; ++i) {
    x.at(i, 0) = data_rng.uniform();
    y[i] = x.at(i, 0) * 2.0;
  }
  RegressionTree tree(TreeParams{.max_depth = 3});
  Rng rng(19);
  tree.fit(x, y, rng);
  std::size_t total = 0;
  for (const auto& members : tree.leaf_members()) total += members.size();
  EXPECT_EQ(total, 60u);
}

TEST(RegressionTree, SetLeafValueChangesPrediction) {
  Matrix x(10, 1);
  std::vector<double> y(10, 1.0);
  for (std::size_t i = 0; i < 10; ++i) x.at(i, 0) = static_cast<double>(i);
  RegressionTree tree;
  Rng rng(20);
  tree.fit(x, y, rng);
  const int leaf = tree.apply(std::vector<double>{4.0});
  tree.set_leaf_value(leaf, -7.5);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{4.0}), -7.5);
}

TEST(RegressionTree, ApplyBeforeFitThrows) {
  RegressionTree tree;
  EXPECT_THROW(tree.apply(std::vector<double>{0.0}), MlError);
}

}  // namespace
}  // namespace pml::ml
