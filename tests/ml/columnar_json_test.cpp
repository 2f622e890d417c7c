// Model bundle v2 tree documents: FlatForest::columnar_tree_json writes
// them and RandomForest::from_json reads them back. The round trip must be
// lossless (the v1 rendering of a v2-loaded forest is byte-identical), and
// every inconsistency a corrupt bundle can carry must fail with an MlError
// that names the tree, before anything is walked.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "ml/forest.hpp"

namespace pml::ml {
namespace {

/// Three overlapping classes over four features, so some leaves stay mixed.
Dataset blobs(int per_class, std::uint64_t seed) {
  Dataset d;
  d.num_classes = 3;
  Rng rng(seed);
  for (int i = 0; i < per_class * 3; ++i) {
    const int label = i % 3;
    std::vector<double> row;
    for (int f = 0; f < 4; ++f) row.push_back(rng.normal(1.5 * label, 1.0));
    d.x.push_row(row);
    d.y.push_back(label);
  }
  return d;
}

Json numbers(std::initializer_list<double> values) {
  Json a = Json::array();
  for (const double v : values) a.push_back(v);
  return a;
}

/// A hand-made v2 forest of 3 classes over 2 features. Tree 0 is a stump;
/// tree 1 is split(f1) -> [split(f0) -> [leaf, leaf], leaf] with a
/// two-entry, a one-entry and a three-entry leaf.
Json small_forest() {
  Json params = Json::object();
  params["n_trees"] = 2;
  params["max_depth"] = -1;
  params["min_samples_leaf"] = 1;
  params["max_features"] = -1;
  params["bootstrap"] = true;
  Json tree0 = Json::object();
  tree0["depth"] = 1;
  tree0["importances"] = numbers({1.0, 0.0});
  tree0["feature"] = numbers({0, -1, -1});
  tree0["threshold"] = numbers({0.5});
  tree0["leaf_nnz"] = numbers({1, 1});
  tree0["leaf_class"] = numbers({0, 2});
  tree0["leaf_proba"] = numbers({1.0, 1.0});
  Json tree1 = Json::object();
  tree1["depth"] = 2;
  tree1["importances"] = numbers({0.5, 0.5});
  tree1["feature"] = numbers({1, 0, -1, -1, -1});
  tree1["threshold"] = numbers({0.5, 0.25});
  tree1["leaf_nnz"] = numbers({2, 1, 3});
  tree1["leaf_class"] = numbers({0, 1, 2, 0, 1, 2});
  tree1["leaf_proba"] = numbers({0.5, 0.5, 1.0, 0.25, 0.25, 0.5});
  Json j = Json::object();
  j["model"] = "random_forest";
  j["num_classes"] = 3;
  j["n_features"] = 2;
  j["params"] = std::move(params);
  Json trees = Json::array();
  trees.push_back(std::move(tree0));
  trees.push_back(std::move(tree1));
  j["trees"] = std::move(trees);
  return j;
}

Json::Array& tree1_array(Json& forest, const char* key) {
  return forest["trees"].as_array()[1][key].as_array();
}

/// Load `forest` expecting an MlError that names tree 1 and contains
/// `fragment`.
void expect_rejected(const Json& forest, const std::string& fragment) {
  try {
    RandomForest::from_json(forest);
    FAIL() << "corrupt tree loaded; expected: " << fragment;
  } catch (const MlError& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("tree 1"), std::string::npos) << what;
    EXPECT_NE(what.find(fragment), std::string::npos) << what;
  }
}

std::vector<std::uint64_t> leaf_bits(const RandomForest& forest,
                                     std::size_t tree,
                                     std::initializer_list<double> row) {
  std::vector<std::uint64_t> bits;
  const std::vector<double> x(row);
  for (const double p : forest.flat().tree_leaf(tree, x)) {
    bits.push_back(std::bit_cast<std::uint64_t>(p));
  }
  return bits;
}

TEST(ColumnarTreeJson, FittedForestRoundTripsLosslessly) {
  const Dataset d = blobs(40, 17);
  RandomForest forest(RandomForestParams{.n_trees = 12});
  Rng rng(18);
  forest.fit(d, rng);
  const std::string v2 = forest.to_columnar_json().dump();
  const RandomForest loaded = RandomForest::from_json(Json::parse(v2));
  EXPECT_EQ(loaded.to_json().dump(), forest.to_json().dump());
  EXPECT_EQ(loaded.to_columnar_json().dump(), v2);
  // The columnar text carries no per-node objects at all.
  EXPECT_EQ(v2.find("\"nodes\""), std::string::npos);
  EXPECT_LT(v2.size(), forest.to_json().dump().size());
}

TEST(ColumnarTreeJson, ReadsTheHandWrittenLayout) {
  const RandomForest forest = RandomForest::from_json(small_forest());
  ASSERT_EQ(forest.tree_count(), 2u);
  const auto leaf = [&](std::initializer_list<double> row) {
    const std::vector<double> x(row);
    const auto p = forest.flat().tree_leaf(1, x);
    return std::vector<double>(p.begin(), p.end());
  };
  EXPECT_EQ(leaf({0.0, 0.0}), (std::vector<double>{0.5, 0.5, 0.0}));
  EXPECT_EQ(leaf({1.0, 0.0}), (std::vector<double>{0.0, 0.0, 1.0}));
  EXPECT_EQ(leaf({0.0, 1.0}), (std::vector<double>{0.25, 0.25, 0.5}));
}

TEST(ColumnarTreeJson, NegativeZeroAndAllZeroLeavesRoundTripBitExactly) {
  // A fit never writes -0.0, but the sparse form omits only +0.0 bits, so
  // a -0.0 entry is kept, and an all-zero leaf comes back as +0.0s. This
  // runs on documents, not text: Json::dump prints -0.0 as 0 in either
  // layout.
  Json forest = small_forest();
  tree1_array(forest, "leaf_nnz") = numbers({2, 0, 3}).as_array();
  tree1_array(forest, "leaf_class") = numbers({0, 1, 0, 1, 2}).as_array();
  tree1_array(forest, "leaf_proba") =
      numbers({-0.0, 1.0, 0.25, -0.0, 0.75}).as_array();
  const RandomForest source = RandomForest::from_json(forest);
  const std::uint64_t neg = std::bit_cast<std::uint64_t>(-0.0);
  const std::vector<std::uint64_t> one_hot = {
      neg, std::bit_cast<std::uint64_t>(1.0), 0};
  const std::vector<std::uint64_t> zeros = {0, 0, 0};
  ASSERT_EQ(leaf_bits(source, 1, {0.0, 0.0}), one_hot);
  ASSERT_EQ(leaf_bits(source, 1, {1.0, 0.0}), zeros);

  // Through the v1 node objects and back to columns, and through the
  // columns again: the bits survive both readers and both writers.
  const RandomForest via_v1 = RandomForest::from_json(source.to_json());
  const RandomForest via_v2 =
      RandomForest::from_json(via_v1.to_columnar_json());
  for (const RandomForest* f : {&via_v1, &via_v2}) {
    EXPECT_EQ(leaf_bits(*f, 1, {0.0, 0.0}), one_hot);
    EXPECT_EQ(leaf_bits(*f, 1, {1.0, 0.0}), zeros);
    EXPECT_EQ(leaf_bits(*f, 1, {0.0, 1.0}),
              (std::vector<std::uint64_t>{
                  std::bit_cast<std::uint64_t>(0.25), neg,
                  std::bit_cast<std::uint64_t>(0.75)}));
  }
  const Json columns = via_v2.to_columnar_json();
  const Json& tree1 = columns.at("trees").as_array()[1];
  EXPECT_EQ(tree1.at("leaf_nnz"), numbers({2, 0, 3}));
  EXPECT_EQ(tree1.at("leaf_class"), numbers({0, 1, 0, 1, 2}));
}

TEST(ColumnarTreeJson, RejectsNodesAfterTheLastLeaf) {
  Json forest = small_forest();
  tree1_array(forest, "feature").push_back(-1);
  tree1_array(forest, "leaf_nnz").push_back(0);
  expect_rejected(forest, "nodes after its last leaf");
}

TEST(ColumnarTreeJson, RejectsATruncatedTree) {
  Json forest = small_forest();
  tree1_array(forest, "feature").pop_back();
  expect_rejected(forest, "truncated");
  // A tree whose last node is a split is truncated too.
  Json split_last = small_forest();
  tree1_array(split_last, "feature") = numbers({1, 0, -1, -1, 0}).as_array();
  expect_rejected(split_last, "truncated");
}

TEST(ColumnarTreeJson, RejectsAThresholdCountOtherThanTheSplitCount) {
  Json forest = small_forest();
  tree1_array(forest, "threshold").push_back(1.0);
  expect_rejected(forest, "3 thresholds for 2 splits");
  tree1_array(forest, "threshold").resize(1);
  expect_rejected(forest, "1 thresholds for 2 splits");
}

TEST(ColumnarTreeJson, RejectsALeafCountOtherThanTheLeafNnzCount) {
  Json forest = small_forest();
  tree1_array(forest, "leaf_nnz").pop_back();
  expect_rejected(forest, "2 leaf_nnz entries for 3 leaves");
}

TEST(ColumnarTreeJson, RejectsALeafWiderThanTheClassCount) {
  Json forest = small_forest();
  tree1_array(forest, "leaf_nnz")[2] = 4;
  expect_rejected(forest, "leaf 2 has 4 entries, want 0 to 3");
}

TEST(ColumnarTreeJson, RejectsClassIdsOutOfRangeRepeatedOrDescending) {
  Json out_of_range = small_forest();
  tree1_array(out_of_range, "leaf_class")[2] = 3;
  expect_rejected(out_of_range, "leaf 1 names class 3");
  Json negative = small_forest();
  tree1_array(negative, "leaf_class")[0] = -1;
  expect_rejected(negative, "leaf 0 names class -1");
  Json repeated = small_forest();
  tree1_array(repeated, "leaf_class")[4] = 0;
  expect_rejected(repeated, "leaf 2 lists class 0 after class 0");
  Json descending = small_forest();
  tree1_array(descending, "leaf_class")[0] = 1;
  tree1_array(descending, "leaf_class")[1] = 0;
  expect_rejected(descending, "leaf 0 lists class 0 after class 1");
}

TEST(ColumnarTreeJson, RejectsShortOrLongLeafArrays) {
  for (const char* key : {"leaf_class", "leaf_proba"}) {
    Json short_array = small_forest();
    tree1_array(short_array, key).pop_back();
    expect_rejected(short_array, "leaf 2 runs past");
    Json long_array = small_forest();
    tree1_array(long_array, key).push_back(0);
    expect_rejected(long_array, "leaves use 6 entries");
  }
}

TEST(ColumnarTreeJson, RejectsASplitFeatureBeyondTheForestWidth) {
  Json forest = small_forest();
  tree1_array(forest, "feature")[1] = 2;
  expect_rejected(forest, "splits on feature 2 but the forest has 2");
  Json below_leaf = small_forest();
  tree1_array(below_leaf, "feature")[2] = -2;
  expect_rejected(below_leaf, "splits on feature -2");
}

TEST(ColumnarTreeJson, RejectsImportancesNarrowerThanTheSplits) {
  Json forest = small_forest();
  tree1_array(forest, "importances").pop_back();
  expect_rejected(forest, "importances cover 1 features");
}

TEST(ColumnarTreeJson, RejectsFractionalFeatureIds) {
  Json forest = small_forest();
  tree1_array(forest, "feature")[1] = 0.5;
  expect_rejected(forest, "feature[1] is not an int32");
}

TEST(ColumnarTreeJson, RejectsFractionalLeafEntryCounts) {
  Json forest = small_forest();
  tree1_array(forest, "leaf_nnz")[0] = 1.5;
  expect_rejected(forest, "leaf_nnz[0] is not an int32");
}

TEST(ColumnarTreeJson, RejectsFractionalClassIds) {
  Json forest = small_forest();
  tree1_array(forest, "leaf_class")[3] = 0.5;
  expect_rejected(forest, "leaf_class[3] is not an int32");
}

TEST(ColumnarTreeJson, RejectsATreeInTheOtherLayout) {
  // The first tree picks the layout; a v1 tree after it is missing the
  // columns and fails to load.
  const Dataset d = blobs(20, 5);
  RandomForest fitted(RandomForestParams{.n_trees = 2});
  Rng rng(6);
  fitted.fit(d, rng);
  Json mixed = fitted.to_columnar_json();
  mixed["trees"].as_array()[1] = fitted.to_json().at("trees").as_array()[1];
  EXPECT_THROW(RandomForest::from_json(mixed), Error);
}

}  // namespace
}  // namespace pml::ml
