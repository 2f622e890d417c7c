#include "ml/dataset.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

namespace pml::ml {
namespace {

Dataset tiny_dataset() {
  Dataset d;
  d.num_classes = 2;
  for (int i = 0; i < 10; ++i) {
    const double v = static_cast<double>(i);
    const std::vector<double> row = {v, 10.0 - v};
    d.x.push_row(row);
    d.y.push_back(i < 5 ? 0 : 1);
  }
  d.feature_names = {"a", "b"};
  return d;
}

TEST(Matrix, PushRowSetsShape) {
  Matrix m;
  m.push_row(std::vector<double>{1, 2, 3});
  m.push_row(std::vector<double>{4, 5, 6});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 6.0);
}

TEST(Matrix, PushRowRejectsRaggedRows) {
  Matrix m;
  m.push_row(std::vector<double>{1, 2});
  EXPECT_THROW(m.push_row(std::vector<double>{1, 2, 3}), MlError);
}

TEST(Matrix, RowSpanIsMutable) {
  Matrix m(2, 2);
  m.row(0)[1] = 7.0;
  EXPECT_DOUBLE_EQ(m.at(0, 1), 7.0);
}

TEST(Dataset, ValidateAcceptsConsistent) {
  EXPECT_NO_THROW(tiny_dataset().validate());
}

TEST(Dataset, ValidateRejectsBadLabels) {
  Dataset d = tiny_dataset();
  d.y[0] = 5;
  EXPECT_THROW(d.validate(), MlError);
  d.y[0] = -1;
  EXPECT_THROW(d.validate(), MlError);
}

TEST(Dataset, ValidateRejectsShapeMismatch) {
  Dataset d = tiny_dataset();
  d.y.pop_back();
  EXPECT_THROW(d.validate(), MlError);
}

TEST(Dataset, SubsetCopiesRowsAndLabels) {
  const Dataset d = tiny_dataset();
  const std::vector<std::size_t> idx = {1, 8};
  const Dataset s = d.subset(idx);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s.x.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(s.x.at(1, 0), 8.0);
  EXPECT_EQ(s.y[0], 0);
  EXPECT_EQ(s.y[1], 1);
  EXPECT_EQ(s.feature_names, d.feature_names);
}

TEST(Dataset, SubsetRejectsOutOfRange) {
  const Dataset d = tiny_dataset();
  const std::vector<std::size_t> idx = {99};
  EXPECT_THROW(d.subset(idx), MlError);
}

TEST(RandomSplit, PartitionsAllRows) {
  Rng rng(1);
  const auto split = random_split(100, 0.7, rng);
  EXPECT_EQ(split.train.size(), 70u);
  EXPECT_EQ(split.test.size(), 30u);
  EXPECT_TRUE(std::is_sorted(split.test.begin(), split.test.end()));
  std::set<std::size_t> seen(split.train.begin(), split.train.end());
  seen.insert(split.test.begin(), split.test.end());
  EXPECT_EQ(seen.size(), 100u);
}

TEST(RandomSplit, RejectsDegenerateInputs) {
  Rng rng(1);
  EXPECT_THROW(random_split(1, 0.7, rng), MlError);
  EXPECT_THROW(random_split(10, 0.0, rng), MlError);
  EXPECT_THROW(random_split(10, 1.0, rng), MlError);
}

TEST(RandomSplit, AlwaysLeavesBothSidesNonEmpty) {
  Rng rng(3);
  const auto split = random_split(3, 0.99, rng);
  EXPECT_GE(split.test.size(), 1u);
  EXPECT_GE(split.train.size(), 1u);
}

TEST(StratifiedKfold, FoldsPartitionAndPreserveClassBalance) {
  std::vector<int> labels;
  for (int i = 0; i < 90; ++i) labels.push_back(i % 3);
  Rng rng(5);
  const auto folds = stratified_kfold(labels, 3, rng);
  ASSERT_EQ(folds.size(), 3u);
  for (const auto& fold : folds) {
    EXPECT_EQ(fold.test.size(), 30u);
    EXPECT_EQ(fold.train.size(), 60u);
    // Each fold's test slice has 10 of each class.
    std::vector<int> counts(3, 0);
    for (const auto i : fold.test) counts[static_cast<std::size_t>(labels[i])]++;
    EXPECT_EQ(counts, (std::vector<int>{10, 10, 10}));
  }
}

TEST(StratifiedKfold, RejectsBadFoldCounts) {
  std::vector<int> labels = {0, 1};
  Rng rng(1);
  EXPECT_THROW(stratified_kfold(labels, 1, rng), MlError);
  EXPECT_THROW(stratified_kfold(labels, 3, rng), MlError);
}

TEST(Standardizer, ZeroMeanUnitVariance) {
  Matrix x(100, 2);
  Rng rng(9);
  for (std::size_t r = 0; r < 100; ++r) {
    x.at(r, 0) = rng.normal(5.0, 2.0);
    x.at(r, 1) = rng.normal(-3.0, 0.5);
  }
  Standardizer s;
  s.fit(x);
  const Matrix t = s.transform(x);
  for (std::size_t c = 0; c < 2; ++c) {
    double mean = 0.0;
    double var = 0.0;
    for (std::size_t r = 0; r < 100; ++r) mean += t.at(r, c);
    mean /= 100.0;
    for (std::size_t r = 0; r < 100; ++r) {
      var += (t.at(r, c) - mean) * (t.at(r, c) - mean);
    }
    var /= 100.0;
    EXPECT_NEAR(mean, 0.0, 1e-9);
    EXPECT_NEAR(var, 1.0, 1e-9);
  }
}

TEST(Standardizer, ConstantFeaturePassesThrough) {
  Matrix x(10, 1);
  for (std::size_t r = 0; r < 10; ++r) x.at(r, 0) = 42.0;
  Standardizer s;
  s.fit(x);
  const auto t = s.transform_row(std::vector<double>{42.0});
  EXPECT_DOUBLE_EQ(t[0], 0.0);  // (42 - 42) / 1
}

TEST(Standardizer, TransformBeforeFitThrows) {
  Standardizer s;
  EXPECT_THROW(s.transform(Matrix(1, 1)), MlError);
  EXPECT_THROW(s.transform_row(std::vector<double>{1.0}), MlError);
}

TEST(Standardizer, ColumnMismatchThrows) {
  Matrix x(5, 2);
  Standardizer s;
  s.fit(x);
  EXPECT_THROW(s.transform(Matrix(5, 3)), MlError);
}

}  // namespace
}  // namespace pml::ml
