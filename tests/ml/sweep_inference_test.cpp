// Regression guards for the range-descent grid kernel and sparse leaves:
//  - predict_sweep must be bit-identical to predict_proba_into row by row,
//    for ascending, unsorted and repeated sweep values, a single value,
//    no varying column at all, class counts 2-12, forests rebuilt from
//    either model-file layout, and grids of 1 to 130 cells whose columns
//    are equal across cells, NaN, signed zeros or differ in one cell,
//  - sparse leaves must keep the dense sums' bits (only +0.0 is dropped),
//  - shape errors must fail loudly before the unchecked descent runs,
//  - the builder must derive each tree's child links from pre-order and
//    reject a node sequence that is not exactly one full binary tree.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "ml/flat_forest.hpp"
#include "ml/forest.hpp"

namespace pml::ml {
namespace {

/// Mixed discrete/continuous columns, as in batch_inference_test.cpp:
/// columns 0 and 3 take the integers 0..7, so many sweep values sit
/// exactly on split thresholds' neighbours and tie with training rows.
Dataset synthetic(std::size_t n, std::size_t cols, int classes,
                  std::uint64_t seed) {
  Dataset d;
  d.num_classes = classes;
  Rng rng(seed);
  Matrix x(n, cols);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      x.at(r, c) = (c % 3 == 0)
                       ? static_cast<double>(rng.uniform_index(8))
                       : rng.uniform(-2.0, 2.0);
    }
    double s = 0.0;
    for (std::size_t c = 0; c < cols; ++c) s += x.at(r, c) * ((c % 2) ? 1 : -1);
    d.y.push_back(static_cast<int>(
        (static_cast<long long>(s * 3.0) % classes + classes) % classes));
  }
  d.x = x;
  return d;
}

RandomForest fitted(int classes, std::uint64_t seed) {
  const Dataset d = synthetic(300, 6, classes, seed);
  RandomForest forest(RandomForestParams{.n_trees = 16, .max_features = 3});
  Rng rng(seed + 1);
  forest.fit(d, rng);
  return forest;
}

/// Cells: the first `cells` rows of a fresh draw of the same generator.
Matrix cell_rows(std::size_t cells, std::uint64_t seed) {
  return synthetic(cells, 6, 2, seed).x;
}

/// predict_sweep against predict_proba_into on each materialised row.
void expect_sweep_matches_rows(const FlatForest& flat, const Matrix& cells,
                               std::size_t varying,
                               const std::vector<double>& values,
                               const std::string& context) {
  const auto k = static_cast<std::size_t>(flat.num_classes());
  const std::size_t m = values.size();
  Matrix out(cells.rows() * m, k);
  flat.predict_sweep(cells, varying, values, out);
  std::vector<double> row;
  std::vector<double> want(k);
  for (std::size_t c = 0; c < cells.rows(); ++c) {
    for (std::size_t i = 0; i < m; ++i) {
      row.assign(cells.row(c).begin(), cells.row(c).end());
      if (varying != FlatForest::npos) row[varying] = values[i];
      flat.predict_proba_into(row, want);
      ASSERT_EQ(std::memcmp(out.row(c * m + i).data(), want.data(),
                            k * sizeof(double)),
                0)
          << context << ": cell " << c << " value " << values[i];
    }
  }
}

std::vector<double> ascending() {
  std::vector<double> v;
  for (int i = 0; i <= 16; ++i) v.push_back(-0.5 + 0.5 * i);
  return v;
}

TEST(SweepInference, AscendingValuesMatchRowWalksForEveryClassCount) {
  for (int classes = 2; classes <= 12; ++classes) {
    const auto seed = static_cast<std::uint64_t>(classes);
    const RandomForest forest = fitted(classes, 40 + seed);
    const Matrix cells = cell_rows(9, 7 + seed);
    for (const std::size_t varying : {0u, 1u, 3u}) {
      expect_sweep_matches_rows(
          forest.flat(), cells, varying, ascending(),
          std::to_string(classes) + " classes, column " +
              std::to_string(varying));
    }
  }
}

TEST(SweepInference, UnsortedAndRepeatedValuesMatchRowWalks) {
  const RandomForest forest = fitted(5, 3);
  const Matrix cells = cell_rows(7, 4);
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> values = {
      4.0, 1.0, 7.0, 1.0, 0.0, 3.5, 4.0, -0.0, 6.0, 2.0, 4.0, 5.0,
      -inf, inf, 1.0, std::numeric_limits<double>::quiet_NaN(), 2.5};
  for (const std::size_t varying : {0u, 2u, 3u, 5u}) {
    expect_sweep_matches_rows(forest.flat(), cells, varying, values,
                              "column " + std::to_string(varying));
  }
}

TEST(SweepInference, SingleValueAndNoVaryingColumnMatchRowWalks) {
  const RandomForest forest = fitted(4, 11);
  const Matrix cells = cell_rows(12, 12);
  expect_sweep_matches_rows(forest.flat(), cells, 3, {5.0}, "one value");
  // A model whose columns dropped the swept feature: every row of a cell
  // is the cell's own row, whatever the values say.
  expect_sweep_matches_rows(forest.flat(), cells, FlatForest::npos,
                            {1.0, 8.0, 3.0}, "no varying column");
}

TEST(SweepInference, ReloadedForestsSweepLikeTheFittedOne) {
  const RandomForest forest = fitted(9, 21);
  const Matrix cells = cell_rows(5, 22);
  const std::vector<double> values = ascending();
  const auto k = static_cast<std::size_t>(forest.num_classes());
  Matrix want(cells.rows() * values.size(), k);
  forest.flat().predict_sweep(cells, 3, values, want);
  for (const Json& doc : {forest.to_json(), forest.to_columnar_json()}) {
    const RandomForest loaded = RandomForest::from_json(doc);
    Matrix got(want.rows(), k);
    loaded.flat().predict_sweep(cells, 3, values, got);
    for (std::size_t r = 0; r < want.rows(); ++r) {
      ASSERT_EQ(std::memcmp(got.row(r).data(), want.row(r).data(),
                            k * sizeof(double)),
                0)
          << "row " << r;
    }
  }
}

/// Rows whose columns take every shape the cell-mask descent tells apart:
/// column 0 differs by cell in a few integer steps (as the node count
/// does), column 1 differs in every cell (as a continuous per-job
/// feature), column 2 is equal in every cell, column 3 is the sweep
/// column, column 4 is NaN in every cell, column 5 mixes +0.0 and -0.0,
/// column 6 differs in one cell only, and column 7 is equal within each
/// block of 64 cells but not across blocks.
Matrix shaped_cells(std::size_t cells, std::size_t odd_cell) {
  Rng rng(cells);
  Matrix x(cells, 8);
  for (std::size_t c = 0; c < cells; ++c) {
    x.at(c, 0) = static_cast<double>(c % 8);
    x.at(c, 1) = rng.uniform(-2.0, 2.0);
    x.at(c, 2) = 0.25;
    x.at(c, 3) = 1.0;
    x.at(c, 4) = std::numeric_limits<double>::quiet_NaN();
    x.at(c, 5) = c % 2 == 0 ? 0.0 : -0.0;
    x.at(c, 6) = c == odd_cell ? -1.5 : 1.5;
    x.at(c, 7) = (c / 64) % 2 == 0 ? -0.5 : 0.5;
  }
  return x;
}

TEST(SweepInference, CellBlocksMatchRowWalksForEveryColumnShape) {
  // Trees on 8 columns with thresholds around 0, the integers and +-1.5,
  // so the equal, signed-zero and one-cell columns meet real splits.
  const Dataset d = synthetic(400, 8, 7, 31);
  RandomForest forest(RandomForestParams{.n_trees = 24, .max_features = 4});
  Rng rng(32);
  forest.fit(d, rng);
  std::vector<double> values = ascending();
  values.push_back(std::numeric_limits<double>::quiet_NaN());
  values.push_back(2.0);  // a repeat
  for (const std::size_t cells : {1u, 63u, 64u, 65u, 130u}) {
    for (const std::size_t odd_cell : {std::size_t{0}, cells / 2, cells - 1}) {
      const Matrix rows = shaped_cells(cells, odd_cell);
      for (const std::size_t varying : {3u, 0u, 6u}) {
        expect_sweep_matches_rows(
            forest.flat(), rows, varying, values,
            std::to_string(cells) + " cells, odd cell " +
                std::to_string(odd_cell) + ", column " +
                std::to_string(varying));
      }
      expect_sweep_matches_rows(forest.flat(), rows, FlatForest::npos,
                                {1.0, -1.0},
                                std::to_string(cells) + " cells, no column");
    }
  }
}

TEST(SweepInference, EmptyGridsWriteNothing) {
  const RandomForest forest = fitted(3, 5);
  Matrix out(0, 3);
  forest.flat().predict_sweep(cell_rows(4, 6), 0, {}, out);
  forest.flat().predict_sweep(Matrix(0, 6), 0, ascending(), out);
  EXPECT_EQ(out.rows(), 0u);
}

TEST(SweepInference, RejectsBadShapesWithTheShapesInTheMessage) {
  const RandomForest forest = fitted(3, 8);
  const Matrix cells = cell_rows(2, 9);
  const std::vector<double> values = {1.0, 2.0};
  const auto message = [&](const Matrix& rows, std::size_t varying,
                           Matrix& out) {
    try {
      forest.flat().predict_sweep(rows, varying, values, out);
    } catch (const MlError& err) {
      return std::string(err.what());
    }
    return std::string("no error");
  };
  Matrix short_out(3, 3);
  EXPECT_NE(message(cells, 0, short_out).find("3x3, want 4x3"),
            std::string::npos);
  Matrix out(4, 3);
  EXPECT_NE(message(cells, 6, out).find("varying column 6"),
            std::string::npos);
  EXPECT_NE(message(Matrix(2, 1), 0, out).find("carry 1 features"),
            std::string::npos);

  FlatForest unsealed;
  unsealed.begin_tree();
  unsealed.add_leaf(std::vector<double>{1.0, 0.0});
  Matrix two(2, 2);
  EXPECT_THROW(unsealed.predict_sweep(Matrix(1, 1), 0, values, two), MlError);
}

// ---- sparse leaves -----------------------------------------------------------

/// A stump on feature 0 at 0.5 whose leaves are given densely.
FlatForest stump(const std::vector<double>& left,
                 const std::vector<double>& right) {
  FlatForest flat;
  flat.begin_tree();
  flat.add_split(0, 0.5);
  flat.add_leaf(left);
  flat.add_leaf(right);
  return flat;
}

TEST(SparseLeaves, DropOnlyPositiveZerosAndKeepTheirBits) {
  FlatForest flat = stump({0.0, -0.0, 0.75}, {1.0, 0.0, 0.0});
  flat.finish(3);
  std::vector<double> leaf(3);
  flat.tree_leaf(0, std::vector<double>{0.0}, leaf);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(leaf[0]), 0u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(leaf[1]),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(leaf[2], 0.75);
  // The v2 document lists exactly the stored entries.
  const Json doc = flat.columnar_tree_json(0, 1, std::vector<double>{1.0});
  EXPECT_EQ(doc.at("leaf_nnz").dump(), "[2,1]");
  EXPECT_EQ(doc.at("leaf_class").dump(), "[1,2,0]");
  // Sums start at +0.0, so a stored -0.0 adds nothing visible.
  std::vector<double> proba(3);
  flat.predict_proba_into(std::vector<double>{0.0}, proba);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(proba[1]), 0u);
}

TEST(SparseLeaves, FinishRejectsDenseWidthsAndClassIdsThatDoNotFit) {
  FlatForest ragged = stump({1.0, 0.0, 0.0}, {1.0, 0.0});
  EXPECT_THROW(ragged.finish(3), MlError);

  FlatForest wide;
  wide.begin_tree();
  wide.add_sparse_leaf(std::vector<std::uint32_t>{0, 3},
                       std::vector<double>{0.5, 0.5});
  EXPECT_THROW(wide.finish(3), MlError);

  FlatForest unordered;
  unordered.begin_tree();
  EXPECT_THROW(unordered.add_sparse_leaf(std::vector<std::uint32_t>{2, 1},
                                         std::vector<double>{0.5, 0.5}),
               MlError);
}

// ---- builder shape rules ----------------------------------------------------

/// The MlError message `append` throws, or "" if it throws none.
template <typename F>
std::string builder_error(F&& append) {
  try {
    append();
  } catch (const MlError& err) {
    return err.what();
  }
  return "";
}

TEST(FlatForestBuilder, RejectsANodeAfterItsTreeClosed) {
  const std::vector<double> leaf = {1.0, 0.0};
  FlatForest lone;
  lone.begin_tree();
  lone.add_leaf(leaf);  // a single leaf closes its tree
  EXPECT_NE(builder_error([&] { lone.add_leaf(leaf); })
                .find("tree 0 has nodes after its last leaf"),
            std::string::npos);

  FlatForest second = stump(leaf, leaf);
  second.begin_tree();
  second.add_leaf(leaf);
  EXPECT_NE(builder_error([&] { second.add_split(0, 0.5); })
                .find("tree 1 has nodes after its last leaf"),
            std::string::npos);
}

TEST(FlatForestBuilder, RejectsATreeLeftOpen) {
  const std::vector<double> leaf = {1.0, 0.0};
  FlatForest at_begin;
  at_begin.begin_tree();
  at_begin.add_split(0, 0.5);
  at_begin.add_leaf(leaf);  // the split still waits for its right child
  const std::string begin_error = builder_error([&] { at_begin.begin_tree(); });
  EXPECT_NE(begin_error.find("tree 0 is truncated"), std::string::npos)
      << begin_error;

  FlatForest at_finish = stump(leaf, leaf);
  at_finish.begin_tree();
  at_finish.add_split(0, 0.5);  // ends on a split: nothing below it
  const std::string finish_error = builder_error([&] { at_finish.finish(2); });
  EXPECT_NE(finish_error.find("tree 1 is truncated"), std::string::npos)
      << finish_error;
}

TEST(FlatForestBuilder, RejectsAnEmptyTree) {
  const std::vector<double> leaf = {1.0, 0.0};
  FlatForest at_begin;
  at_begin.begin_tree();
  const std::string begin_error = builder_error([&] { at_begin.begin_tree(); });
  EXPECT_NE(begin_error.find("tree 0 has no nodes"), std::string::npos)
      << begin_error;

  FlatForest at_finish = stump(leaf, leaf);
  at_finish.begin_tree();
  const std::string finish_error = builder_error([&] { at_finish.finish(2); });
  EXPECT_NE(finish_error.find("tree 1 has no nodes"), std::string::npos)
      << finish_error;
}

TEST(FlatForestBuilder, DerivesTheRightChildFromPreOrder) {
  // A stump: x > threshold takes the derived right link to the second leaf.
  FlatForest flat = stump({1.0, 0.0}, {0.0, 1.0});
  EXPECT_EQ(flat.right_child(0), 2);
  EXPECT_EQ(flat.right_child(1), -1);  // a leaf has no right child
  flat.finish(2);
  std::vector<double> proba(2);
  flat.predict_proba_into(std::vector<double>{0.5}, proba);
  EXPECT_EQ(proba, (std::vector<double>{1.0, 0.0}));
  flat.predict_proba_into(std::vector<double>{0.75}, proba);
  EXPECT_EQ(proba, (std::vector<double>{0.0, 1.0}));
  const Json doc = flat.tree_json(0, 1, std::vector<double>{1.0});
  EXPECT_EQ(doc.at("nodes").as_array()[0].at("right").as_int(), 2);

  // split(f0) -> [split(f1) -> [leaf a, leaf b], leaf c], after a stump:
  // each link arrives only once the subtree before it closes.
  FlatForest deep = stump({1.0, 0.0}, {0.0, 1.0});
  deep.begin_tree();
  deep.add_split(0, 0.5);
  deep.add_split(1, 0.5);
  EXPECT_EQ(deep.right_child(0), -1);
  deep.add_leaf(std::vector<double>{1.0, 0.0});
  deep.add_leaf(std::vector<double>{0.5, 0.5});
  EXPECT_EQ(deep.right_child(1), 3);
  EXPECT_EQ(deep.right_child(0), -1);
  deep.add_leaf(std::vector<double>{0.0, 1.0});
  EXPECT_EQ(deep.right_child(0), 4);
  deep.finish(2);
  std::vector<double> leaf(2);
  deep.tree_leaf(1, std::vector<double>{0.0, 0.0}, leaf);
  EXPECT_EQ(leaf, (std::vector<double>{1.0, 0.0}));
  deep.tree_leaf(1, std::vector<double>{0.0, 1.0}, leaf);
  EXPECT_EQ(leaf, (std::vector<double>{0.5, 0.5}));
  deep.tree_leaf(1, std::vector<double>{1.0, 0.0}, leaf);
  EXPECT_EQ(leaf, (std::vector<double>{0.0, 1.0}));
}

/// Append the deeper tree of DerivesTheRightChildFromPreOrder:
/// split(f0) -> [split(f1) -> [leaf a, leaf b], leaf c].
void add_deep_tree(FlatForest& flat) {
  flat.begin_tree();
  flat.add_split(0, 0.5);
  flat.add_split(1, 0.5);
  flat.add_leaf(std::vector<double>{1.0, 0.0});
  flat.add_leaf(std::vector<double>{0.5, 0.5});
  flat.add_leaf(std::vector<double>{0.0, 1.0});
}

TEST(FlatForestBuilder, AppendTreesMatchesBuildingInPlace) {
  // One forest built node by node; the same trees appended in bulk from a
  // one-tree and a two-tree forest must give the same records and leaves.
  FlatForest in_place = stump({1.0, 0.0}, {0.0, 1.0});
  add_deep_tree(in_place);
  add_deep_tree(in_place);
  in_place.finish(2);

  FlatForest one = stump({1.0, 0.0}, {0.0, 1.0});
  one.finish(2);
  FlatForest two;
  add_deep_tree(two);
  add_deep_tree(two);
  two.finish(2);
  FlatForest appended;
  appended.reserve(one.node_count() + two.node_count(),
                   one.leaf_count() + two.leaf_count(),
                   one.entry_count() + two.entry_count());
  appended.append_trees(one);
  appended.append_trees(two);
  appended.finish(2);

  ASSERT_EQ(appended.tree_count(), 3u);
  EXPECT_EQ(appended.node_count(), in_place.node_count());
  EXPECT_EQ(appended.leaf_count(), 8u);
  EXPECT_EQ(appended.entry_count(), in_place.entry_count());
  const std::vector<double> importances = {1.0, 0.5};
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_EQ(appended.tree_json(t, 2, importances).dump(),
              in_place.tree_json(t, 2, importances).dump());
  }
  for (const auto& row : {std::vector<double>{0.0, 0.0},
                          std::vector<double>{0.0, 1.0},
                          std::vector<double>{1.0, 0.0}}) {
    std::vector<double> a(2);
    std::vector<double> b(2);
    appended.predict_proba_into(row, a);
    in_place.predict_proba_into(row, b);
    EXPECT_EQ(a, b);
  }
}

TEST(FlatForestBuilder, AppendTreesRejectsAnUnsealedSourceOrTarget) {
  const std::vector<double> leaf = {1.0, 0.0};
  FlatForest sealed = stump(leaf, leaf);
  sealed.finish(2);

  FlatForest unsealed = stump(leaf, leaf);
  FlatForest target;
  EXPECT_NE(builder_error([&] { target.append_trees(unsealed); })
                .find("append of an unsealed forest"),
            std::string::npos);

  FlatForest finished = stump(leaf, leaf);
  finished.finish(2);
  EXPECT_NE(builder_error([&] { finished.append_trees(sealed); })
                .find("append after finish"),
            std::string::npos);

  FlatForest open;
  open.begin_tree();
  open.add_split(0, 0.5);
  const std::string open_error =
      builder_error([&] { open.append_trees(sealed); });
  EXPECT_NE(open_error.find("tree 0 is truncated"), std::string::npos)
      << open_error;
}

}  // namespace
}  // namespace pml::ml
