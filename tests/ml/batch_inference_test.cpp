// Regression guards for batch inference, which runs the FlatForest block
// descent (predict_sweep with no varying column):
//  - predict_batch must be bit-identical to the scalar predict_proba_into
//    path across class counts, batch sizes on and around the 64-row block
//    boundary, forests rebuilt via from_json, all-leaf forests over
//    batches with no columns, and batches run concurrently on one forest
//    (the descent's scratch is thread_local),
//  - batch-level validation must fail loudly, with the offending shapes in
//    the error text, instead of walking garbage.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "ml/flat_forest.hpp"
#include "ml/forest.hpp"

namespace pml::ml {
namespace {

/// Same mixed discrete/continuous generator as hotpath_test.cpp — many
/// exact feature ties, the hard case for traversal agreement.
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
    const int label = static_cast<int>(
        (static_cast<long long>(s * 3.0) % classes + classes) % classes);
    d.y.push_back(label);
  }
  d.x = x;
  return d;
}

void expect_batch_matches_scalar(const RandomForest& forest, const Matrix& rows,
                                 int classes, const std::string& context) {
  const auto k = static_cast<std::size_t>(classes);
  Matrix out(rows.rows(), k);
  forest.predict_batch(rows, out);
  std::vector<double> scalar(k);
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    forest.predict_proba_into(rows.row(r), scalar);
    ASSERT_EQ(std::memcmp(out.row(r).data(), scalar.data(),
                          k * sizeof(double)),
              0)
        << context << ": row " << r << " diverges from the scalar path";
  }
}

// ---- bit-identity matrix ----------------------------------------------------

TEST(BatchInference, BitIdenticalAcrossClassCountsAndRaggedBatches) {
  // 1: degenerate batch; 31/32/33: one partial 64-row block; 63/64/65:
  // one block short of, exactly at and one row past the block size; 129:
  // two full blocks and a one-row block; 1000: many full blocks plus a
  // ragged tail.
  const std::size_t batch_sizes[] = {1, 31, 32, 33, 63, 64, 65, 129, 1000};
  for (const int classes : {2, 5, 9}) {
    const Dataset train =
        synthetic(300, 6, classes, 17 * static_cast<std::uint64_t>(classes));
    RandomForestParams fp;
    fp.n_trees = 10;
    fp.max_features = 2;
    RandomForest forest(fp);
    Rng rng(static_cast<std::uint64_t>(classes));
    forest.fit(train, rng);
    for (const std::size_t n : batch_sizes) {
      const Dataset batch =
          synthetic(n, 6, classes, 1000 + n + static_cast<std::uint64_t>(classes));
      expect_batch_matches_scalar(
          forest, batch.x, classes,
          "classes " + std::to_string(classes) + " batch " + std::to_string(n));
    }
  }
}

TEST(BatchInference, BitIdenticalAfterFromJsonRebuild) {
  const Dataset train = synthetic(250, 5, 5, 91);
  RandomForest forest(RandomForestParams{.n_trees = 8, .max_features = 2});
  Rng rng(6);
  forest.fit(train, rng);
  const RandomForest loaded = RandomForest::from_json(forest.to_json());

  const Dataset batch = synthetic(333, 5, 5, 92);
  expect_batch_matches_scalar(loaded, batch.x, 5, "post-from_json");

  // And the rebuilt forest agrees with the original, batch for batch.
  Matrix a(batch.x.rows(), 5);
  Matrix b(batch.x.rows(), 5);
  forest.predict_batch(batch.x, a);
  loaded.predict_batch(batch.x, b);
  for (std::size_t r = 0; r < batch.x.rows(); ++r) {
    EXPECT_EQ(std::memcmp(a.row(r).data(), b.row(r).data(), 5 * sizeof(double)),
              0)
        << "row " << r;
  }
}

TEST(BatchInference, AllLeafForestMatchesRowWalksWithAndWithoutColumns) {
  // Every tree is a single leaf, so no walk reads a feature
  // (min_row_length() == 0) and a batch may carry no columns at all.
  FlatForest flat;
  const double leaves[][3] = {
      {0.25, 0.0, 0.75}, {-0.0, 1.0, 0.0}, {0.5, 0.125, 0.375}};
  for (const auto& leaf : leaves) {
    flat.begin_tree();
    flat.add_leaf(leaf);
  }
  flat.finish(3);
  ASSERT_EQ(flat.min_row_length(), 0u);

  for (const std::size_t cols : {0u, 3u}) {
    for (const std::size_t n : {1u, 64u, 65u}) {
      Matrix rows(n, cols);
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
          rows.at(r, c) = static_cast<double>(r) - static_cast<double>(c);
        }
      }
      Matrix out(n, 3);
      flat.predict_batch(rows, out);
      std::vector<double> scalar(3);
      for (std::size_t r = 0; r < n; ++r) {
        flat.predict_proba_into(rows.row(r), scalar);
        ASSERT_EQ(std::memcmp(out.row(r).data(), scalar.data(),
                              3 * sizeof(double)),
                  0)
            << cols << " columns, batch " << n << ": row " << r;
      }
    }
  }
}

TEST(BatchInference, ConcurrentBatchesOnOneForestMatchRowWalks) {
  // Pool workers share one forest and run batches of different sizes, so
  // each thread's scratch grows and shrinks between calls.
  const Dataset train = synthetic(300, 6, 4, 77);
  RandomForest forest(RandomForestParams{.n_trees = 12, .max_features = 2});
  Rng rng(9);
  forest.fit(train, rng);

  const std::size_t sizes[] = {1, 65, 7, 200, 64, 3, 129, 33};
  std::vector<Dataset> batches;
  std::vector<Matrix> expected;
  for (std::size_t i = 0; i < std::size(sizes); ++i) {
    batches.push_back(synthetic(sizes[i], 6, 4, 500 + i));
    Matrix ref(sizes[i], 4);
    for (std::size_t r = 0; r < sizes[i]; ++r) {
      forest.predict_proba_into(batches[i].x.row(r), ref.row(r));
    }
    expected.push_back(std::move(ref));
  }

  constexpr std::size_t kRounds = 6;
  std::atomic<std::size_t> mismatches{0};
  parallel_for(4, kRounds * std::size(sizes), [&](std::size_t job) {
    const std::size_t i = job % std::size(sizes);
    Matrix out(sizes[i], 4);
    forest.predict_batch(batches[i].x, out);
    for (std::size_t r = 0; r < sizes[i]; ++r) {
      if (std::memcmp(out.row(r).data(), expected[i].row(r).data(),
                      4 * sizeof(double)) != 0) {
        mismatches.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0u);
}

// ---- batch-level validation -------------------------------------------------

TEST(BatchInference, UnsealedForestThrows) {
  FlatForest flat;
  flat.begin_tree();
  const double proba[] = {0.5, 0.5};
  flat.add_leaf(proba);
  // No finish(): the forest is a staging buffer, not a model.
  const Matrix rows(4, 2);
  Matrix out(4, 2);
  EXPECT_THROW(flat.predict_batch(rows, out), MlError);
}

TEST(BatchInference, WrongShapeOutputReportsActualAndExpected) {
  const Dataset train = synthetic(120, 5, 3, 44);
  RandomForest forest(RandomForestParams{.n_trees = 4});
  Rng rng(2);
  forest.fit(train, rng);

  const Dataset batch = synthetic(10, 5, 3, 45);
  Matrix bad_rows(7, 3);  // wrong row count and class width
  try {
    forest.predict_batch(batch.x, bad_rows);
    FAIL() << "wrong-shape output did not throw";
  } catch (const MlError& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("7x3"), std::string::npos) << what;
    EXPECT_NE(what.find("10x3"), std::string::npos) << what;
  }
}

TEST(BatchInference, ShortFeatureRowsReportWidths) {
  const Dataset train = synthetic(120, 5, 3, 46);
  RandomForest forest(RandomForestParams{.n_trees = 4});
  Rng rng(2);
  forest.fit(train, rng);

  const Matrix narrow(6, 1);  // 1 feature; the forest references up to 5
  Matrix out(6, 3);
  try {
    forest.predict_batch(narrow, out);
    FAIL() << "narrow batch did not throw";
  } catch (const MlError& err) {
    EXPECT_NE(std::string(err.what()).find("1"), std::string::npos)
        << err.what();
  }
}

}  // namespace
}  // namespace pml::ml
