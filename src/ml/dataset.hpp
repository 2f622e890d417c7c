// Tabular dataset container and feature standardisation.
//
// The ML substrate replaces the paper's scikit-learn 1.2.2 dependency with
// from-scratch C++ implementations of the same model classes. A Dataset is
// a dense row-major feature matrix with integer class labels and named
// columns (the 14 MPI-specific + hardware features of paper §V-A).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace pml::ml {

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  std::span<double> row(std::size_t r) {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }

  double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  /// Append one row; its length must equal cols() (or define cols if empty).
  void push_row(std::span<const double> row);

  /// Reshape to rows x cols with every element zeroed. Reuses the existing
  /// allocation when capacity allows, so batch consumers can recycle one
  /// Matrix across calls without touching the heap in steady state.
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0);
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Feature matrix + labels + metadata.
struct Dataset {
  Matrix x;
  std::vector<int> y;
  int num_classes = 0;
  std::vector<std::string> feature_names;
  std::vector<std::string> class_names;

  std::size_t size() const noexcept { return y.size(); }

  /// Consistency check; throws MlError on shape/label violations.
  void validate() const;

  /// Subset by row indices (labels and features copied).
  Dataset subset(std::span<const std::size_t> indices) const;
};

/// Split of a dataset into train and test index sets.
struct TrainTestSplit {
  std::vector<std::size_t> train;
  std::vector<std::size_t> test;
};

/// Random split with the given train fraction (paper: 70/30), shuffled by
/// `rng`: train rows in shuffled order, test rows ascending. Guarantees at
/// least one row on each side for fractions in (0,1).
TrainTestSplit random_split(std::size_t n, double train_fraction, Rng& rng);

/// Stratified k-fold indices: fold f's test set has roughly equal class
/// proportions. Returns k (train, test) pairs.
std::vector<TrainTestSplit> stratified_kfold(std::span<const int> labels,
                                             int folds, Rng& rng);

/// Per-feature affine standardiser (zero mean, unit variance on fit data).
class Standardizer {
 public:
  void fit(const Matrix& x);
  bool fitted() const noexcept { return !mean_.empty(); }

  Matrix transform(const Matrix& x) const;
  std::vector<double> transform_row(std::span<const double> row) const;

  std::span<const double> mean() const noexcept { return mean_; }
  std::span<const double> stddev() const noexcept { return std_; }

 private:
  std::vector<double> mean_;
  std::vector<double> std_;
};

}  // namespace pml::ml
