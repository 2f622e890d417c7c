#include "ml/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace pml::ml {

void Matrix::push_row(std::span<const double> row) {
  if (rows_ == 0 && cols_ == 0) {
    cols_ = row.size();
  } else if (row.size() != cols_) {
    throw MlError("push_row: expected " + std::to_string(cols_) +
                  " columns, got " + std::to_string(row.size()));
  }
  data_.insert(data_.end(), row.begin(), row.end());
  ++rows_;
}

void Dataset::validate() const {
  if (x.rows() != y.size()) {
    throw MlError("dataset: row count " + std::to_string(x.rows()) +
                  " != label count " + std::to_string(y.size()));
  }
  if (!feature_names.empty() && feature_names.size() != x.cols()) {
    throw MlError("dataset: feature name count mismatch");
  }
  if (num_classes <= 0) throw MlError("dataset: num_classes must be positive");
  for (const int label : y) {
    if (label < 0 || label >= num_classes) {
      throw MlError("dataset: label " + std::to_string(label) +
                    " outside [0, " + std::to_string(num_classes) + ")");
    }
  }
  if (!class_names.empty() &&
      class_names.size() != static_cast<std::size_t>(num_classes)) {
    throw MlError("dataset: class name count mismatch");
  }
}

Dataset Dataset::subset(std::span<const std::size_t> indices) const {
  Dataset out;
  out.num_classes = num_classes;
  out.feature_names = feature_names;
  out.class_names = class_names;
  out.x = Matrix(indices.size(), x.cols());
  out.y.reserve(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const std::size_t src = indices[i];
    if (src >= x.rows()) throw MlError("subset: index out of range");
    std::copy(x.row(src).begin(), x.row(src).end(), out.x.row(i).begin());
    out.y.push_back(y[src]);
  }
  return out;
}

TrainTestSplit random_split(std::size_t n, double train_fraction, Rng& rng) {
  if (n < 2) throw MlError("random_split: need at least 2 rows");
  if (train_fraction <= 0.0 || train_fraction >= 1.0) {
    throw MlError("random_split: train fraction must be in (0, 1)");
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  rng.shuffle(order);
  auto cut = static_cast<std::size_t>(
      std::round(train_fraction * static_cast<double>(n)));
  cut = std::clamp<std::size_t>(cut, 1, n - 1);
  TrainTestSplit split;
  // The train rows keep their shuffled order (a model's bootstrap draws
  // index into it); the test rows ascend, as stratified_kfold's do, so an
  // evaluation walks them in dataset order.
  split.train.assign(order.begin(), order.begin() + static_cast<long>(cut));
  split.test.assign(order.begin() + static_cast<long>(cut), order.end());
  std::sort(split.test.begin(), split.test.end());
  return split;
}

std::vector<TrainTestSplit> stratified_kfold(std::span<const int> labels,
                                             int folds, Rng& rng) {
  if (folds < 2) throw MlError("stratified_kfold: need >= 2 folds");
  if (labels.size() < static_cast<std::size_t>(folds)) {
    throw MlError("stratified_kfold: more folds than rows");
  }
  // Group row indices per class, shuffle within each class, then deal them
  // round-robin across folds so every fold mirrors the class proportions.
  int num_classes = 0;
  for (const int l : labels) num_classes = std::max(num_classes, l + 1);
  std::vector<std::vector<std::size_t>> per_class(
      static_cast<std::size_t>(num_classes));
  for (std::size_t i = 0; i < labels.size(); ++i) {
    per_class[static_cast<std::size_t>(labels[i])].push_back(i);
  }
  std::vector<std::vector<std::size_t>> fold_test(
      static_cast<std::size_t>(folds));
  for (auto& rows : per_class) {
    rng.shuffle(rows);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      fold_test[i % static_cast<std::size_t>(folds)].push_back(rows[i]);
    }
  }
  std::vector<TrainTestSplit> out(static_cast<std::size_t>(folds));
  for (int f = 0; f < folds; ++f) {
    auto& split = out[static_cast<std::size_t>(f)];
    split.test = fold_test[static_cast<std::size_t>(f)];
    std::sort(split.test.begin(), split.test.end());
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (!std::binary_search(split.test.begin(), split.test.end(), i)) {
        split.train.push_back(i);
      }
    }
  }
  return out;
}

void Standardizer::fit(const Matrix& x) {
  if (x.rows() == 0) throw MlError("standardizer: empty matrix");
  const std::size_t cols = x.cols();
  mean_.assign(cols, 0.0);
  std_.assign(cols, 0.0);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < cols; ++c) mean_[c] += x.at(r, c);
  }
  for (auto& m : mean_) m /= static_cast<double>(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const double d = x.at(r, c) - mean_[c];
      std_[c] += d * d;
    }
  }
  for (auto& s : std_) {
    s = std::sqrt(s / static_cast<double>(x.rows()));
    if (s < 1e-12) s = 1.0;  // constant features pass through unscaled
  }
}

Matrix Standardizer::transform(const Matrix& x) const {
  if (!fitted()) throw MlError("standardizer: transform before fit");
  if (x.cols() != mean_.size()) throw MlError("standardizer: column mismatch");
  Matrix out(x.rows(), x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      out.at(r, c) = (x.at(r, c) - mean_[c]) / std_[c];
    }
  }
  return out;
}

std::vector<double> Standardizer::transform_row(
    std::span<const double> row) const {
  if (!fitted()) throw MlError("standardizer: transform before fit");
  if (row.size() != mean_.size()) throw MlError("standardizer: column mismatch");
  std::vector<double> out(row.size());
  for (std::size_t c = 0; c < row.size(); ++c) {
    out[c] = (row[c] - mean_[c]) / std_[c];
  }
  return out;
}

}  // namespace pml::ml
