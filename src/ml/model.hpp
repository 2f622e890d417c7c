// Common classifier interface.
#pragma once

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ml/dataset.hpp"

namespace pml::ml {

/// Abstract multiclass classifier. Implementations: RandomForest,
/// GradientBoosting, Knn, LinearSvm (the four models of paper Table II).
class Classifier {
 public:
  virtual ~Classifier() = default;

  virtual std::string name() const = 0;

  /// Train on the dataset; all stochastic choices flow through `rng`.
  virtual void fit(const Dataset& train, Rng& rng) = 0;

  /// Class-probability estimates for one feature row (size num_classes()).
  virtual std::vector<double> predict_proba(
      std::span<const double> row) const = 0;

  /// predict_proba written into a caller-owned buffer of size num_classes().
  /// Hot-path entry point: overrides (RandomForest, GradientBoosting) are
  /// allocation-free, so callers that reuse `out` across rows never touch
  /// the heap. The default falls back to predict_proba.
  virtual void predict_proba_into(std::span<const double> row,
                                  std::span<double> out) const {
    const auto p = predict_proba(row);
    if (out.size() != p.size()) {
      throw MlError(name() + ": proba buffer holds " +
                    std::to_string(out.size()) + " classes, want " +
                    std::to_string(p.size()));
    }
    std::copy(p.begin(), p.end(), out.begin());
  }

  /// Class probabilities for every row of `rows`, written into the
  /// row-major `out` (rows.rows() x num_classes()). The default loops
  /// predict_proba_into with one shape validation up front; RandomForest
  /// overrides it with the FlatForest block descent (predict_sweep). Either
  /// way out[r] is bit-identical to predict_proba_into(rows.row(r)).
  virtual void predict_batch(const Matrix& rows, Matrix& out) const {
    const auto k = static_cast<std::size_t>(num_classes());
    if (out.rows() != rows.rows() || out.cols() != k) {
      throw MlError(name() + ": predict_batch output shape is " +
                    std::to_string(out.rows()) + "x" +
                    std::to_string(out.cols()) + ", want " +
                    std::to_string(rows.rows()) + "x" + std::to_string(k) +
                    " (rows x num_classes)");
    }
    for (std::size_t r = 0; r < rows.rows(); ++r) {
      predict_proba_into(rows.row(r), out.row(r));
    }
  }

  /// Argmax of predict_proba.
  virtual int predict(std::span<const double> row) const {
    const auto p = predict_proba(row);
    return static_cast<int>(
        std::max_element(p.begin(), p.end()) - p.begin());
  }

  int num_classes() const noexcept { return num_classes_; }
  bool fitted() const noexcept { return num_classes_ > 0; }

 protected:
  void require_fitted() const {
    if (!fitted()) throw MlError(name() + ": predict before fit");
  }

  int num_classes_ = 0;
};

}  // namespace pml::ml
