// Multiclass gradient boosting (Friedman) with regression-tree weak
// learners and softmax coupling — the "GradientBoost" column of Table II.
#pragma once

#include <vector>

#include "ml/model.hpp"
#include "ml/tree.hpp"

namespace pml::ml {

struct GradientBoostingParams {
  int n_rounds = 100;
  double learning_rate = 0.1;
  int max_depth = 3;
  int min_samples_leaf = 1;
  double subsample = 1.0;  ///< fraction of rows per round (stochastic GBM)
};

class GradientBoosting final : public Classifier {
 public:
  explicit GradientBoosting(GradientBoostingParams params = {})
      : params_(params) {}

  std::string name() const override { return "GradientBoost"; }
  void fit(const Dataset& train, Rng& rng) override;
  std::vector<double> predict_proba(std::span<const double> row) const override;

  /// Allocation-free scoring: accumulates the per-stage Newton steps and
  /// softmaxes directly in `out` (size num_classes()).
  void predict_proba_into(std::span<const double> row,
                          std::span<double> out) const override;

  const GradientBoostingParams& params() const noexcept { return params_; }

 private:
  GradientBoostingParams params_;
  std::vector<double> base_score_;                  // per-class prior logit
  std::vector<std::vector<RegressionTree>> stages_; // [round][class]
};

}  // namespace pml::ml
