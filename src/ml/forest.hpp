// Random Forest classifier — the model the paper selects (Table II) and
// ships pre-trained with the MPI library.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/json.hpp"
#include "ml/flat_forest.hpp"
#include "ml/model.hpp"
#include "ml/tree.hpp"

namespace pml::ml {

struct RandomForestParams {
  int n_trees = 100;
  int max_depth = -1;
  int min_samples_leaf = 1;
  /// Features tried per split; -1 = floor(sqrt(total)) (sklearn default).
  int max_features = -1;
  bool bootstrap = true;
  /// Threads used by fit(); <= 0 = all hardware threads, 1 = serial. Purely
  /// a runtime knob: per-tree RNG streams are pre-split sequentially before
  /// dispatch, so the fitted model (and its JSON) is bit-identical at any
  /// thread count. Not serialized with the model.
  int threads = 0;
};

class RandomForest final : public Classifier {
 public:
  explicit RandomForest(RandomForestParams params = {}) : params_(params) {}

  std::string name() const override { return "RandomForest"; }
  void fit(const Dataset& train, Rng& rng) override;
  std::vector<double> predict_proba(std::span<const double> row) const override;

  /// Allocation-free prediction through the flattened forest (bit-identical
  /// to the per-tree node walk).
  void predict_proba_into(std::span<const double> row,
                          std::span<double> out) const override;

  /// Batched prediction through the FlatForest tree-major blocked kernel;
  /// `out` must be rows.rows() x num_classes(). Byte-identical to calling
  /// predict_proba_into row by row.
  void predict_batch(const Matrix& rows, Matrix& out) const override;

  /// The forest's only stored form: fit() appends each grown tree to it and
  /// from_json() decodes each tree document straight into it.
  const FlatForest& flat() const noexcept { return flat_; }

  /// Normalised Gini-decrease feature importances (sum to 1): per-feature
  /// impurity decreases accumulated across all trees, as described in
  /// paper §V-A.
  std::vector<double> feature_importances() const;

  /// Out-of-bag accuracy estimate (only when bootstrap was enabled).
  std::optional<double> oob_score() const noexcept { return oob_score_; }

  const RandomForestParams& params() const noexcept { return params_; }
  std::size_t tree_count() const noexcept { return flat_.tree_count(); }

  /// Model bundle v1 rendering: one object per tree node, dense leaves
  /// (FlatForest::tree_json). Its bytes pin the fit in the golden tests.
  Json to_json() const;
  /// Model bundle v2 rendering: columnar trees with sparse leaves
  /// (FlatForest::columnar_tree_json). Loads back to the same forest.
  Json to_columnar_json() const;
  /// Reads either rendering; the first tree document picks the layout
  /// every tree must use.
  static RandomForest from_json(const Json& j);

 private:
  Json render(bool columnar) const;

  /// Decode tree document `t` of a model file into flat_, depths_ and
  /// importances_: v1 node objects, or v2 columns.
  void append_tree_json(std::size_t t, const Json& doc);
  void append_columnar_tree_json(std::size_t t, const Json& doc);
  /// Tree `tree`'s importances, which must cover `max_feature`.
  void append_importances(const std::string& tree, const Json& doc,
                          int max_feature);

  RandomForestParams params_;
  FlatForest flat_;
  /// Per-tree depth and unnormalised importances, for to_json() and
  /// feature_importances().
  std::vector<int> depths_;
  std::vector<std::vector<double>> importances_;
  std::size_t n_features_ = 0;
  std::optional<double> oob_score_;
};

}  // namespace pml::ml
