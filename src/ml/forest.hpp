// Random Forest classifier — the model the paper selects (Table II) and
// ships pre-trained with the MPI library. A forest document is read from
// a Json tree (from_json) or pulled from text (pull); both decode each v2
// tree through the same column checks into the FlatForest.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
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

  /// Batched prediction through the FlatForest block descent;
  /// `out` must be rows.rows() x num_classes(). Byte-identical to calling
  /// predict_proba_into row by row.
  void predict_batch(const Matrix& rows, Matrix& out) const override;

  /// The forest's only stored form: fit() appends each grown tree to it,
  /// and from_json() and pull() decode each tree document straight into it.
  const FlatForest& flat() const noexcept { return flat_; }

  /// Normalised Gini-decrease feature importances (sum to 1): per-feature
  /// impurity decreases accumulated across all trees, as described in
  /// paper §V-A.
  std::vector<double> feature_importances() const;

  const RandomForestParams& params() const noexcept { return params_; }
  std::size_t tree_count() const noexcept { return flat_.tree_count(); }
  std::size_t n_features() const noexcept { return n_features_; }

  /// Model bundle v1 rendering: one object per tree node, dense leaves
  /// (FlatForest::tree_json). Its bytes pin the fit in the golden tests.
  Json to_json() const;
  /// Model bundle v2 rendering: columnar trees with sparse leaves
  /// (FlatForest::columnar_tree_json). Loads back to the same forest.
  Json to_columnar_json() const;
  /// Reads either rendering from a Json document; the first tree document
  /// picks the layout every tree must use. Every verdict on a model file
  /// comes from this reader (PmlFramework::load).
  static RandomForest from_json(const Json& j);
  /// Pulls the v2 forest document `reader` is at, with no Json tree for
  /// its trees: the members before "trees" are read with Json::read, and
  /// each tree is pulled column by column into scratch reused from tree to
  /// tree. Returns the forest from_json() builds from the same text, or
  /// throws, also where from_json() would not: when "trees" is not the
  /// forest's last member or its first tree has v1 node objects.
  static RandomForest pull(JsonReader& reader);

 private:
  struct TreeColumns;

  Json render(bool columnar) const;
  /// A forest with the document's params, classes and features, and no
  /// trees yet; `j` needs only the members besides "trees".
  static RandomForest read_header(const Json& j);

  /// Decode tree `t` of a model file into flat_, depths_ and
  /// importances_: v1 node objects, or v2 columns.
  void append_tree_json(std::size_t t, const Json& doc);
  void append_columns(std::size_t t, TreeColumns& doc);
  /// Tree `t`'s importances (zeros when the file has none), which must
  /// cover `max_feature`.
  void append_importances(std::size_t t,
                          std::optional<std::vector<double>> importances,
                          int max_feature);

  RandomForestParams params_;
  FlatForest flat_;
  /// Per-tree depth and unnormalised importances, for to_json() and
  /// feature_importances().
  std::vector<int> depths_;
  std::vector<std::vector<double>> importances_;
  std::size_t n_features_ = 0;
};

}  // namespace pml::ml
