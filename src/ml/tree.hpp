// CART decision trees: Gini classification and variance-reduction
// regression (the weak learner for gradient boosting).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "ml/dataset.hpp"

namespace pml::ml {

/// Shared tree growth limits.
struct TreeParams {
  int max_depth = -1;        ///< -1 = unlimited
  int min_samples_leaf = 1;
  int min_samples_split = 2;
  int max_features = -1;     ///< features tried per split; -1 = all
  /// Use the retained sort-per-node reference split finder instead of the
  /// rank-histogram one. Both must produce byte-identical trees; the flag
  /// exists so tests and benches can compare them.
  bool reference_splitter = false;
};

/// Per-column value ranks of a feature matrix: column f's distinct values in
/// ascending order (-0.0 and 0.0 are one value) and, for every row, the
/// index of its value among them. Built once per forest fit and shared
/// read-only by every tree fit, so no node ever sorts feature values.
class ColumnRanks {
 public:
  /// Throws MlError naming the row and column of the first non-finite value
  /// (a NaN has no rank; the check rides along the ranking pass).
  explicit ColumnRanks(const Matrix& x);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return offsets_.size() - 1; }

  /// Distinct values of column `col`, ascending.
  std::span<const double> values(std::size_t col) const noexcept {
    return {values_.data() + offsets_[col], offsets_[col + 1] - offsets_[col]};
  }
  /// Rank of every row's value in values(col).
  std::span<const std::uint32_t> ranks(std::size_t col) const noexcept {
    return {ranks_.data() + col * rows_, rows_};
  }

 private:
  std::size_t rows_ = 0;
  std::vector<std::size_t> offsets_;  ///< cols + 1 offsets into values_
  std::vector<double> values_;
  std::vector<std::uint32_t> ranks_;  ///< column-major, rows_ per column
};

/// Gini impurity of a class-count histogram (paper Eq. 1).
double gini_impurity(std::span<const double> class_counts);

class FlatForest;

/// Binary CART classifier with Gini splits.
class DecisionTree {
 public:
  explicit DecisionTree(TreeParams params = {}) : params_(params) {}

  /// Fit on the rows of `x` selected by `samples` (possibly with
  /// repetitions, enabling bootstrap); empty `samples` means all rows.
  /// Throws MlError on a non-finite feature value.
  void fit(const Matrix& x, std::span<const int> y, int num_classes, Rng& rng,
           std::span<const std::size_t> samples = {});

  /// As above, with the ranks of `x` precomputed (must be ColumnRanks(x)).
  void fit(const Matrix& x, const ColumnRanks& ranks, std::span<const int> y,
           int num_classes, Rng& rng, std::span<const std::size_t> samples);

  std::vector<double> predict_proba(std::span<const double> row) const;
  int predict(std::span<const double> row) const;

  /// Class distribution of the leaf this row lands in — a span into the
  /// tree's own storage (valid until the next fit). Allocation-free.
  std::span<const double> leaf_proba_for(std::span<const double> row) const;

  /// Append this tree to a structure-of-arrays forest (see FlatForest).
  void append_flat(FlatForest& flat) const;

  /// Unnormalised Gini-decrease importances, one per feature; accumulated
  /// across splits as (n_node/n_total) * impurity decrease.
  std::span<const double> feature_importances() const noexcept {
    return importances_;
  }

  std::size_t node_count() const noexcept { return nodes_.size(); }
  int depth() const noexcept { return depth_; }
  bool fitted() const noexcept { return !nodes_.empty(); }

  /// The model file's tree document, written by FlatForest::tree_json
  /// (RandomForest::from_json is its only reader).
  Json to_json() const;

 private:
  struct Node {
    int feature = -1;       ///< -1 marks a leaf
    double threshold = 0.0; ///< go left if value <= threshold
    int left = -1;
    int right = -1;
    std::vector<double> proba;  ///< leaf class distribution
  };

  /// Per-fit scratch shared by every node of one tree, so build() performs
  /// no per-node or per-candidate heap allocations.
  struct FitWorkspace {
    std::vector<std::size_t> features;  ///< candidate feature subset
    std::vector<std::uint32_t> labels;  ///< node labels, in sample order
    std::vector<std::uint32_t> hist;    ///< bins x classes counts
    std::vector<std::uint64_t> keys;    ///< (rank << 32 | class), sort branch
    std::vector<double> counts;         ///< node class histogram
    std::vector<double> left;           ///< running left-child histogram
    std::vector<double> right;          ///< running right-child histogram
    std::vector<double> best_left;      ///< left histogram at the best split
    std::uint64_t split_candidates = 0; ///< thresholds scored this fit
  };

  int build(const Matrix& x, const ColumnRanks& ranks, std::span<const int> y,
            int num_classes, std::vector<std::size_t>& samples,
            std::size_t begin, std::size_t end, int level,
            double total_samples, Rng& rng, FitWorkspace& ws);

  /// Retained pre-optimisation split finder (re-sorts per feature and scores
  /// every candidate with two full gini_impurity passes). Kept as the
  /// correctness oracle for the rank-histogram path.
  int build_reference(const Matrix& x, std::span<const int> y, int num_classes,
                      std::vector<std::size_t>& samples, std::size_t begin,
                      std::size_t end, int level, double total_samples,
                      Rng& rng);

  TreeParams params_;
  std::vector<Node> nodes_;
  std::vector<double> importances_;
  int num_classes_ = 0;
  int depth_ = 0;
};

/// Binary CART regression tree (variance-reduction splits). Leaf values are
/// externally adjustable so gradient boosting can install Newton-step
/// estimates per leaf.
class RegressionTree {
 public:
  explicit RegressionTree(TreeParams params = {}) : params_(params) {}

  void fit(const Matrix& x, std::span<const double> targets, Rng& rng,
           std::span<const std::size_t> samples = {});

  double predict(std::span<const double> row) const;

  /// Index of the leaf this row lands in.
  int apply(std::span<const double> row) const;

  /// Rows (positions into the fit-time sample list) grouped per leaf.
  const std::vector<std::vector<std::size_t>>& leaf_members() const noexcept {
    return leaf_members_;
  }

  void set_leaf_value(int leaf_id, double value);
  double leaf_value(int leaf_id) const;
  std::size_t leaf_count() const noexcept { return leaf_members_.size(); }
  bool fitted() const noexcept { return !nodes_.empty(); }

 private:
  struct Node {
    int feature = -1;
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    int leaf_id = -1;
    double value = 0.0;
  };

  /// Per-fit scratch (see DecisionTree::FitWorkspace).
  struct FitWorkspace {
    std::vector<std::size_t> order;
    std::vector<std::size_t> features;
  };

  int build(const Matrix& x, std::span<const double> targets,
            std::vector<std::size_t>& samples, std::size_t begin,
            std::size_t end, int level, Rng& rng, FitWorkspace& ws);

  TreeParams params_;
  std::vector<Node> nodes_;
  std::vector<int> leaf_nodes_;  // leaf_id -> node index
  std::vector<std::vector<std::size_t>> leaf_members_;
};

}  // namespace pml::ml
