// Packed decision-forest representation: the one form a fitted or loaded
// RandomForest holds.
//
// FlatForest packs every tree of a forest into one contiguous array of
// 16-byte node records plus one pooled leaf-probability buffer, so a forest
// prediction is a handful of linear array walks and predict_proba_into()
// touches no allocator at all. DecisionTree is only the fitting tool: a
// fit appends each grown tree here, and a model file decodes straight into
// the builder below.
//
// Node layout. Trees serialize their nodes in pre-order (DecisionTree::build
// emits a split node immediately followed by its entire left subtree), so a
// split's left child is always the next record and only the right child
// needs storing. One record therefore holds the whole traversal state —
//
//   { double threshold; int32 feature; int32 slot; }   // 16 bytes
//
// where feature < 0 marks a leaf whose `slot` is its pooled-leaf ordinal,
// and a split's `slot` is its right-child index (left child = self + 1).
// finish() validates the pre-order invariant, so a malformed builder
// sequence or corrupt bundle fails loudly instead of walking garbage.
//
// Inference comes in two shapes that are bit-identical to each other and to
// the per-tree node walk: predict_proba_into() walks one row through all
// trees (tree 0..T in sequence, one divide at the end), and predict_batch()
// runs the tree-major blocked kernel — outer loop over trees, inner loop
// over blocks of rows with eight interleaved row-walks advancing in
// lockstep. Each lane's advance is branchless (all-ones masks select
// left-child/right-child/parked), so the per-split data-dependent branch
// the scalar walk mispredicts becomes a conditional move, the eight
// independent load chains hide each other's latency, and the tree's top
// levels stay in L1/L2 across the whole block. Per-row accumulation order
// is tree 0..T either way, so batched output is byte-identical to the
// scalar path (~2-3x the scalar loop in rows/sec, gated in
// bench/ml_hotpath).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/json.hpp"
#include "ml/dataset.hpp"

namespace pml::ml {

class FlatForest {
 public:
  bool empty() const noexcept { return roots_.empty(); }
  std::size_t tree_count() const noexcept { return roots_.size(); }
  std::size_t node_count() const noexcept { return nodes_.size(); }
  int num_classes() const noexcept { return num_classes_; }

  /// Smallest feature-row length every walk is guaranteed to stay inside
  /// (largest referenced feature index + 1).
  std::size_t min_row_length() const noexcept { return min_row_length_; }

  // --- Builder interface (DecisionTree::append_flat, RandomForest::from_json)

  /// Start appending one tree; its nodes arrive in the tree's own node-id
  /// order, so child ids passed to add_split are tree-local.
  /// Size the arrays for `nodes` nodes whose leaves hold `leaf_values`
  /// probabilities in total, so appending them never reallocates.
  void reserve(std::size_t nodes, std::size_t leaf_values);
  void begin_tree();
  void add_split(int feature, double threshold, int left, int right);
  void add_leaf(std::span<const double> proba);

  /// Validate and seal after all trees are appended: the pooled leaf buffer
  /// must hold `num_classes` probabilities per leaf, and each tree must be
  /// non-empty and in pre-order, with children inside that tree (each
  /// split's left child immediately follows it). Throws MlError otherwise.
  void finish(int num_classes);

  // --- Serialization ---------------------------------------------------------

  /// The model file's document for tree `tree` of a sealed forest:
  /// {"num_classes", "depth", "importances", "nodes"}, nodes in pre-order
  /// with tree-local child ids. RandomForest::from_json is its reader.
  Json tree_json(std::size_t tree, int depth,
                 std::span<const double> importances) const;

  // --- Inference -------------------------------------------------------------

  /// Mean class distribution over all trees, written into `out` (size
  /// num_classes()). Allocation-free; bit-identical to averaging the
  /// node-walk predictions tree by tree.
  void predict_proba_into(std::span<const double> row,
                          std::span<double> out) const;

  /// Un-normalised leaf distribution of one tree for this row (span into
  /// the pooled buffer).
  std::span<const double> tree_leaf(std::size_t tree,
                                    std::span<const double> row) const;

  /// predict_proba_into for many rows at once; `out` is row-major
  /// rows.rows() x num_classes(). Runs the tree-major blocked kernel
  /// (header comment) — byte-identical to calling predict_proba_into row
  /// by row, with all shape validation hoisted to one check per batch and
  /// zero allocations.
  void predict_batch(const Matrix& rows, Matrix& out) const;

 private:
  /// One traversal record (header comment). `slot` is the right-child
  /// index for a split (left child = self + 1) and the pooled-leaf
  /// ordinal for a leaf (feature < 0).
  struct Node {
    double threshold = 0.0;
    std::int32_t feature = -1;
    std::int32_t slot = -1;
  };
  static_assert(sizeof(Node) == 16, "traversal record must stay 16 bytes");

  std::span<const double> walk(std::size_t root,
                               std::span<const double> row) const;

  /// One past the last node of tree `tree`.
  std::size_t tree_end(std::size_t tree) const noexcept {
    return tree + 1 < roots_.size() ? roots_[tree + 1] : nodes_.size();
  }

  std::vector<Node> nodes_;           ///< all trees' packed records
  std::vector<std::size_t> roots_;    ///< global index of each tree's root
  std::vector<double> leaf_proba_;    ///< pooled leaf distributions
  /// Build-time staging: tree-local left-child id per node (validated
  /// against the pre-order invariant, then discarded by finish()). Until
  /// finish() a split's `slot` is its tree-local right-child id.
  std::vector<std::int32_t> build_left_;
  std::size_t n_leaves_ = 0;
  std::size_t min_row_length_ = 0;
  int num_classes_ = 0;
  bool sealed_ = false;
};

}  // namespace pml::ml
