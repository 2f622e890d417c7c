// Packed decision-forest representation: the one form a fitted or loaded
// RandomForest holds.
//
// FlatForest packs every tree of a forest into one contiguous array of
// 16-byte node records plus compressed sparse leaves, so a forest
// prediction is a handful of linear array walks and no inference entry
// point touches the allocator in steady state. A DecisionTree fit grows
// its tree through the builder below into a one-tree FlatForest, which a
// forest fit appends here in bulk (append_trees); a model file decodes
// straight into the builder.
//
// Node layout. Trees serialize their nodes in pre-order (DecisionTree::build
// emits a split node immediately followed by its entire left subtree), so a
// split's left child is always the next record and only the right child
// needs storing. One record therefore holds the whole traversal state —
//
//   { double threshold; int32 feature; int32 slot; }   // 16 bytes
//
// where feature < 0 marks a leaf whose `slot` is its leaf ordinal, and a
// split's `slot` is its right-child index (left child = self + 1).
//
// Child links are derived, never passed in. The builder takes each tree's
// nodes in pre-order: the node after a split is its left child, and the
// node after a leaf is the right child of the innermost split still
// waiting for one, whose `slot` is set to that node's global index as it
// arrives. A node after its tree closed, and a tree still open (or empty)
// at the next begin_tree() or at finish(), throw MlError naming the tree,
// so every sealed tree is exactly one full binary tree whose walks end
// inside it.
//
// Sparse leaves. A fitted leaf holds a class distribution over 10-12
// classes with about 1.3 non-zero entries, so leaves are stored as CSR
// rows: leaf `l` owns entries leaf_begin_[l] .. leaf_begin_[l + 1] of the
// parallel leaf_class_ / leaf_value_ arrays, ascending by class. The only
// entries left out are those whose bits are +0.0 (the rule the v2 file
// uses too; -0.0 is kept). Dropping them is exact: every class sum starts
// at +0.0, a round-to-nearest sum of doubles that starts at +0.0 never
// becomes -0.0, and x + (+0.0) == x bit for bit for every other x, so
// skipping a +0.0 term leaves each sum's bits unchanged. tree_json() and
// columnar_tree_json() expand or copy the same entries and render the same
// bytes as a dense pool did.
//
// Serialized form. Model bundle v2 stores each tree as columns in the same
// pre-order (columnar_tree_json): `feature` per node (-1 for a leaf),
// `threshold` per split, and sparse leaves (`leaf_nnz`, `leaf_class`,
// `leaf_proba`). No child ids are stored: the reader hands the nodes to
// the builder in file order, which derives the links as above, and its
// leaves go straight into the sparse arrays (add_sparse_leaf). tree_json()
// still writes the v1 node objects, whose rendering the golden tests hash
// as the fit's fingerprint.
//
// Inference has two kernels, bit-identical to each other and to the
// per-tree node walk. predict_proba_into() walks one row through all trees
// (tree 0..T in sequence, one divide at the end); it is the reference the
// kernel tests compare against, and it backs the ml::Classifier override.
// predict_sweep() is the block descent below, which answers every model
// query, one cell or many, and predict_batch() is predict_sweep() over a
// grid of one placeholder value that no column takes, so a batch's rows
// are its cells. For a batch the descent tests each split it visits on
// every row of the block that reached it in one branch-free loop, so the
// data-dependent branch the row walk mispredicts per (split, row) is taken
// once per (split, block); and a column that one block's rows share (the
// hardware columns of rows from one cluster) is tested once.
//
// predict_sweep() answers a grid whose rows differ in one column only: a
// tuning-table compile asks for every (cell, message size) pair, and 13 of
// the 14 feature columns are fixed per cell. The outer loop runs over
// trees, the inner loop over blocks of up to 64 cells, and each (tree,
// block) pair is one descent whose state is (node, cell mask, range of the
// message-size axis, sorted once per call). A split on a column whose
// value is the same in every cell of the block (the hardware columns) is
// tested once and the whole state follows one child; a split on a column
// that differs by cell (nodes, ppn) partitions the mask; a split on the
// varying column partitions the sorted range at its threshold; either
// partition descends both non-empty sides. A leaf adds its entries to
// every (cell in mask, value in range) row. A Frontera collective's 40
// cells and 21 sizes thus cost one descent of about 245 split visits per
// tree instead of 40 descents of about 36 each. Every row still receives
// exactly the leaf its own walk would reach (its values take the same side
// of every split), added in tree order 0..T, with one divide at the end —
// the same FP sequence as predict_proba_into.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/json.hpp"
#include "ml/dataset.hpp"

namespace pml::ml {

class FlatForest {
 public:
  /// predict_sweep's `varying_col` when no model column varies.
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  bool empty() const noexcept { return roots_.empty(); }
  std::size_t tree_count() const noexcept { return roots_.size(); }
  std::size_t node_count() const noexcept { return nodes_.size(); }
  int num_classes() const noexcept { return num_classes_; }

  /// Smallest feature-row length every walk is guaranteed to stay inside
  /// (largest referenced feature index + 1).
  std::size_t min_row_length() const noexcept { return min_row_length_; }

  // --- Builder interface (DecisionTree::fit, RandomForest::from_json) ------

  /// Start appending one tree; its nodes follow in pre-order (header
  /// comment). Throws MlError if the previous tree is empty or still open.
  void begin_tree();
  /// Append a split on `feature` (>= 0) at `threshold`; its left child is
  /// the next node appended, its right child the node after its left
  /// subtree closes.
  void add_split(int feature, double threshold);
  /// Append a leaf from its dense class distribution (one probability per
  /// class); entries whose bits are +0.0 are not stored.
  void add_leaf(std::span<const double> proba);
  /// Append a leaf from its sparse entries: strictly ascending class ids
  /// with their probabilities. Entries whose bits are +0.0 are not stored.
  void add_sparse_leaf(std::span<const std::uint32_t> classes,
                       std::span<const double> values);

  /// Append every tree of the sealed forest `from` in bulk: its records
  /// and leaf entries are copied, with child slots, leaf ordinals and entry
  /// offsets rebased. Throws MlError if `from` is not sealed, or if this
  /// forest is sealed or its last tree is empty or still open.
  void append_trees(const FlatForest& from);
  /// Make room for `nodes`, `leaves` and `entries` more of each, so the
  /// appends that follow copy each node and entry once.
  void reserve(std::size_t nodes, std::size_t leaves, std::size_t entries);

  /// Tree-local index of the right child the builder derived for node
  /// `node` of the tree being appended; -1 for a leaf or for a split whose
  /// right child has not arrived yet.
  int right_child(std::size_t node) const;

  /// Validate and seal after all trees are appended: the last tree must be
  /// closed, every dense leaf must hold `num_classes` probabilities and
  /// every sparse class id must be below it. Throws MlError otherwise.
  void finish(int num_classes);

  // --- Serialization ---------------------------------------------------------

  /// Model bundle v1 document for tree `tree` of a sealed forest:
  /// {"num_classes", "depth", "importances", "nodes"}, one object per node
  /// in pre-order with tree-local child ids and a dense leaf "proba".
  /// RandomForest::to_json renders it as the fit's fingerprint.
  Json tree_json(std::size_t tree, int depth,
                 std::span<const double> importances) const;

  /// Model bundle v2 document for tree `tree` of a sealed forest:
  /// {"depth", "importances", "feature", "threshold", "leaf_nnz",
  /// "leaf_class", "leaf_proba"}. `feature` holds one entry per node in
  /// pre-order (-1 for a leaf), `threshold` one per split, and each leaf
  /// lists its `leaf_nnz` entries that are not +0.0 as ascending class ids
  /// with their probabilities. Child ids are implied by the pre-order
  /// shape. RandomForest::from_json reads both documents.
  Json columnar_tree_json(std::size_t tree, int depth,
                          std::span<const double> importances) const;

  // --- Inference -------------------------------------------------------------

  /// Mean class distribution over all trees, written into `out` (size
  /// num_classes()): the reference row walk (header comment).
  /// Allocation-free; bit-identical to averaging the node-walk predictions
  /// tree by tree.
  void predict_proba_into(std::span<const double> row,
                          std::span<double> out) const;

  /// Un-normalised leaf distribution of one tree for this row, written
  /// densely into `out` (size num_classes(); classes the leaf does not
  /// store read +0.0).
  void tree_leaf(std::size_t tree, std::span<const double> row,
                 std::span<double> out) const;

  /// Leaves appended so far; leaf ordinals count them in pre-order, tree
  /// after tree.
  std::size_t leaf_count() const noexcept { return leaf_begin_.size() - 1; }
  /// Stored leaf entries (the sparse leaves' non-+0.0 values).
  std::size_t entry_count() const noexcept { return leaf_value_.size(); }

  /// predict_proba_into for many rows at once; `out` is row-major
  /// rows.rows() x num_classes(). Checks the batch's shapes once, then runs
  /// predict_sweep with no varying column (header comment): byte-identical
  /// to calling predict_proba_into row by row, zero allocations once the
  /// thread's scratch has grown.
  void predict_batch(const Matrix& rows, Matrix& out) const;

  /// predict_proba_into over a grid: row (cell, i) is fixed_rows.row(cell)
  /// with column `varying_col` replaced by values[i]. `out` is row-major
  /// (fixed_rows.rows() * values.size()) x num_classes(), row
  /// cell * values.size() + i. `values` may come in any order and repeat;
  /// `varying_col` == npos means no column varies (every row of a cell is
  /// fixed_rows.row(cell)). Any number of cells: the kernel (header
  /// comment) carries blocks of up to 64 down each tree. Byte-identical to
  /// predict_proba_into row by row, one shape check per call, zero
  /// allocations once the thread's scratch has grown.
  void predict_sweep(const Matrix& fixed_rows, std::size_t varying_col,
                     std::span<const double> values, Matrix& out) const;

 private:
  /// One traversal record (header comment). `slot` is the right-child
  /// index for a split (left child = self + 1) and the leaf ordinal for a
  /// leaf (feature < 0).
  struct Node {
    double threshold = 0.0;
    std::int32_t feature = -1;
    std::int32_t slot = -1;
  };
  static_assert(sizeof(Node) == 16, "traversal record must stay 16 bytes");

  /// The "depth" and "importances" members both tree documents share.
  void put_tree_header(Json& j, std::size_t tree, int depth,
                       std::span<const double> importances) const;

  /// Leaf ordinal reached by walking `row` down the tree rooted at `root`.
  std::size_t walk(std::size_t root, std::span<const double> row) const;

  /// out[c] += p_c for every stored entry (c, p_c) of leaf `leaf`.
  void add_leaf_to(std::size_t leaf, double* out) const noexcept {
    const std::uint32_t end = leaf_begin_[leaf + 1];
    for (std::uint32_t e = leaf_begin_[leaf]; e < end; ++e) {
      out[leaf_class_[e]] += leaf_value_[e];
    }
  }

  /// Leaf `leaf` as a dense distribution with its stored bits (a stored
  /// -0.0 stays -0.0); `out` holds num_classes() values.
  void expand_leaf(std::size_t leaf, std::span<double> out) const;

  /// Close the leaf whose entries were just appended.
  void seal_leaf();

  /// Link the node about to be appended at nodes_.size() into the open
  /// tree's shape (header comment).
  void link_node();

  /// Throw unless the last tree begun is non-empty and closed.
  void require_closed_tree() const;
  /// Throw unless an output buffer of `size` holds num_classes() values.
  void require_classes(std::size_t size) const;

  /// One past the last node of tree `tree`.
  std::size_t tree_end(std::size_t tree) const noexcept {
    return tree + 1 < roots_.size() ? roots_[tree + 1] : nodes_.size();
  }

  std::vector<Node> nodes_;           ///< all trees' packed records
  std::vector<std::size_t> roots_;    ///< global index of each tree's root
  /// Sparse leaves (header comment): leaf l owns entries
  /// leaf_begin_[l] .. leaf_begin_[l + 1] of the two arrays below.
  std::vector<std::uint32_t> leaf_begin_{0};
  std::vector<std::uint32_t> leaf_class_;
  std::vector<double> leaf_value_;
  /// Build-time shape of the open tree: the child positions still to
  /// fill, innermost last. -1 stands for a position whose link is implied
  /// (the root, or a split's left child); any other entry is the global
  /// index of a split waiting for its right child. Empty once the tree
  /// closes.
  std::vector<std::int32_t> open_;
  /// Build-time width checks for finish(): the narrowest and widest dense
  /// leaf appended, and one past the largest class id stored.
  std::size_t min_dense_width_ = std::numeric_limits<std::size_t>::max();
  std::size_t max_dense_width_ = 0;
  std::size_t class_bound_ = 0;
  std::size_t min_row_length_ = 0;
  int num_classes_ = 0;
  bool sealed_ = false;
};

}  // namespace pml::ml
