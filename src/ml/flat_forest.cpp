#include "ml/flat_forest.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/obs.hpp"

namespace pml::ml {

void FlatForest::reserve(std::size_t nodes, std::size_t leaf_values) {
  nodes_.reserve(nodes);
  build_left_.reserve(nodes);
  leaf_proba_.reserve(leaf_values);
}

void FlatForest::begin_tree() {
  if (sealed_) throw MlError("flat forest: append after finish");
  roots_.push_back(nodes_.size());
}

void FlatForest::add_split(int feature, double threshold, int left,
                           int right) {
  if (roots_.empty()) throw MlError("flat forest: add_split before begin_tree");
  Node node;
  node.threshold = threshold;
  node.feature = static_cast<std::int32_t>(feature);
  node.slot = right;
  nodes_.push_back(node);
  build_left_.push_back(left);
}

void FlatForest::add_leaf(std::span<const double> proba) {
  if (roots_.empty()) throw MlError("flat forest: add_leaf before begin_tree");
  Node node;
  node.feature = -1;
  node.slot = static_cast<std::int32_t>(n_leaves_);
  nodes_.push_back(node);
  build_left_.push_back(-1);
  ++n_leaves_;
  leaf_proba_.insert(leaf_proba_.end(), proba.begin(), proba.end());
}

void FlatForest::finish(int num_classes) {
  if (num_classes < 1) throw MlError("flat forest: num_classes must be >= 1");
  if (roots_.empty()) throw MlError("flat forest: no trees appended");
  num_classes_ = num_classes;
  const auto k = static_cast<std::size_t>(num_classes);
  if (leaf_proba_.size() != n_leaves_ * k) {
    throw MlError("flat forest: pooled leaf buffer holds " +
                  std::to_string(leaf_proba_.size()) + " values for " +
                  std::to_string(n_leaves_) + " leaves of " +
                  std::to_string(num_classes) + " classes");
  }
  min_row_length_ = 0;
  for (std::size_t t = 0; t < roots_.size(); ++t) {
    const std::size_t base = roots_[t];
    const auto size = static_cast<std::int32_t>(tree_end(t) - base);
    if (size == 0) {
      throw MlError("flat forest: tree " + std::to_string(t) + " has no nodes");
    }
    for (std::int32_t i = 0; i < size; ++i) {
      Node& node = nodes_[base + static_cast<std::size_t>(i)];
      if (node.feature < 0) continue;  // leaf slots are add_leaf ordinals
      const auto f = static_cast<std::size_t>(node.feature);
      min_row_length_ = std::max(min_row_length_, f + 1);
      // Trees serialize in pre-order: a split's left subtree follows it
      // immediately, so left == i + 1 (which the packed record relies on)
      // and the right child points strictly forward inside the tree; that
      // also proves every walk terminates in its own tree.
      const std::int32_t l = build_left_[base + static_cast<std::size_t>(i)];
      if (l != i + 1) {
        throw MlError("flat forest: tree " + std::to_string(t) + " node " +
                      std::to_string(i) + " has left child " +
                      std::to_string(l) + ", pre-order requires " +
                      std::to_string(i + 1));
      }
      if (node.slot <= i || node.slot >= size) {
        throw MlError("flat forest: tree " + std::to_string(t) + " node " +
                      std::to_string(i) + " has right child " +
                      std::to_string(node.slot) + " outside (" +
                      std::to_string(i) + ", " + std::to_string(size) + ")");
      }
      node.slot += static_cast<std::int32_t>(base);
    }
  }
  build_left_.clear();
  build_left_.shrink_to_fit();
  sealed_ = true;
}

void FlatForest::put_tree_header(Json& j, std::size_t tree, int depth,
                                 std::span<const double> importances) const {
  if (!sealed_) throw MlError("flat forest: serialize before finish");
  if (tree >= roots_.size()) throw MlError("flat forest: tree out of range");
  j["depth"] = depth;
  Json imp = Json::array();
  for (const double v : importances) imp.push_back(v);
  j["importances"] = std::move(imp);
}

Json FlatForest::tree_json(std::size_t tree, int depth,
                           std::span<const double> importances) const {
  Json j = Json::object();
  j["num_classes"] = num_classes_;
  put_tree_header(j, tree, depth, importances);
  const std::size_t base = roots_[tree];
  const auto k = static_cast<std::size_t>(num_classes_);
  Json nodes = Json::array();
  for (std::size_t i = base; i < tree_end(tree); ++i) {
    const Node& n = nodes_[i];
    Json nj = Json::object();
    nj["feature"] = n.feature;
    if (n.feature >= 0) {
      nj["threshold"] = n.threshold;
      nj["left"] = i + 1 - base;
      nj["right"] = static_cast<std::size_t>(n.slot) - base;
    } else {
      Json proba = Json::array();
      const auto first = static_cast<std::size_t>(n.slot) * k;
      for (std::size_t c = 0; c < k; ++c) {
        proba.push_back(leaf_proba_[first + c]);
      }
      nj["proba"] = std::move(proba);
    }
    nodes.push_back(std::move(nj));
  }
  j["nodes"] = std::move(nodes);
  return j;
}

Json FlatForest::columnar_tree_json(std::size_t tree, int depth,
                                    std::span<const double> importances) const {
  Json j = Json::object();
  put_tree_header(j, tree, depth, importances);
  const auto k = static_cast<std::size_t>(num_classes_);
  Json feature = Json::array();
  Json threshold = Json::array();
  Json leaf_nnz = Json::array();
  Json leaf_class = Json::array();
  Json leaf_proba = Json::array();
  for (std::size_t i = roots_[tree]; i < tree_end(tree); ++i) {
    const Node& n = nodes_[i];
    if (n.feature >= 0) {
      feature.push_back(n.feature);
      threshold.push_back(n.threshold);
      continue;
    }
    feature.push_back(-1);
    const double* const p =
        leaf_proba_.data() + static_cast<std::size_t>(n.slot) * k;
    std::size_t nnz = 0;
    for (std::size_t c = 0; c < k; ++c) {
      // Only +0.0 is implied: a -0.0 entry is kept, so every leaf value
      // reloads with its exact bits.
      if (std::bit_cast<std::uint64_t>(p[c]) == 0) continue;
      leaf_class.push_back(c);
      leaf_proba.push_back(p[c]);
      ++nnz;
    }
    leaf_nnz.push_back(nnz);
  }
  j["feature"] = std::move(feature);
  j["threshold"] = std::move(threshold);
  j["leaf_nnz"] = std::move(leaf_nnz);
  j["leaf_class"] = std::move(leaf_class);
  j["leaf_proba"] = std::move(leaf_proba);
  return j;
}

std::span<const double> FlatForest::walk(std::size_t root,
                                         std::span<const double> row) const {
  const Node* const nodes = nodes_.data();
  std::size_t i = root;
  while (nodes[i].feature >= 0) {
    i = row[static_cast<std::size_t>(nodes[i].feature)] <= nodes[i].threshold
            ? i + 1
            : static_cast<std::size_t>(nodes[i].slot);
  }
  return {leaf_proba_.data() + static_cast<std::size_t>(nodes[i].slot) *
                                   static_cast<std::size_t>(num_classes_),
          static_cast<std::size_t>(num_classes_)};
}

void FlatForest::predict_proba_into(std::span<const double> row,
                                    std::span<double> out) const {
  if (!sealed_) throw MlError("flat forest: predict before finish");
  if (out.size() != static_cast<std::size_t>(num_classes_)) {
    throw MlError("flat forest: output buffer holds " +
                  std::to_string(out.size()) + " classes, want " +
                  std::to_string(num_classes_));
  }
  if (row.size() < min_row_length_) {
    throw MlError("flat forest: row has too few features");
  }
  std::fill(out.begin(), out.end(), 0.0);
  for (const std::size_t root : roots_) {
    const auto leaf = walk(root, row);
    for (std::size_t c = 0; c < out.size(); ++c) out[c] += leaf[c];
  }
  const auto n_trees = static_cast<double>(roots_.size());
  for (double& p : out) p /= n_trees;
}

std::span<const double> FlatForest::tree_leaf(
    std::size_t tree, std::span<const double> row) const {
  if (!sealed_) throw MlError("flat forest: predict before finish");
  if (tree >= roots_.size()) throw MlError("flat forest: tree out of range");
  if (row.size() < min_row_length_) {
    throw MlError("flat forest: row has too few features");
  }
  return walk(roots_[tree], row);
}

void FlatForest::predict_batch(const Matrix& rows, Matrix& out) const {
  // Batch validation happens once here, not per row: the kernel below walks
  // unchecked.
  if (!sealed_) throw MlError("flat forest: predict before finish");
  const auto k = static_cast<std::size_t>(num_classes_);
  if (out.rows() != rows.rows() || out.cols() != k) {
    throw MlError("flat forest: predict_batch output shape is " +
                  std::to_string(out.rows()) + "x" +
                  std::to_string(out.cols()) + ", want " +
                  std::to_string(rows.rows()) + "x" + std::to_string(k) +
                  " (rows x num_classes)");
  }
  if (rows.cols() < min_row_length_) {
    throw MlError("flat forest: batch rows carry " +
                  std::to_string(rows.cols()) +
                  " features, walks reference up to feature " +
                  std::to_string(min_row_length_ - 1));
  }
  const std::size_t n = rows.rows();
  if (n == 0) return;
  static obs::Counter batch_calls("ml.batch.calls");
  static obs::Counter batch_rows("ml.batch.rows");
  batch_calls.increment();
  batch_rows.add(n);

  // Tree-major blocked traversal (header comment). Rows are processed in
  // blocks sized so the block's output rows and the tree's top levels stay
  // cache-resident while every tree re-walks the block; within a block
  // kLanes row-walks advance in lockstep so their dependent node loads
  // overlap. Each lane's advance is branchless — a parked lane (one that
  // reached its leaf) keeps re-selecting its own index via cmov instead of
  // taking a data-dependent branch, so the only branch in the steady state
  // is the well-predicted "any lane still active" loop check. That is
  // where the speedup over the scalar walk comes from: per split the
  // scalar path pays an unpredictable x-vs-threshold branch, the lanes pay
  // a conditional move. Each row still accumulates tree 0..T in sequence
  // and divides once, so the output is byte-identical to the scalar path.
  constexpr std::size_t kBlock = 64;
  constexpr std::size_t kLanes = 8;
  const Node* const nodes = nodes_.data();
  const double* const leaves = leaf_proba_.data();
  const auto n_trees = static_cast<double>(roots_.size());

  const auto accumulate = [&](std::size_t leaf_node, std::span<double> o) {
    const double* const p =
        leaves + static_cast<std::size_t>(nodes[leaf_node].slot) * k;
    for (std::size_t c = 0; c < k; ++c) o[c] += p[c];
  };

  // The branchless advance reads x[0] on parked lanes (the index select
  // discards the result); that needs at least one feature column to exist.
  // A forest with min_row_length_ == 0 is all single-leaf trees and may
  // legitimately see 0-column batches, so route it through the guarded
  // scalar walk instead.
  const bool lanes_ok = rows.cols() > 0;

  for (std::size_t b0 = 0; b0 < n; b0 += kBlock) {
    const std::size_t b1 = std::min(n, b0 + kBlock);
    for (std::size_t r = b0; r < b1; ++r) {
      const auto o = out.row(r);
      std::fill(o.begin(), o.end(), 0.0);
    }
    for (const std::size_t root : roots_) {
      std::size_t r = b0;
      for (; lanes_ok && r + kLanes <= b1; r += kLanes) {
        const double* x[kLanes];
        std::size_t idx[kLanes];
        for (std::size_t l = 0; l < kLanes; ++l) {
          x[l] = rows.row(r + l).data();
          idx[l] = root;
        }
        for (;;) {
          std::size_t active = 0;
          for (std::size_t l = 0; l < kLanes; ++l) {
            const Node nd = nodes[idx[l]];
            // All-ones masks instead of ternaries: GCC compiles the
            // x-vs-threshold ternary to a jump, which reintroduces the
            // per-split misprediction this kernel exists to avoid.
            const auto go_mask = static_cast<std::size_t>(
                -static_cast<std::ptrdiff_t>(nd.feature >= 0));
            // Parked lanes load x[0] (valid: lanes_ok) and discard it.
            const std::size_t f =
                static_cast<std::size_t>(
                    static_cast<std::uint32_t>(nd.feature)) &
                go_mask;
            const auto le_mask = static_cast<std::size_t>(
                -static_cast<std::ptrdiff_t>(x[l][f] <= nd.threshold));
            const std::size_t next =
                ((idx[l] + 1) & le_mask) |
                (static_cast<std::size_t>(static_cast<std::uint32_t>(nd.slot)) &
                 ~le_mask);
            idx[l] = (next & go_mask) | (idx[l] & ~go_mask);
            active |= go_mask;
          }
          if (!active) break;
        }
        for (std::size_t l = 0; l < kLanes; ++l) {
          accumulate(idx[l], out.row(r + l));
        }
      }
      for (; r < b1; ++r) {
        const auto leaf = walk(root, rows.row(r));
        const auto o = out.row(r);
        for (std::size_t c = 0; c < k; ++c) o[c] += leaf[c];
      }
    }
    for (std::size_t r = b0; r < b1; ++r) {
      for (double& p : out.row(r)) p /= n_trees;
    }
  }
}

}  // namespace pml::ml
