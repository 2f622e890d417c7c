#include "ml/flat_forest.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <string>

#include "obs/obs.hpp"

namespace pml::ml {

namespace {

/// The entries a sparse leaf leaves out: exactly the +0.0 bit pattern.
bool is_positive_zero(double v) noexcept {
  return std::bit_cast<std::uint64_t>(v) == 0;
}

}  // namespace

void FlatForest::require_closed_tree() const {
  const std::string tree =
      "flat forest: tree " + std::to_string(roots_.size() - 1);
  const std::size_t size = nodes_.size() - roots_.back();
  if (size == 0) throw MlError(tree + " has no nodes");
  if (!open_.empty()) {
    throw MlError(tree + " is truncated: its " + std::to_string(size) +
                  " nodes end before every split has two children");
  }
}

void FlatForest::require_classes(std::size_t size) const {
  if (size != static_cast<std::size_t>(num_classes_)) {
    throw MlError("flat forest: output buffer holds " + std::to_string(size) +
                  " classes, want " + std::to_string(num_classes_));
  }
}

void FlatForest::begin_tree() {
  if (sealed_) throw MlError("flat forest: append after finish");
  if (!roots_.empty()) require_closed_tree();
  roots_.push_back(nodes_.size());
  open_.assign(1, -1);  // the root's position
}

void FlatForest::link_node() {
  if (open_.empty()) {
    throw MlError("flat forest: tree " + std::to_string(roots_.size() - 1) +
                  " has nodes after its last leaf");
  }
  const std::int32_t parent = open_.back();
  open_.pop_back();
  if (parent >= 0) {
    nodes_[static_cast<std::size_t>(parent)].slot =
        static_cast<std::int32_t>(nodes_.size());
  }
}

void FlatForest::add_split(int feature, double threshold) {
  if (roots_.empty()) throw MlError("flat forest: add_split before begin_tree");
  link_node();
  min_row_length_ =
      std::max(min_row_length_, static_cast<std::size_t>(feature) + 1);
  const auto self = static_cast<std::int32_t>(nodes_.size());
  Node node;
  node.threshold = threshold;
  node.feature = static_cast<std::int32_t>(feature);
  nodes_.push_back(node);  // slot stays -1 until the right child arrives
  open_.push_back(self);   // right child, filled after the left subtree
  open_.push_back(-1);     // left child: the next node
}

void FlatForest::append_trees(const FlatForest& from) {
  if (sealed_) throw MlError("flat forest: append after finish");
  if (!from.sealed_) throw MlError("flat forest: append of an unsealed forest");
  if (!roots_.empty()) require_closed_tree();
  const std::size_t entries = leaf_value_.size() + from.leaf_value_.size();
  if (entries > std::numeric_limits<std::uint32_t>::max()) {
    throw MlError("flat forest: more than 2^32 leaf entries");
  }
  const auto node_base = static_cast<std::int32_t>(nodes_.size());
  const auto leaf_base = static_cast<std::int32_t>(leaf_begin_.size() - 1);
  const std::uint32_t entry_base = leaf_begin_.back();
  for (const std::size_t root : from.roots_) {
    roots_.push_back(root + static_cast<std::size_t>(node_base));
  }
  for (Node node : from.nodes_) {
    node.slot += node.feature >= 0 ? node_base : leaf_base;
    nodes_.push_back(node);
  }
  for (std::size_t l = 1; l < from.leaf_begin_.size(); ++l) {
    leaf_begin_.push_back(from.leaf_begin_[l] + entry_base);
  }
  leaf_class_.insert(leaf_class_.end(), from.leaf_class_.begin(),
                     from.leaf_class_.end());
  leaf_value_.insert(leaf_value_.end(), from.leaf_value_.begin(),
                     from.leaf_value_.end());
  // finish() checks the appended leaves against the forest's class count.
  min_dense_width_ = std::min(min_dense_width_, from.min_dense_width_);
  max_dense_width_ = std::max(max_dense_width_, from.max_dense_width_);
  class_bound_ = std::max(class_bound_, from.class_bound_);
  min_row_length_ = std::max(min_row_length_, from.min_row_length_);
}

void FlatForest::reserve(std::size_t nodes, std::size_t leaves,
                         std::size_t entries) {
  nodes_.reserve(nodes_.size() + nodes);
  leaf_begin_.reserve(leaf_begin_.size() + leaves);
  leaf_class_.reserve(leaf_class_.size() + entries);
  leaf_value_.reserve(leaf_value_.size() + entries);
}

int FlatForest::right_child(std::size_t node) const {
  const std::size_t root = roots_.empty() ? nodes_.size() : roots_.back();
  if (node >= nodes_.size() - root) {
    throw MlError("flat forest: node " + std::to_string(node) +
                  " is not in the tree being appended");
  }
  const Node& n = nodes_[root + node];
  if (n.feature < 0 || n.slot < 0) return -1;
  return n.slot - static_cast<int>(root);
}

void FlatForest::add_leaf(std::span<const double> proba) {
  if (roots_.empty()) throw MlError("flat forest: add_leaf before begin_tree");
  min_dense_width_ = std::min(min_dense_width_, proba.size());
  max_dense_width_ = std::max(max_dense_width_, proba.size());
  for (std::size_t c = 0; c < proba.size(); ++c) {
    if (is_positive_zero(proba[c])) continue;
    leaf_class_.push_back(static_cast<std::uint32_t>(c));
    leaf_value_.push_back(proba[c]);
  }
  seal_leaf();
}

void FlatForest::add_sparse_leaf(std::span<const std::uint32_t> classes,
                                 std::span<const double> values) {
  if (roots_.empty()) {
    throw MlError("flat forest: add_sparse_leaf before begin_tree");
  }
  if (classes.size() != values.size()) {
    throw MlError("flat forest: sparse leaf has " +
                  std::to_string(classes.size()) + " class ids for " +
                  std::to_string(values.size()) + " values");
  }
  for (std::size_t e = 0; e < classes.size(); ++e) {
    if (e > 0 && classes[e] <= classes[e - 1]) {
      throw MlError("flat forest: sparse leaf class ids must ascend");
    }
    class_bound_ = std::max<std::size_t>(class_bound_, classes[e] + 1ull);
    if (is_positive_zero(values[e])) continue;
    leaf_class_.push_back(classes[e]);
    leaf_value_.push_back(values[e]);
  }
  seal_leaf();
}

void FlatForest::seal_leaf() {
  if (leaf_value_.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw MlError("flat forest: more than 2^32 leaf entries");
  }
  link_node();
  Node node;
  node.feature = -1;
  node.slot = static_cast<std::int32_t>(leaf_begin_.size() - 1);
  nodes_.push_back(node);
  leaf_begin_.push_back(static_cast<std::uint32_t>(leaf_value_.size()));
}

void FlatForest::finish(int num_classes) {
  if (num_classes < 1) throw MlError("flat forest: num_classes must be >= 1");
  if (roots_.empty()) throw MlError("flat forest: no trees appended");
  require_closed_tree();
  num_classes_ = num_classes;
  const auto k = static_cast<std::size_t>(num_classes);
  const bool any_dense = min_dense_width_ <= max_dense_width_;
  if (any_dense && (min_dense_width_ != k || max_dense_width_ != k)) {
    throw MlError("flat forest: dense leaves hold " +
                  std::to_string(min_dense_width_) + " to " +
                  std::to_string(max_dense_width_) +
                  " probabilities, want " + std::to_string(k));
  }
  if (class_bound_ > k) {
    throw MlError("flat forest: a sparse leaf names class " +
                  std::to_string(class_bound_ - 1) + " of a " +
                  std::to_string(k) + "-class forest");
  }
  open_ = {};
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
  std::vector<double> dense(k);
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
      expand_leaf(static_cast<std::size_t>(n.slot), dense);
      Json proba = Json::array();
      for (const double p : dense) proba.push_back(p);
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
    // The stored entries are exactly the file's: only +0.0 is implied, so
    // a -0.0 entry is kept and every leaf value reloads with its bits.
    const auto leaf = static_cast<std::size_t>(n.slot);
    const std::uint32_t begin = leaf_begin_[leaf];
    const std::uint32_t end = leaf_begin_[leaf + 1];
    for (std::uint32_t e = begin; e < end; ++e) {
      leaf_class.push_back(leaf_class_[e]);
      leaf_proba.push_back(leaf_value_[e]);
    }
    leaf_nnz.push_back(end - begin);
  }
  j["feature"] = std::move(feature);
  j["threshold"] = std::move(threshold);
  j["leaf_nnz"] = std::move(leaf_nnz);
  j["leaf_class"] = std::move(leaf_class);
  j["leaf_proba"] = std::move(leaf_proba);
  return j;
}

std::size_t FlatForest::walk(std::size_t root,
                             std::span<const double> row) const {
  const Node* const nodes = nodes_.data();
  std::size_t i = root;
  while (nodes[i].feature >= 0) {
    i = row[static_cast<std::size_t>(nodes[i].feature)] <= nodes[i].threshold
            ? i + 1
            : static_cast<std::size_t>(nodes[i].slot);
  }
  return static_cast<std::size_t>(nodes[i].slot);
}

void FlatForest::predict_proba_into(std::span<const double> row,
                                    std::span<double> out) const {
  if (!sealed_) throw MlError("flat forest: predict before finish");
  require_classes(out.size());
  if (row.size() < min_row_length_) {
    throw MlError("flat forest: row has too few features");
  }
  std::fill(out.begin(), out.end(), 0.0);
  for (const std::size_t root : roots_) {
    add_leaf_to(walk(root, row), out.data());
  }
  const auto n_trees = static_cast<double>(roots_.size());
  for (double& p : out) p /= n_trees;
}

void FlatForest::tree_leaf(std::size_t tree, std::span<const double> row,
                           std::span<double> out) const {
  if (!sealed_) throw MlError("flat forest: predict before finish");
  if (tree >= roots_.size()) throw MlError("flat forest: tree out of range");
  if (row.size() < min_row_length_) {
    throw MlError("flat forest: row has too few features");
  }
  require_classes(out.size());
  expand_leaf(walk(roots_[tree], row), out);
}

void FlatForest::expand_leaf(std::size_t leaf, std::span<double> out) const {
  std::fill(out.begin(), out.end(), 0.0);
  for (std::uint32_t e = leaf_begin_[leaf]; e < leaf_begin_[leaf + 1]; ++e) {
    out[leaf_class_[e]] = leaf_value_[e];
  }
}

void FlatForest::predict_batch(const Matrix& rows, Matrix& out) const {
  // Checked here, once per batch, so each error names the batch's shapes;
  // predict_sweep's own checks then pass.
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
  // Each row is one cell of a grid with no varying column (header comment).
  const double unused = 0.0;
  predict_sweep(rows, npos, {&unused, 1}, out);
}

void FlatForest::predict_sweep(const Matrix& fixed_rows,
                               std::size_t varying_col,
                               std::span<const double> values,
                               Matrix& out) const {
  // Shape validation happens once here; the descent below runs unchecked.
  if (!sealed_) throw MlError("flat forest: predict before finish");
  const auto k = static_cast<std::size_t>(num_classes_);
  const std::size_t cells = fixed_rows.rows();
  const std::size_t m = values.size();
  if (out.rows() != cells * m || out.cols() != k) {
    throw MlError("flat forest: predict_sweep output shape is " +
                  std::to_string(out.rows()) + "x" +
                  std::to_string(out.cols()) + ", want " +
                  std::to_string(cells * m) + "x" + std::to_string(k) +
                  " (cells * values x num_classes)");
  }
  if (fixed_rows.cols() < min_row_length_) {
    throw MlError("flat forest: sweep rows carry " +
                  std::to_string(fixed_rows.cols()) +
                  " features, walks reference up to feature " +
                  std::to_string(min_row_length_ - 1));
  }
  if (varying_col != npos && varying_col >= fixed_rows.cols()) {
    throw MlError("flat forest: varying column " +
                  std::to_string(varying_col) + " is outside rows of " +
                  std::to_string(fixed_rows.cols()) + " features");
  }
  if (m > std::numeric_limits<std::uint32_t>::max()) {
    throw MlError("flat forest: predict_sweep takes at most 2^32 values");
  }
  if (cells * m == 0) return;
  static obs::Counter sweep_rows("ml.sweep.rows");
  sweep_rows.add(cells * m);

  // The sweep axis in ascending order, NaN last: `value <= threshold` then
  // holds on a prefix of every sorted range (a NaN value, like a NaN
  // threshold, compares false and goes right, as in the row walk), so one
  // cut splits a range at a split on the varying column.
  thread_local std::vector<std::uint32_t> order;
  thread_local std::vector<double> sorted;
  order.resize(m);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return values[a] < values[b] ||
           (!std::isnan(values[a]) && std::isnan(values[b]));
  });
  sorted.resize(m);
  for (std::size_t j = 0; j < m; ++j) sorted[j] = values[order[j]];

  // Cells go down each tree in blocks of up to 64, one mask bit per cell.
  // uniform[b * cols + f] says column f takes one side of every threshold in
  // every cell of block b: its values all compare equal (+0.0 == -0.0) or
  // are all NaN. Such a split is tested once, on the block's first cell.
  constexpr std::size_t kBlock = 64;
  const std::size_t cols = fixed_rows.cols();
  const std::size_t blocks = (cells + kBlock - 1) / kBlock;
  thread_local std::vector<std::uint8_t> uniform;
  uniform.resize(blocks * cols);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t first = b * kBlock;
    const std::size_t last = std::min(cells, first + kBlock);
    for (std::size_t f = 0; f < cols; ++f) {
      const double v = fixed_rows.at(first, f);
      bool equal = true;
      for (std::size_t c = first + 1; equal && c < last; ++c) {
        const double w = fixed_rows.at(c, f);
        equal = w == v || (std::isnan(w) && std::isnan(v));
      }
      uniform[b * cols + f] = equal;
    }
  }

  // A pending right side: node, the block's cells that reach it, and the
  // sorted range of sweep values they carry.
  struct Frame {
    std::size_t node;
    std::uint64_t mask;
    std::uint32_t lo;
    std::uint32_t hi;
  };
  thread_local std::vector<Frame> stack;

  std::fill(out.row(0).data(), out.row(0).data() + cells * m * k, 0.0);
  const Node* const nodes = nodes_.data();
  const double* const by_value = sorted.data();
  for (const std::size_t root : roots_) {
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t first = b * kBlock;
      const std::size_t n = std::min(kBlock, cells - first);
      const double* const x = fixed_rows.row(first).data();
      const std::uint8_t* const same = uniform.data() + b * cols;
      double* const o = out.row(first * m).data();
      stack.push_back(Frame{root, ~std::uint64_t{0} >> (kBlock - n), 0,
                            static_cast<std::uint32_t>(m)});
      while (!stack.empty()) {
        auto [i, mask, lo, hi] = stack.back();
        stack.pop_back();
        for (;;) {
          const Node& nd = nodes[i];
          if (nd.feature < 0) break;
          const auto f = static_cast<std::size_t>(nd.feature);
          const auto right = static_cast<std::size_t>(nd.slot);
          if (f == varying_col) {
            // The values <= threshold are a prefix of the range, so
            // counting them finds the cut; ranges are short (a compile
            // sweeps 21 sizes), where a count beats a binary search's
            // branches.
            std::uint32_t mid = lo;
            for (std::uint32_t j = lo; j < hi; ++j) {
              mid += by_value[j] <= nd.threshold;
            }
            if (mid == lo) {
              i = right;
            } else {
              if (mid != hi) stack.push_back(Frame{right, mask, mid, hi});
              hi = mid;
              i = i + 1;
            }
            continue;
          }
          if (same[f]) {
            i = x[f] <= nd.threshold ? i + 1 : right;
            continue;
          }
          // A column that differs by cell splits the mask.
          std::uint64_t left = 0;
          for (std::uint64_t rest = mask; rest != 0; rest &= rest - 1) {
            const auto c = static_cast<std::size_t>(std::countr_zero(rest));
            left |= std::uint64_t{x[c * cols + f] <= nd.threshold} << c;
          }
          if (left == 0) {
            i = right;
          } else {
            if (left != mask) {
              stack.push_back(Frame{right, mask & ~left, lo, hi});
            }
            mask = left;
            i = i + 1;
          }
        }
        const auto leaf = static_cast<std::size_t>(nodes[i].slot);
        for (std::uint64_t rest = mask; rest != 0; rest &= rest - 1) {
          const auto c = static_cast<std::size_t>(std::countr_zero(rest));
          double* const oc = o + c * m * k;
          for (std::uint32_t j = lo; j < hi; ++j) {
            add_leaf_to(leaf, oc + static_cast<std::size_t>(order[j]) * k);
          }
        }
      }
    }
  }
  const auto n_trees = static_cast<double>(roots_.size());
  for (std::size_t r = 0; r < cells * m; ++r) {
    for (double& p : out.row(r)) p /= n_trees;
  }
}

}  // namespace pml::ml
