#include "ml/tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "ml/flat_forest.hpp"
#include "obs/obs.hpp"

namespace pml::ml {

double gini_impurity(std::span<const double> class_counts) {
  double total = 0.0;
  for (const double c : class_counts) total += c;
  if (total <= 0.0) return 0.0;
  double sum_sq = 0.0;
  for (const double c : class_counts) {
    const double p = c / total;
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

namespace {

/// Candidate feature subset for one split (without replacement).
std::vector<std::size_t> sample_features(std::size_t total, int max_features,
                                         Rng& rng) {
  std::vector<std::size_t> all(total);
  std::iota(all.begin(), all.end(), 0u);
  if (max_features <= 0 || static_cast<std::size_t>(max_features) >= total) {
    return all;
  }
  rng.shuffle(all);
  all.resize(static_cast<std::size_t>(max_features));
  return all;
}

/// sample_features into a reused buffer; consumes the RNG stream identically
/// (fresh iota, one full shuffle, truncate) so fitted trees do not depend on
/// which variant ran.
void sample_features_into(std::size_t total, int max_features, Rng& rng,
                          std::vector<std::size_t>& out) {
  out.resize(total);
  std::iota(out.begin(), out.end(), 0u);
  if (max_features <= 0 || static_cast<std::size_t>(max_features) >= total) {
    return;
  }
  rng.shuffle(out);
  out.resize(static_cast<std::size_t>(max_features));
}

struct SplitResult {
  bool found = false;
  std::size_t feature = 0;
  double threshold = 0.0;
  double decrease = 0.0;  // impurity decrease, unweighted by node share
};

/// Threshold between adjacent present values lo < hi: their midpoint, or lo
/// when the midpoint rounds up to hi (adjacent doubles) or overflows (both
/// near DBL_MAX). Either way `x <= threshold` separates lo from hi.
double split_threshold(double lo, double hi) {
  const double mid = 0.5 * (lo + hi);
  return lo <= mid && mid < hi ? mid : lo;
}

}  // namespace

// ---- ColumnRanks -----------------------------------------------------------

ColumnRanks::ColumnRanks(const Matrix& x) : rows_(x.rows()) {
  if (rows_ > std::numeric_limits<std::uint32_t>::max()) {
    throw MlError("tree: " + std::to_string(rows_) +
                  " rows exceed the 32-bit rank range");
  }
  const std::size_t cols = x.cols();
  offsets_.reserve(cols + 1);
  offsets_.push_back(0);
  ranks_.resize(rows_ * cols);
  std::vector<std::pair<double, std::uint32_t>> sorted(rows_);
  for (std::size_t f = 0; f < cols; ++f) {
    for (std::size_t r = 0; r < rows_; ++r) {
      const double v = x.at(r, f);
      if (!std::isfinite(v)) {
        throw MlError("tree: non-finite feature value at row " +
                      std::to_string(r) + ", column " + std::to_string(f));
      }
      sorted[r] = {v, static_cast<std::uint32_t>(r)};
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::uint32_t* rank = ranks_.data() + f * rows_;
    for (std::size_t i = 0; i < rows_; ++i) {
      // Strict >, so -0.0 and 0.0 share a rank (they compare equal, and the
      // midpoints they form with any other value are the same).
      if (i == 0 || sorted[i].first > values_.back()) {
        values_.push_back(sorted[i].first);
      }
      rank[sorted[i].second] =
          static_cast<std::uint32_t>(values_.size() - 1 - offsets_.back());
    }
    offsets_.push_back(values_.size());
  }
}

// ---- DecisionTree ----------------------------------------------------------

void DecisionTree::fit(const Matrix& x, std::span<const int> y,
                       int num_classes, Rng& rng,
                       std::span<const std::size_t> samples) {
  fit(x, ColumnRanks(x), y, num_classes, rng, samples);
}

void DecisionTree::fit(const Matrix& x, const ColumnRanks& ranks,
                       std::span<const int> y, int num_classes, Rng& rng,
                       std::span<const std::size_t> samples) {
  if (x.rows() == 0 || x.rows() != y.size()) {
    throw MlError("tree: bad training shape");
  }
  if (ranks.rows() != x.rows() || ranks.cols() != x.cols()) {
    throw MlError("tree: column ranks do not match the training matrix");
  }
  if (num_classes < 1) throw MlError("tree: num_classes must be >= 1");
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y[i] < 0 || y[i] >= num_classes) {
      throw MlError("tree: label " + std::to_string(y[i]) + " at row " +
                    std::to_string(i) + " outside [0, " +
                    std::to_string(num_classes) + ")");
    }
  }
  nodes_.clear();
  depth_ = 0;
  num_classes_ = num_classes;
  importances_.assign(x.cols(), 0.0);

  std::vector<std::size_t> idx;
  if (samples.empty()) {
    idx.resize(x.rows());
    std::iota(idx.begin(), idx.end(), 0u);
  } else {
    idx.assign(samples.begin(), samples.end());
  }
  if (params_.reference_splitter) {
    build_reference(x, y, num_classes, idx, 0, idx.size(), 0,
                    static_cast<double>(idx.size()), rng);
    return;
  }
  FitWorkspace ws;
  ws.features.reserve(x.cols());
  ws.labels.reserve(idx.size());
  ws.counts.resize(static_cast<std::size_t>(num_classes));
  ws.left.resize(static_cast<std::size_t>(num_classes));
  ws.right.resize(static_cast<std::size_t>(num_classes));
  ws.best_left.resize(static_cast<std::size_t>(num_classes));
  build(x, ranks, y, num_classes, idx, 0, idx.size(), 0,
        static_cast<double>(idx.size()), rng, ws);
  if (obs::enabled()) {
    // Accumulated branchlessly in the split loop; flushed once per fit.
    static obs::Counter candidates("ml.split_candidates");
    candidates.add(ws.split_candidates);
  }
}

// Optimised split finder. Nothing is sorted by value: each candidate
// feature's class counts per distinct value come from the shared
// ColumnRanks, by one counting pass into a bins x classes histogram when the
// column has no more distinct values than the node has samples, else by
// sorting packed (rank << 32 | class) keys. Candidates are the midpoints of
// adjacent present values, visited in ascending order as the reference's
// sorted scan visits them, and each is scored in O(1) from incrementally
// maintained sums of squared class counts. Class counts are integers held
// exactly in doubles, so adding a whole bin of m samples of a class
// (sumsq += 2*l*m + m*m) lands on exactly the value m single-sample steps
// reach; the winning split's impurity decrease is then recomputed with
// gini_impurity from the snapshotted winning histogram. Serialized trees
// (thresholds, leaf distributions AND importances) are therefore
// bit-identical to build_reference.
int DecisionTree::build(const Matrix& x, const ColumnRanks& ranks,
                        std::span<const int> y, int num_classes,
                        std::vector<std::size_t>& samples, std::size_t begin,
                        std::size_t end, int level, double total_samples,
                        Rng& rng, FitWorkspace& ws) {
  depth_ = std::max(depth_, level);
  const std::size_t n = end - begin;
  const auto k = static_cast<std::size_t>(num_classes);
  const std::span<const std::size_t> node(samples.data() + begin, n);

  // The workspace is only read between here and the recursive calls below,
  // so one workspace serves every node of the tree.
  std::fill(ws.counts.begin(), ws.counts.end(), 0.0);
  ws.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int cls = y[node[i]];
    ws.labels[i] = static_cast<std::uint32_t>(cls);
    ws.counts[static_cast<std::size_t>(cls)] += 1.0;
  }
  const double node_gini = gini_impurity(ws.counts);

  auto make_leaf = [&] {
    Node leaf;
    leaf.proba.resize(k);
    for (std::size_t c = 0; c < k; ++c) {
      leaf.proba[c] = ws.counts[c] / static_cast<double>(n);
    }
    nodes_.push_back(std::move(leaf));
    return static_cast<int>(nodes_.size() - 1);
  };

  const bool depth_capped = params_.max_depth >= 0 && level >= params_.max_depth;
  if (node_gini <= 0.0 || depth_capped ||
      n < static_cast<std::size_t>(params_.min_samples_split)) {
    return make_leaf();
  }

  // Maximising  S = sumsq_l/n_l + sumsq_r/n_r  is equivalent to minimising
  // the weighted child impurity: n_l*gini_l + n_r*gini_r = n - S. The
  // reference acceptance rule `decrease > best + 1e-15` on
  // decrease = node_gini - (n - S)/n maps to `S > best_S + n * 1e-15`, with
  // the no-split baseline at S0 = n * (1 - node_gini).
  SplitResult best;
  double best_score =
      static_cast<double>(n) * (1.0 - node_gini);  // parent impurity baseline
  const double score_tol = static_cast<double>(n) * 1e-15;
  std::size_t best_nl = 0;
  double sumsq_l = 0.0;
  double sumsq_r = 0.0;

  // Move m samples of class c from the right child to the left one.
  auto shift = [&](std::size_t c, double m) {
    sumsq_l += 2.0 * ws.left[c] * m + m * m;
    sumsq_r -= 2.0 * ws.right[c] * m - m * m;
    ws.left[c] += m;
    ws.right[c] -= m;
  };
  // Score the threshold between adjacent present values lo < hi, with the
  // nl samples valued <= lo on the left.
  auto consider = [&](std::size_t f, double lo, double hi, std::size_t nl) {
    ++ws.split_candidates;
    const auto dl = static_cast<double>(nl);
    const auto dr = static_cast<double>(n - nl);
    if (dl < params_.min_samples_leaf || dr < params_.min_samples_leaf) return;
    const double score = sumsq_l / dl + sumsq_r / dr;
    if (score > best_score + score_tol) {
      best.found = true;
      best.feature = f;
      best.threshold = split_threshold(lo, hi);
      best_score = score;
      best_nl = nl;
      std::copy(ws.left.begin(), ws.left.end(), ws.best_left.begin());
    }
  };

  sample_features_into(x.cols(), params_.max_features, rng, ws.features);
  for (const std::size_t f : ws.features) {
    const std::span<const double> values = ranks.values(f);
    const std::span<const std::uint32_t> rank = ranks.ranks(f);
    std::fill(ws.left.begin(), ws.left.end(), 0.0);
    std::copy(ws.counts.begin(), ws.counts.end(), ws.right.begin());
    sumsq_l = 0.0;
    sumsq_r = 0.0;
    for (const double c : ws.counts) sumsq_r += c * c;
    std::size_t nl = 0;

    if (values.size() <= n) {
      // Counting pass, then the non-empty bins in ascending value order.
      ws.hist.assign(values.size() * k, 0);
      for (std::size_t i = 0; i < n; ++i) {
        ++ws.hist[rank[node[i]] * k + ws.labels[i]];
      }
      std::size_t prev = 0;
      for (std::size_t b = 0; nl < n; ++b) {
        const std::uint32_t* bin = ws.hist.data() + b * k;
        std::uint32_t in_bin = 0;
        for (std::size_t c = 0; c < k; ++c) in_bin += bin[c];
        if (in_bin == 0) continue;
        if (nl > 0) consider(f, values[prev], values[b], nl);
        for (std::size_t c = 0; c < k; ++c) {
          if (bin[c] != 0) shift(c, static_cast<double>(bin[c]));
        }
        nl += in_bin;
        prev = b;
      }
    } else {
      // More distinct values than samples: sort packed keys, so each run of
      // equal keys is one (value, class) count.
      ws.keys.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        ws.keys[i] = std::uint64_t{rank[node[i]]} << 32 | ws.labels[i];
      }
      std::sort(ws.keys.begin(), ws.keys.end());
      for (std::size_t i = 0; i < n;) {
        std::size_t j = i + 1;
        while (j < n && ws.keys[j] == ws.keys[i]) ++j;
        shift(static_cast<std::size_t>(ws.keys[i] & 0xffffffffu),
              static_cast<double>(j - i));
        nl = j;
        if (j < n && ws.keys[j] >> 32 != ws.keys[i] >> 32) {
          consider(f, values[ws.keys[i] >> 32], values[ws.keys[j] >> 32], nl);
        }
        i = j;
      }
    }
  }
  if (!best.found) return make_leaf();

  // Reference-exact impurity decrease of the winning split, from the
  // snapshotted left histogram (right = counts - left, exact integers).
  {
    for (std::size_t c = 0; c < k; ++c) {
      ws.right[c] = ws.counts[c] - ws.best_left[c];
    }
    const auto nl = static_cast<double>(best_nl);
    const auto nr = static_cast<double>(n - best_nl);
    const double child =
        (nl * gini_impurity(ws.best_left) + nr * gini_impurity(ws.right)) /
        static_cast<double>(n);
    best.decrease = node_gini - child;
  }

  // sklearn-style importance: node share of total samples times decrease.
  importances_[best.feature] +=
      (static_cast<double>(n) / total_samples) * best.decrease;

  // The value test predict() applies. split_threshold() keeps it equal to
  // the rank split counted above: exactly the rows valued <= lo go left.
  const auto mid_it = std::partition(
      samples.begin() + static_cast<long>(begin),
      samples.begin() + static_cast<long>(end), [&](std::size_t s) {
        return x.at(s, best.feature) <= best.threshold;
      });
  const auto mid =
      static_cast<std::size_t>(mid_it - samples.begin());

  const int node_id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[static_cast<std::size_t>(node_id)].feature =
      static_cast<int>(best.feature);
  nodes_[static_cast<std::size_t>(node_id)].threshold = best.threshold;
  const int left_id = build(x, ranks, y, num_classes, samples, begin, mid,
                            level + 1, total_samples, rng, ws);
  const int right_id = build(x, ranks, y, num_classes, samples, mid, end,
                             level + 1, total_samples, rng, ws);
  nodes_[static_cast<std::size_t>(node_id)].left = left_id;
  nodes_[static_cast<std::size_t>(node_id)].right = right_id;
  return node_id;
}

// Pre-optimisation split finder, retained verbatim as the correctness
// oracle: tests assert the optimised build produces byte-identical JSON.
int DecisionTree::build_reference(const Matrix& x, std::span<const int> y,
                                  int num_classes,
                                  std::vector<std::size_t>& samples,
                                  std::size_t begin, std::size_t end, int level,
                                  double total_samples, Rng& rng) {
  depth_ = std::max(depth_, level);
  const std::size_t n = end - begin;

  std::vector<double> counts(static_cast<std::size_t>(num_classes), 0.0);
  for (std::size_t i = begin; i < end; ++i) {
    counts[static_cast<std::size_t>(y[samples[i]])] += 1.0;
  }
  const double node_gini = gini_impurity(counts);

  auto make_leaf = [&] {
    Node leaf;
    leaf.proba.resize(counts.size());
    for (std::size_t c = 0; c < counts.size(); ++c) {
      leaf.proba[c] = counts[c] / static_cast<double>(n);
    }
    nodes_.push_back(std::move(leaf));
    return static_cast<int>(nodes_.size() - 1);
  };

  const bool depth_capped = params_.max_depth >= 0 && level >= params_.max_depth;
  if (node_gini <= 0.0 || depth_capped ||
      n < static_cast<std::size_t>(params_.min_samples_split)) {
    return make_leaf();
  }

  // Best Gini split over a (possibly random) feature subset.
  SplitResult best;
  const auto features = sample_features(x.cols(), params_.max_features, rng);
  std::vector<std::size_t> order(samples.begin() + static_cast<long>(begin),
                                 samples.begin() + static_cast<long>(end));
  std::vector<double> left(counts.size());
  for (const std::size_t f : features) {
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return x.at(a, f) < x.at(b, f);
    });
    std::fill(left.begin(), left.end(), 0.0);
    std::vector<double> right = counts;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      const auto cls = static_cast<std::size_t>(y[order[i]]);
      left[cls] += 1.0;
      right[cls] -= 1.0;
      const double lo = x.at(order[i], f);
      const double hi = x.at(order[i + 1], f);
      if (hi <= lo) continue;  // no threshold separates equal values
      const auto nl = static_cast<double>(i + 1);
      const auto nr = static_cast<double>(n - i - 1);
      if (nl < params_.min_samples_leaf || nr < params_.min_samples_leaf) {
        continue;
      }
      const double child =
          (nl * gini_impurity(left) + nr * gini_impurity(right)) /
          static_cast<double>(n);
      const double decrease = node_gini - child;
      if (decrease > best.decrease + 1e-15) {
        best.found = true;
        best.feature = f;
        best.threshold = split_threshold(lo, hi);
        best.decrease = decrease;
      }
    }
  }
  if (!best.found) return make_leaf();

  // sklearn-style importance: node share of total samples times decrease.
  importances_[best.feature] +=
      (static_cast<double>(n) / total_samples) * best.decrease;

  const auto mid_it = std::partition(
      samples.begin() + static_cast<long>(begin),
      samples.begin() + static_cast<long>(end), [&](std::size_t s) {
        return x.at(s, best.feature) <= best.threshold;
      });
  const auto mid =
      static_cast<std::size_t>(mid_it - samples.begin());

  const int node_id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[static_cast<std::size_t>(node_id)].feature =
      static_cast<int>(best.feature);
  nodes_[static_cast<std::size_t>(node_id)].threshold = best.threshold;
  const int left_id = build_reference(x, y, num_classes, samples, begin, mid,
                                      level + 1, total_samples, rng);
  const int right_id = build_reference(x, y, num_classes, samples, mid, end,
                                       level + 1, total_samples, rng);
  nodes_[static_cast<std::size_t>(node_id)].left = left_id;
  nodes_[static_cast<std::size_t>(node_id)].right = right_id;
  return node_id;
}

std::span<const double> DecisionTree::leaf_proba_for(
    std::span<const double> row) const {
  if (nodes_.empty()) throw MlError("tree: predict before fit");
  const Node* node = &nodes_[0];
  while (node->feature >= 0) {
    const std::size_t f = static_cast<std::size_t>(node->feature);
    if (f >= row.size()) throw MlError("tree: row has too few features");
    node = row[f] <= node->threshold
               ? &nodes_[static_cast<std::size_t>(node->left)]
               : &nodes_[static_cast<std::size_t>(node->right)];
  }
  return node->proba;
}

std::vector<double> DecisionTree::predict_proba(
    std::span<const double> row) const {
  const auto leaf = leaf_proba_for(row);
  return {leaf.begin(), leaf.end()};
}

int DecisionTree::predict(std::span<const double> row) const {
  const auto p = leaf_proba_for(row);
  return static_cast<int>(std::max_element(p.begin(), p.end()) - p.begin());
}

void DecisionTree::append_flat(FlatForest& flat) const {
  if (nodes_.empty()) throw MlError("tree: flatten before fit");
  flat.begin_tree();
  for (const Node& n : nodes_) {
    if (n.feature >= 0) {
      flat.add_split(n.feature, n.threshold);
    } else {
      flat.add_leaf(n.proba);
    }
  }
}

Json DecisionTree::to_json() const {
  // One writer for the tree document: the one-tree flat form's.
  FlatForest flat;
  append_flat(flat);
  flat.finish(num_classes_);
  return flat.tree_json(0, depth_, importances_);
}

// ---- RegressionTree --------------------------------------------------------

void RegressionTree::fit(const Matrix& x, std::span<const double> targets,
                         Rng& rng, std::span<const std::size_t> samples) {
  if (x.rows() == 0 || x.rows() != targets.size()) {
    throw MlError("regression tree: bad training shape");
  }
  nodes_.clear();
  leaf_nodes_.clear();
  leaf_members_.clear();

  std::vector<std::size_t> idx;
  if (samples.empty()) {
    idx.resize(x.rows());
    std::iota(idx.begin(), idx.end(), 0u);
  } else {
    idx.assign(samples.begin(), samples.end());
  }
  FitWorkspace ws;
  ws.order.reserve(idx.size());
  ws.features.reserve(x.cols());
  build(x, targets, idx, 0, idx.size(), 0, rng, ws);
}

int RegressionTree::build(const Matrix& x, std::span<const double> targets,
                          std::vector<std::size_t>& samples, std::size_t begin,
                          std::size_t end, int level, Rng& rng,
                          FitWorkspace& ws) {
  const std::size_t n = end - begin;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    const double t = targets[samples[i]];
    sum += t;
    sum_sq += t * t;
  }
  const double mean = sum / static_cast<double>(n);
  const double sse = sum_sq - sum * mean;  // total squared error around mean

  auto make_leaf = [&] {
    Node leaf;
    leaf.value = mean;
    leaf.leaf_id = static_cast<int>(leaf_nodes_.size());
    nodes_.push_back(leaf);
    const int node_id = static_cast<int>(nodes_.size() - 1);
    leaf_nodes_.push_back(node_id);
    leaf_members_.emplace_back(samples.begin() + static_cast<long>(begin),
                               samples.begin() + static_cast<long>(end));
    return node_id;
  };

  const bool depth_capped = params_.max_depth >= 0 && level >= params_.max_depth;
  if (sse <= 1e-12 || depth_capped ||
      n < static_cast<std::size_t>(params_.min_samples_split)) {
    return make_leaf();
  }

  SplitResult best;
  sample_features_into(x.cols(), params_.max_features, rng, ws.features);
  ws.order.assign(samples.begin() + static_cast<long>(begin),
                  samples.begin() + static_cast<long>(end));
  const std::span<std::size_t> order(ws.order.data(), n);
  for (const std::size_t f : ws.features) {
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return x.at(a, f) < x.at(b, f);
    });
    double left_sum = 0.0;
    double left_sq = 0.0;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      const double t = targets[order[i]];
      left_sum += t;
      left_sq += t * t;
      const double lo = x.at(order[i], f);
      const double hi = x.at(order[i + 1], f);
      if (hi <= lo) continue;
      const auto nl = static_cast<double>(i + 1);
      const auto nr = static_cast<double>(n - i - 1);
      if (nl < params_.min_samples_leaf || nr < params_.min_samples_leaf) {
        continue;
      }
      const double right_sum = sum - left_sum;
      const double right_sq = sum_sq - left_sq;
      const double sse_l = left_sq - left_sum * left_sum / nl;
      const double sse_r = right_sq - right_sum * right_sum / nr;
      const double decrease = sse - sse_l - sse_r;
      if (decrease > best.decrease + 1e-15) {
        best.found = true;
        best.feature = f;
        best.threshold = split_threshold(lo, hi);
        best.decrease = decrease;
      }
    }
  }
  if (!best.found) return make_leaf();

  const auto mid_it = std::partition(
      samples.begin() + static_cast<long>(begin),
      samples.begin() + static_cast<long>(end), [&](std::size_t s) {
        return x.at(s, best.feature) <= best.threshold;
      });
  const auto mid = static_cast<std::size_t>(mid_it - samples.begin());

  const int node_id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[static_cast<std::size_t>(node_id)].feature =
      static_cast<int>(best.feature);
  nodes_[static_cast<std::size_t>(node_id)].threshold = best.threshold;
  const int left_id =
      build(x, targets, samples, begin, mid, level + 1, rng, ws);
  const int right_id = build(x, targets, samples, mid, end, level + 1, rng, ws);
  nodes_[static_cast<std::size_t>(node_id)].left = left_id;
  nodes_[static_cast<std::size_t>(node_id)].right = right_id;
  return node_id;
}

int RegressionTree::apply(std::span<const double> row) const {
  if (nodes_.empty()) throw MlError("regression tree: apply before fit");
  const Node* node = &nodes_[0];
  while (node->feature >= 0) {
    const std::size_t f = static_cast<std::size_t>(node->feature);
    if (f >= row.size()) throw MlError("regression tree: short feature row");
    node = row[f] <= node->threshold
               ? &nodes_[static_cast<std::size_t>(node->left)]
               : &nodes_[static_cast<std::size_t>(node->right)];
  }
  return node->leaf_id;
}

double RegressionTree::predict(std::span<const double> row) const {
  return leaf_value(apply(row));
}

void RegressionTree::set_leaf_value(int leaf_id, double value) {
  nodes_[static_cast<std::size_t>(leaf_nodes_.at(
             static_cast<std::size_t>(leaf_id)))]
      .value = value;
}

double RegressionTree::leaf_value(int leaf_id) const {
  return nodes_[static_cast<std::size_t>(leaf_nodes_.at(
                    static_cast<std::size_t>(leaf_id)))]
      .value;
}

}  // namespace pml::ml
