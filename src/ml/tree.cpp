#include "ml/tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "common/parallel.hpp"
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

/// Candidate feature subset for one split (without replacement), into a
/// reused buffer: a fresh iota, one full shuffle, truncated.
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

ColumnRanks::ColumnRanks(const Matrix& x, int threads) : rows_(x.rows()) {
  if (rows_ > std::numeric_limits<std::uint32_t>::max()) {
    throw MlError("tree: " + std::to_string(rows_) +
                  " rows exceed the 32-bit rank range");
  }
  const std::size_t cols = x.cols();
  ranks_.resize(rows_ * cols);
  // Each column is ranked on its own; a column stops at its first
  // non-finite row, and the lowest such column is reported below.
  constexpr std::size_t kFinite = std::numeric_limits<std::size_t>::max();
  std::vector<std::vector<double>> distinct(cols);
  std::vector<std::size_t> bad_row(cols, kFinite);
  parallel_for(threads, cols, [&](std::size_t f) {
    std::vector<std::pair<double, std::uint32_t>> sorted(rows_);
    for (std::size_t r = 0; r < rows_; ++r) {
      const double v = x.at(r, f);
      if (!std::isfinite(v)) {
        bad_row[f] = r;
        return;
      }
      sorted[r] = {v, static_cast<std::uint32_t>(r)};
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<double>& values = distinct[f];
    std::uint32_t* rank = ranks_.data() + f * rows_;
    for (std::size_t i = 0; i < rows_; ++i) {
      // Strict >, so -0.0 and 0.0 share a rank (they compare equal, and the
      // midpoints they form with any other value are the same).
      if (i == 0 || sorted[i].first > values.back()) {
        values.push_back(sorted[i].first);
      }
      rank[sorted[i].second] = static_cast<std::uint32_t>(values.size() - 1);
    }
  });
  offsets_.reserve(cols + 1);
  offsets_.push_back(0);
  for (std::size_t f = 0; f < cols; ++f) {
    if (bad_row[f] != kFinite) {
      throw MlError("tree: non-finite feature value at row " +
                    std::to_string(bad_row[f]) + ", column " +
                    std::to_string(f));
    }
    values_.insert(values_.end(), distinct[f].begin(), distinct[f].end());
    offsets_.push_back(values_.size());
  }
}

// ---- DecisionTree ----------------------------------------------------------

/// One distinct row of a fit's sample list and how many times the list
/// names it.
struct WeightedRow {
  std::uint32_t row;
  std::uint32_t weight;
};

/// Per-fit scratch shared by every node of one tree, so build() performs
/// no per-node or per-candidate heap allocations. The workspace is only
/// read between a node's entry and its recursive calls, so one serves the
/// whole tree.
struct DecisionTree::FitWorkspace {
  /// The fit's distinct rows; each node owns a range, partitioned in place.
  std::vector<WeightedRow> rows;
  std::vector<std::size_t> features;  ///< candidate feature subset
  std::vector<std::uint32_t> labels;  ///< node labels, in row order
  std::vector<std::uint32_t> hist;    ///< bins x classes weighted counts
  std::vector<std::uint64_t> keys;    ///< (rank << 32 | position), sort branch
  std::vector<double> counts;         ///< node class histogram
  std::vector<double> left;           ///< running left-child histogram
  std::vector<double> right;          ///< running right-child histogram
  std::vector<double> best_left;      ///< left histogram at the best split
  std::vector<double> proba;          ///< leaf distribution being appended
  std::uint64_t split_candidates = 0; ///< thresholds scored this fit
};

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
  // Weights are 32-bit, and so are the histogram bins that sum them.
  if (samples.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw MlError("tree: " + std::to_string(samples.size()) +
                  " samples exceed the 32-bit weight range");
  }
  // The multiplicity of every row; a node then holds each row once.
  std::vector<std::uint32_t> weight(x.rows(), samples.empty() ? 1 : 0);
  for (const std::size_t s : samples) {
    if (s >= x.rows()) {
      throw MlError("tree: sample index " + std::to_string(s) +
                    " outside the " + std::to_string(x.rows()) +
                    " training rows");
    }
    ++weight[s];
  }
  const auto total =
      static_cast<double>(samples.empty() ? x.rows() : samples.size());

  flat_ = FlatForest{};
  depth_ = 0;
  num_classes_ = num_classes;
  importances_.assign(x.cols(), 0.0);
  flat_.begin_tree();
  if (params_.reference_splitter) {
    std::vector<std::size_t> idx(samples.begin(), samples.end());
    if (samples.empty()) {
      idx.resize(x.rows());
      std::iota(idx.begin(), idx.end(), 0u);
    }
    build_reference(x, y, num_classes, idx, 0, idx.size(), 0, total, rng);
  } else {
    const auto k = static_cast<std::size_t>(num_classes);
    FitWorkspace ws;
    for (std::size_t r = 0; r < weight.size(); ++r) {
      if (weight[r] > 0) {
        ws.rows.push_back({static_cast<std::uint32_t>(r), weight[r]});
      }
    }
    ws.features.reserve(x.cols());
    ws.labels.reserve(ws.rows.size());
    ws.counts.resize(k);
    ws.left.resize(k);
    ws.right.resize(k);
    ws.best_left.resize(k);
    ws.proba.resize(k);
    build(ranks, y, ws, 0, ws.rows.size(), 0, total, rng);
    if (obs::enabled()) {
      // Accumulated branchlessly in the split loop; flushed once per fit.
      static obs::Counter candidates("ml.split_candidates");
      candidates.add(ws.split_candidates);
    }
  }
  flat_.finish(num_classes);
}

// Optimised split finder. Each node holds its distinct rows once, with
// their multiplicities, and every count is a weighted sum. Nothing is
// sorted by value: each candidate feature's class counts per distinct value
// come from the shared ColumnRanks, by one counting pass into a
// bins x classes histogram when the column has no more distinct values than
// the node has rows, else by sorting packed (rank << 32 | position) keys.
// Candidates are the midpoints of adjacent present values, visited in
// ascending order as the reference's sorted scan visits them, and each is
// scored in O(1) from incrementally maintained sums of squared class
// counts. Class counts are integers held exactly in doubles, so adding m
// samples of a class at once (sumsq += 2*l*m + m*m) lands on exactly the
// value m single-sample steps reach, whatever the grouping; the winning
// split's impurity decrease is then recomputed with gini_impurity from the
// snapshotted winning histogram. Serialized trees (thresholds, leaf
// distributions AND importances) are therefore bit-identical to
// build_reference.
void DecisionTree::build(const ColumnRanks& ranks, std::span<const int> y,
                         FitWorkspace& ws, std::size_t begin, std::size_t end,
                         int level, double total_samples, Rng& rng) {
  depth_ = std::max(depth_, level);
  const std::size_t u = end - begin;  // distinct rows
  const auto k = static_cast<std::size_t>(num_classes_);
  const std::span<const WeightedRow> node(ws.rows.data() + begin, u);

  std::fill(ws.counts.begin(), ws.counts.end(), 0.0);
  ws.labels.resize(u);
  std::size_t n = 0;  // samples, counting repeats
  for (std::size_t i = 0; i < u; ++i) {
    const int cls = y[node[i].row];
    ws.labels[i] = static_cast<std::uint32_t>(cls);
    ws.counts[static_cast<std::size_t>(cls)] += node[i].weight;
    n += node[i].weight;
  }
  const double node_gini = gini_impurity(ws.counts);

  auto make_leaf = [&] {
    for (std::size_t c = 0; c < k; ++c) {
      ws.proba[c] = ws.counts[c] / static_cast<double>(n);
    }
    flat_.add_leaf(ws.proba);
  };

  const bool depth_capped = params_.max_depth >= 0 && level >= params_.max_depth;
  if (node_gini <= 0.0 || depth_capped ||
      n < static_cast<std::size_t>(params_.min_samples_split)) {
    make_leaf();
    return;
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
  std::uint32_t best_rank = 0;  // rank of the largest value sent left
  double sumsq_l = 0.0;
  double sumsq_r = 0.0;

  // Move m samples of class c from the right child to the left one.
  auto shift = [&](std::size_t c, double m) {
    sumsq_l += 2.0 * ws.left[c] * m + m * m;
    sumsq_r -= 2.0 * ws.right[c] * m - m * m;
    ws.left[c] += m;
    ws.right[c] -= m;
  };
  // Score the threshold between adjacent present values lo < hi (lo of
  // rank lo_rank), with the nl samples valued <= lo on the left.
  auto consider = [&](std::size_t f, std::span<const double> values,
                      std::uint32_t lo_rank, std::uint32_t hi_rank,
                      std::size_t nl) {
    ++ws.split_candidates;
    const auto dl = static_cast<double>(nl);
    const auto dr = static_cast<double>(n - nl);
    if (dl < params_.min_samples_leaf || dr < params_.min_samples_leaf) return;
    const double score = sumsq_l / dl + sumsq_r / dr;
    if (score > best_score + score_tol) {
      best.found = true;
      best.feature = f;
      best.threshold = split_threshold(values[lo_rank], values[hi_rank]);
      best_score = score;
      best_nl = nl;
      best_rank = lo_rank;
      std::copy(ws.left.begin(), ws.left.end(), ws.best_left.begin());
    }
  };

  sample_features_into(ranks.cols(), params_.max_features, rng, ws.features);
  for (const std::size_t f : ws.features) {
    const std::span<const double> values = ranks.values(f);
    const std::span<const std::uint32_t> rank = ranks.ranks(f);
    std::fill(ws.left.begin(), ws.left.end(), 0.0);
    std::copy(ws.counts.begin(), ws.counts.end(), ws.right.begin());
    sumsq_l = 0.0;
    sumsq_r = 0.0;
    for (const double c : ws.counts) sumsq_r += c * c;
    std::size_t nl = 0;

    if (values.size() <= u) {
      // Counting pass, then the non-empty bins in ascending value order.
      ws.hist.assign(values.size() * k, 0);
      for (std::size_t i = 0; i < u; ++i) {
        ws.hist[rank[node[i].row] * k + ws.labels[i]] += node[i].weight;
      }
      std::uint32_t prev = 0;
      for (std::uint32_t b = 0; nl < n; ++b) {
        const std::uint32_t* bin = ws.hist.data() + std::size_t{b} * k;
        std::size_t in_bin = 0;
        for (std::size_t c = 0; c < k; ++c) in_bin += bin[c];
        if (in_bin == 0) continue;
        if (nl > 0) consider(f, values, prev, b, nl);
        for (std::size_t c = 0; c < k; ++c) {
          if (bin[c] != 0) shift(c, static_cast<double>(bin[c]));
        }
        nl += in_bin;
        prev = b;
      }
    } else {
      // More distinct values than rows: sort the rows by rank, keyed with
      // their position in the node; a candidate falls between rank runs.
      ws.keys.resize(u);
      for (std::size_t i = 0; i < u; ++i) {
        ws.keys[i] = std::uint64_t{rank[node[i].row]} << 32 | i;
      }
      std::sort(ws.keys.begin(), ws.keys.end());
      for (std::size_t i = 0; i < u;) {
        const auto r = static_cast<std::uint32_t>(ws.keys[i] >> 32);
        std::size_t j = i;
        for (; j < u && ws.keys[j] >> 32 == r; ++j) {
          const auto at = static_cast<std::size_t>(ws.keys[j] & 0xffffffffu);
          shift(ws.labels[at], static_cast<double>(node[at].weight));
          nl += node[at].weight;
        }
        if (j < u) {
          consider(f, values, r, static_cast<std::uint32_t>(ws.keys[j] >> 32),
                   nl);
        }
        i = j;
      }
    }
  }
  if (!best.found) {
    make_leaf();
    return;
  }

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

  // The rank test is the value test predict() applies: split_threshold()
  // puts the threshold in [lo, hi), so exactly the rows valued <= lo, the
  // rows ranked <= rank(lo), go left.
  const std::span<const std::uint32_t> rank = ranks.ranks(best.feature);
  const auto first = ws.rows.begin() + static_cast<long>(begin);
  const auto mid_it = std::partition(
      first, first + static_cast<long>(u),
      [&](const WeightedRow& s) { return rank[s.row] <= best_rank; });
  const auto mid = begin + static_cast<std::size_t>(mid_it - first);

  flat_.add_split(static_cast<int>(best.feature), best.threshold);
  build(ranks, y, ws, begin, mid, level + 1, total_samples, rng);
  build(ranks, y, ws, mid, end, level + 1, total_samples, rng);
}

// Pre-optimisation split finder, retained as the correctness oracle: tests
// assert the optimised build produces byte-identical JSON. It emits its
// nodes through the same FlatForest builder.
void DecisionTree::build_reference(const Matrix& x, std::span<const int> y,
                                   int num_classes,
                                   std::vector<std::size_t>& samples,
                                   std::size_t begin, std::size_t end,
                                   int level, double total_samples, Rng& rng) {
  depth_ = std::max(depth_, level);
  const std::size_t n = end - begin;

  std::vector<double> counts(static_cast<std::size_t>(num_classes), 0.0);
  for (std::size_t i = begin; i < end; ++i) {
    counts[static_cast<std::size_t>(y[samples[i]])] += 1.0;
  }
  const double node_gini = gini_impurity(counts);

  auto make_leaf = [&] {
    std::vector<double> proba(counts.size());
    for (std::size_t c = 0; c < counts.size(); ++c) {
      proba[c] = counts[c] / static_cast<double>(n);
    }
    flat_.add_leaf(proba);
  };

  const bool depth_capped = params_.max_depth >= 0 && level >= params_.max_depth;
  if (node_gini <= 0.0 || depth_capped ||
      n < static_cast<std::size_t>(params_.min_samples_split)) {
    make_leaf();
    return;
  }

  // Best Gini split over a (possibly random) feature subset.
  SplitResult best;
  std::vector<std::size_t> features;
  sample_features_into(x.cols(), params_.max_features, rng, features);
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
  if (!best.found) {
    make_leaf();
    return;
  }

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

  flat_.add_split(static_cast<int>(best.feature), best.threshold);
  build_reference(x, y, num_classes, samples, begin, mid, level + 1,
                  total_samples, rng);
  build_reference(x, y, num_classes, samples, mid, end, level + 1,
                  total_samples, rng);
}

void DecisionTree::require_fitted() const {
  if (!fitted()) throw MlError("tree: used before fit");
}

std::vector<double> DecisionTree::predict_proba(
    std::span<const double> row) const {
  require_fitted();
  std::vector<double> proba(static_cast<std::size_t>(num_classes_));
  flat_.tree_leaf(0, row, proba);
  return proba;
}

int DecisionTree::predict(std::span<const double> row) const {
  const auto p = predict_proba(row);
  return static_cast<int>(std::max_element(p.begin(), p.end()) - p.begin());
}

void DecisionTree::append_flat(FlatForest& flat) const {
  require_fitted();
  flat.append_trees(flat_);
}

Json DecisionTree::to_json() const {
  require_fitted();
  return flat_.tree_json(0, depth_, importances_);
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
