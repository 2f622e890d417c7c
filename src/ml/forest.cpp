#include "ml/forest.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <utility>

#include "common/parallel.hpp"
#include "obs/obs.hpp"

namespace pml::ml {

void RandomForest::fit(const Dataset& train, Rng& rng) {
  train.validate();
  if (params_.n_trees < 1) throw MlError("forest: n_trees must be >= 1");
  num_classes_ = train.num_classes;
  n_features_ = train.x.cols();
  oob_score_.reset();

  TreeParams tp;
  tp.max_depth = params_.max_depth;
  tp.min_samples_leaf = params_.min_samples_leaf;
  tp.max_features =
      params_.max_features > 0
          ? params_.max_features
          : std::max(1, static_cast<int>(std::floor(
                            std::sqrt(static_cast<double>(n_features_)))));

  const std::size_t n = train.size();
  const auto n_trees = static_cast<std::size_t>(params_.n_trees);

  // Pre-split the per-tree RNG streams sequentially: tree t sees exactly the
  // stream the serial loop would hand it, so the fitted forest is
  // bit-identical to the threads=1 build at any thread count.
  std::vector<Rng> tree_rngs;
  tree_rngs.reserve(n_trees);
  for (std::size_t t = 0; t < n_trees; ++t) tree_rngs.push_back(rng.split());

  // Ranked once, shared read-only by every tree fit; also where a
  // non-finite feature value is rejected.
  const ColumnRanks ranks(train.x);
  trees_.assign(n_trees, DecisionTree(tp));
  // Per-tree OOB contributions (row index, span into the fitted tree's leaf
  // distribution — no copies), merged in tree order after the barrier so the
  // floating-point accumulation order matches the serial loop exactly. The
  // spans stay valid because trees_ is not resized after this point.
  std::vector<std::vector<std::pair<std::size_t, std::span<const double>>>>
      oob_parts(params_.bootstrap ? n_trees : 0);

  parallel_for(params_.threads, n_trees, [&](std::size_t t) {
    obs::Span span("ml.tree_fit");
    Rng& tree_rng = tree_rngs[t];
    if (params_.bootstrap) {
      std::vector<char> in_bag(n, 0);
      std::vector<std::size_t> sample(n);
      for (std::size_t i = 0; i < n; ++i) {
        sample[i] = static_cast<std::size_t>(tree_rng.uniform_index(n));
        in_bag[sample[i]] = 1;
      }
      trees_[t].fit(train.x, ranks, train.y, num_classes_, tree_rng, sample);
      for (std::size_t i = 0; i < n; ++i) {
        if (in_bag[i]) continue;
        oob_parts[t].emplace_back(i, trees_[t].leaf_proba_for(train.x.row(i)));
      }
    } else {
      trees_[t].fit(train.x, ranks, train.y, num_classes_, tree_rng, {});
    }
  });

  if (params_.bootstrap) {
    // OOB vote accumulation: votes[i][c] over trees where i was out of bag.
    std::vector<std::vector<double>> oob_votes(
        n, std::vector<double>(static_cast<std::size_t>(num_classes_), 0.0));
    for (std::size_t t = 0; t < n_trees; ++t) {
      for (const auto& [i, p] : oob_parts[t]) {
        for (std::size_t c = 0; c < p.size(); ++c) oob_votes[i][c] += p[c];
      }
    }
    std::size_t scored = 0;
    std::size_t correct = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& v = oob_votes[i];
      double total = 0.0;
      for (const double x : v) total += x;
      if (total <= 0.0) continue;  // never out of bag
      ++scored;
      const int pred = static_cast<int>(
          std::max_element(v.begin(), v.end()) - v.begin());
      if (pred == train.y[i]) ++correct;
    }
    if (scored > 0) {
      oob_score_ = static_cast<double>(correct) / static_cast<double>(scored);
    }
  }
  rebuild_flat();
}

void RandomForest::rebuild_flat() {
  flat_.clear();
  for (const DecisionTree& tree : trees_) tree.append_flat(flat_);
  flat_.finish(num_classes_);
}

std::vector<double> RandomForest::predict_proba(
    std::span<const double> row) const {
  require_fitted();
  std::vector<double> proba(static_cast<std::size_t>(num_classes_));
  flat_.predict_proba_into(row, proba);
  return proba;
}

void RandomForest::predict_proba_into(std::span<const double> row,
                                      std::span<double> out) const {
  require_fitted();
  flat_.predict_proba_into(row, out);
}

void RandomForest::predict_batch(const Matrix& rows, Matrix& out) const {
  require_fitted();
  flat_.predict_batch(rows, out);
}

std::vector<double> RandomForest::feature_importances() const {
  require_fitted();
  std::vector<double> total(n_features_, 0.0);
  for (const DecisionTree& tree : trees_) {
    const auto imp = tree.feature_importances();
    // Loaded pre-importances bundles may carry fewer entries than
    // n_features_ (trailing unused features): missing entries are zero.
    const std::size_t m = std::min(total.size(), imp.size());
    for (std::size_t f = 0; f < m; ++f) total[f] += imp[f];
  }
  double sum = 0.0;
  for (const double v : total) sum += v;
  if (sum > 0.0) {
    for (double& v : total) v /= sum;
  }
  return total;
}

Json RandomForest::to_json() const {
  require_fitted();
  Json j = Json::object();
  j["model"] = "random_forest";
  j["num_classes"] = num_classes_;
  j["n_features"] = n_features_;
  Json params = Json::object();
  params["n_trees"] = params_.n_trees;
  params["max_depth"] = params_.max_depth;
  params["min_samples_leaf"] = params_.min_samples_leaf;
  params["max_features"] = params_.max_features;
  params["bootstrap"] = params_.bootstrap;
  j["params"] = std::move(params);
  Json trees = Json::array();
  for (const DecisionTree& t : trees_) trees.push_back(t.to_json());
  j["trees"] = std::move(trees);
  return j;
}

RandomForest RandomForest::from_json(const Json& j) {
  if (j.at("model").as_string() != "random_forest") {
    throw MlError("from_json: not a random_forest model");
  }
  RandomForestParams params;
  const Json& pj = j.at("params");
  params.n_trees = static_cast<int>(pj.at("n_trees").as_int());
  params.max_depth = static_cast<int>(pj.at("max_depth").as_int());
  params.min_samples_leaf =
      static_cast<int>(pj.at("min_samples_leaf").as_int());
  params.max_features = static_cast<int>(pj.at("max_features").as_int());
  params.bootstrap = pj.at("bootstrap").as_bool();

  RandomForest forest(params);
  forest.num_classes_ = static_cast<int>(j.at("num_classes").as_int());
  if (forest.num_classes_ < 1) {
    throw MlError("from_json: forest num_classes must be >= 1");
  }
  forest.n_features_ =
      static_cast<std::size_t>(j.at("n_features").as_int());
  // Trees decode independently into pre-sized slots on the pool; a failed
  // decode is parked in its slot. The checks then run in tree order, so
  // the error raised is the one the serial loop would raise first.
  const Json::Array& tree_docs = j.at("trees").as_array();
  forest.trees_.resize(tree_docs.size());
  std::vector<std::exception_ptr> decode_errors(tree_docs.size());
  parallel_for(0, tree_docs.size(), [&](std::size_t t) {
    try {
      forest.trees_[t] = DecisionTree::from_json(tree_docs[t]);
    } catch (...) {
      decode_errors[t] = std::current_exception();
    }
  });
  for (std::size_t t = 0; t < tree_docs.size(); ++t) {
    if (decode_errors[t]) std::rethrow_exception(decode_errors[t]);
    // A corrupt or hand-edited bundle must fail here with a clean MlError,
    // not as an out-of-bounds read at inference time: every split must
    // reference a feature the forest's rows actually have, and every leaf
    // distribution must match the forest's class count (the tree-level
    // loader already checks proba sizes against the tree's own num_classes).
    const DecisionTree& tree = forest.trees_[t];
    if (tree.num_classes() != forest.num_classes_) {
      throw MlError("from_json: tree " + std::to_string(t) + " has " +
                    std::to_string(tree.num_classes()) +
                    " classes, forest has " +
                    std::to_string(forest.num_classes_));
    }
    const int max_feature = tree.max_feature_index();
    if (max_feature >= 0 &&
        static_cast<std::size_t>(max_feature) >= forest.n_features_) {
      throw MlError("from_json: tree " + std::to_string(t) +
                    " splits on feature " + std::to_string(max_feature) +
                    " but the forest has " +
                    std::to_string(forest.n_features_) + " features");
    }
  }
  if (forest.trees_.empty()) throw MlError("from_json: forest has no trees");
  forest.rebuild_flat();
  return forest;
}

}  // namespace pml::ml
