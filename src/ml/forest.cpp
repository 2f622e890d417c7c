#include "ml/forest.hpp"

#include <algorithm>
#include <cmath>
#include <string>
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
  std::vector<DecisionTree> trees(n_trees, DecisionTree(tp));
  // Per-tree OOB contributions (row index, span into the fitted tree's leaf
  // distribution — no copies), merged in tree order after the barrier so the
  // floating-point accumulation order matches the serial loop exactly. The
  // spans stay valid because `trees` is not resized after this point.
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
      trees[t].fit(train.x, ranks, train.y, num_classes_, tree_rng, sample);
      for (std::size_t i = 0; i < n; ++i) {
        if (in_bag[i]) continue;
        oob_parts[t].emplace_back(i, trees[t].leaf_proba_for(train.x.row(i)));
      }
    } else {
      trees[t].fit(train.x, ranks, train.y, num_classes_, tree_rng, {});
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
  flat_ = FlatForest{};
  depths_.clear();
  importances_.clear();
  for (const DecisionTree& tree : trees) {
    tree.append_flat(flat_);
    depths_.push_back(tree.depth());
    const auto imp = tree.feature_importances();
    importances_.emplace_back(imp.begin(), imp.end());
  }
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
  for (const std::vector<double>& imp : importances_) {
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
  for (std::size_t t = 0; t < flat_.tree_count(); ++t) {
    trees.push_back(flat_.tree_json(t, depths_[t], importances_[t]));
  }
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
  const Json::Array& tree_docs = j.at("trees").as_array();
  if (tree_docs.empty()) throw MlError("from_json: forest has no trees");
  // Size the packed arrays once (doubling growth touches twice the pages a
  // daemon start faults in); a full binary tree of n nodes has (n + 1) / 2
  // leaves. Malformed trees are left to the per-tree checks.
  std::size_t nodes = 0;
  for (const Json& doc : tree_docs) {
    if (doc.contains("nodes") && doc.at("nodes").is_array()) {
      nodes += doc.at("nodes").as_array().size();
    }
  }
  const auto leaves = (nodes + tree_docs.size()) / 2;
  forest.flat_.reserve(nodes,
                       leaves * static_cast<std::size_t>(forest.num_classes_));
  for (std::size_t t = 0; t < tree_docs.size(); ++t) {
    forest.append_tree_json(t, tree_docs[t]);
  }
  forest.flat_.finish(forest.num_classes_);
  return forest;
}

void RandomForest::append_tree_json(std::size_t t, const Json& doc) {
  // A corrupt or hand-edited bundle must fail here with a clean MlError,
  // not as an out-of-bounds read at inference time. Trees decode in order,
  // so the error raised names the first bad tree; finish() then checks
  // each tree's child ids and pre-order.
  const std::string tree = "from_json: tree " + std::to_string(t);
  const auto classes = doc.at("num_classes").as_int();
  if (classes != num_classes_) {
    throw MlError(tree + " has " + std::to_string(classes) +
                  " classes, forest has " + std::to_string(num_classes_));
  }
  depths_.push_back(static_cast<int>(doc.at("depth").as_int()));
  const auto k = static_cast<std::size_t>(num_classes_);
  std::vector<double> proba;
  proba.reserve(k);
  int max_feature = -1;
  flat_.begin_tree();
  const Json::Array& nodes = doc.at("nodes").as_array();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Json& nj = nodes[i];
    const int feature = static_cast<int>(nj.at("feature").as_int());
    if (feature >= 0) {
      if (static_cast<std::size_t>(feature) >= n_features_) {
        throw MlError(tree + " splits on feature " + std::to_string(feature) +
                      " but the forest has " + std::to_string(n_features_) +
                      " features");
      }
      max_feature = std::max(max_feature, feature);
      flat_.add_split(feature, nj.at("threshold").as_number(),
                      static_cast<int>(nj.at("left").as_int()),
                      static_cast<int>(nj.at("right").as_int()));
    } else {
      // finish() only checks the pooled total, which a leaf one value
      // short and another one value long would still meet.
      const Json::Array& pj = nj.at("proba").as_array();
      if (pj.size() != k) {
        throw MlError(tree + " leaf node " + std::to_string(i) + " has " +
                      std::to_string(pj.size()) + " probabilities, want " +
                      std::to_string(k));
      }
      proba.clear();
      for (const Json& p : pj) proba.push_back(p.as_number());
      flat_.add_leaf(proba);
    }
  }
  std::vector<double> importances;
  const auto needed = static_cast<std::size_t>(max_feature + 1);
  if (doc.contains("importances")) {
    for (const Json& v : doc.at("importances").as_array()) {
      importances.push_back(v.as_number());
    }
    if (importances.size() < needed) {
      throw MlError(tree + " importances cover " +
                    std::to_string(importances.size()) +
                    " features but splits reference feature " +
                    std::to_string(max_feature));
    }
  } else {
    // Pre-importances bundles: zeros wide enough for every feature the
    // splits reference.
    importances.assign(needed, 0.0);
  }
  importances_.push_back(std::move(importances));
}

}  // namespace pml::ml
