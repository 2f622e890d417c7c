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

Json RandomForest::to_json() const { return render(false); }

Json RandomForest::to_columnar_json() const { return render(true); }

Json RandomForest::render(bool columnar) const {
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
    const std::span<const double> imp = importances_[t];
    trees.push_back(columnar ? flat_.columnar_tree_json(t, depths_[t], imp)
                             : flat_.tree_json(t, depths_[t], imp));
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
  const auto n_features = j.at("n_features").as_int();
  if (n_features < 0) throw MlError("from_json: forest n_features is negative");
  forest.n_features_ = static_cast<std::size_t>(n_features);
  const Json::Array& tree_docs = j.at("trees").as_array();
  if (tree_docs.empty()) throw MlError("from_json: forest has no trees");
  const bool columnar = !tree_docs.front().contains("nodes");
  const char* const nodes_key = columnar ? "feature" : "nodes";
  // Size the packed arrays once (doubling growth touches twice the pages a
  // daemon start faults in); a full binary tree of n nodes has (n + 1) / 2
  // leaves. Malformed trees are left to the per-tree checks.
  std::size_t nodes = 0;
  for (const Json& doc : tree_docs) {
    if (doc.contains(nodes_key) && doc.at(nodes_key).is_array()) {
      nodes += doc.at(nodes_key).as_array().size();
    }
  }
  const auto leaves = (nodes + tree_docs.size()) / 2;
  forest.flat_.reserve(nodes,
                       leaves * static_cast<std::size_t>(forest.num_classes_));
  for (std::size_t t = 0; t < tree_docs.size(); ++t) {
    if (columnar) {
      forest.append_columnar_tree_json(t, tree_docs[t]);
    } else {
      forest.append_tree_json(t, tree_docs[t]);
    }
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
  append_importances(tree, doc, max_feature);
}

namespace {

/// Entry `i` of integer array `name` in a v2 tree document. The v2 integer
/// arrays are exact: a fraction is corruption, not something to truncate.
int integral_entry(const std::string& tree, const char* name,
                   const Json::Array& array, std::size_t i) {
  const double v = array[i].as_number();
  // The range test comes first: casting a double outside int's range is UB.
  if (!(v >= -2147483648.0 && v <= 2147483647.0) ||
      static_cast<double>(static_cast<int>(v)) != v) {
    throw MlError(tree + " " + name + "[" + std::to_string(i) +
                  "] is not an int32: " + Json(v).dump());
  }
  return static_cast<int>(v);
}

}  // namespace

void RandomForest::append_columnar_tree_json(std::size_t t, const Json& doc) {
  // The same promise as the v1 reader: a corrupt bundle fails here with an
  // MlError naming the tree, before anything reaches the builder.
  const std::string tree = "from_json: tree " + std::to_string(t);
  const int depth = static_cast<int>(doc.at("depth").as_int());
  const Json::Array& feature = doc.at("feature").as_array();
  const Json::Array& threshold = doc.at("threshold").as_array();
  const Json::Array& leaf_nnz = doc.at("leaf_nnz").as_array();
  const Json::Array& leaf_class = doc.at("leaf_class").as_array();
  const Json::Array& leaf_proba = doc.at("leaf_proba").as_array();
  const std::size_t n = feature.size();
  if (n == 0) throw MlError(tree + " has no nodes");

  // One stack pass over the pre-order shape. A split's left child is the
  // next node; the node after a leaf is the right child of the innermost
  // split still waiting for one. So every right child is found, and a
  // node arriving when no split waits, or a split still waiting at the
  // end, proves the nodes are not exactly one full binary tree.
  std::vector<int> features(n);
  std::vector<int> right(n, -1);
  std::vector<int> waiting;
  std::size_t splits = 0;
  int max_feature = -1;
  for (std::size_t i = 0; i < n; ++i) {
    const int f = integral_entry(tree, "feature", feature, i);
    if (f < -1 || (f >= 0 && static_cast<std::size_t>(f) >= n_features_)) {
      throw MlError(tree + " node " + std::to_string(i) +
                    " splits on feature " + std::to_string(f) +
                    " but the forest has " +
                    std::to_string(n_features_) + " features");
    }
    features[i] = f;
    if (f >= 0) {
      ++splits;
      max_feature = std::max(max_feature, f);
    }
    if (i == 0) continue;
    if (features[i - 1] >= 0) {
      waiting.push_back(static_cast<int>(i - 1));
    } else if (waiting.empty()) {
      throw MlError(tree + " has " + std::to_string(n - i) +
                    " nodes after its last leaf");
    } else {
      right[static_cast<std::size_t>(waiting.back())] = static_cast<int>(i);
      waiting.pop_back();
    }
  }
  if (features[n - 1] >= 0 || !waiting.empty()) {
    throw MlError(tree + " is truncated: its " + std::to_string(n) +
                  " nodes end before every split has two children");
  }
  const std::size_t leaves = n - splits;
  if (threshold.size() != splits) {
    throw MlError(tree + " has " + std::to_string(threshold.size()) +
                  " thresholds for " + std::to_string(splits) + " splits");
  }
  if (leaf_nnz.size() != leaves) {
    throw MlError(tree + " has " + std::to_string(leaf_nnz.size()) +
                  " leaf_nnz entries for " + std::to_string(leaves) +
                  " leaves");
  }

  const auto k = static_cast<std::size_t>(num_classes_);
  std::vector<double> proba(k);
  std::size_t split = 0;
  std::size_t leaf = 0;
  std::size_t entry = 0;  // next leaf_class / leaf_proba entry
  flat_.begin_tree();
  for (std::size_t i = 0; i < n; ++i) {
    if (features[i] >= 0) {
      flat_.add_split(features[i], threshold[split++].as_number(),
                      static_cast<int>(i + 1), right[i]);
      continue;
    }
    const auto where = [&] { return tree + " leaf " + std::to_string(leaf); };
    const int nnz = integral_entry(tree, "leaf_nnz", leaf_nnz, leaf);
    if (nnz < 0 || static_cast<std::size_t>(nnz) > k) {
      throw MlError(where() + " has " + std::to_string(nnz) +
                    " entries, want 0 to " + std::to_string(k));
    }
    const std::size_t end = entry + static_cast<std::size_t>(nnz);
    if (end > leaf_class.size() || end > leaf_proba.size()) {
      throw MlError(where() + " runs past leaf_class (" +
                    std::to_string(leaf_class.size()) + ") or leaf_proba (" +
                    std::to_string(leaf_proba.size()) + ")");
    }
    std::fill(proba.begin(), proba.end(), 0.0);
    int previous = -1;
    for (; entry < end; ++entry) {
      const int c = integral_entry(tree, "leaf_class", leaf_class, entry);
      if (c < 0 || static_cast<std::size_t>(c) >= k) {
        throw MlError(where() + " names class " + std::to_string(c) +
                      ", forest has " + std::to_string(k));
      }
      if (c <= previous) {
        throw MlError(where() + " lists class " + std::to_string(c) +
                      " after class " + std::to_string(previous) +
                      "; class ids must ascend");
      }
      proba[static_cast<std::size_t>(c)] = leaf_proba[entry].as_number();
      previous = c;
    }
    flat_.add_leaf(proba);
    ++leaf;
  }
  if (entry != leaf_class.size() || entry != leaf_proba.size()) {
    throw MlError(tree + " leaves use " + std::to_string(entry) +
                  " entries but leaf_class holds " +
                  std::to_string(leaf_class.size()) + " and leaf_proba " +
                  std::to_string(leaf_proba.size()));
  }
  depths_.push_back(depth);
  append_importances(tree, doc, max_feature);
}

void RandomForest::append_importances(const std::string& tree,
                                      const Json& doc, int max_feature) {
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
