#include "ml/forest.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "common/parallel.hpp"
#include "obs/obs.hpp"

namespace pml::ml {

namespace {

/// oob_leaf's mark for a row in a tree's bootstrap sample.
constexpr std::uint32_t kInBag = std::numeric_limits<std::uint32_t>::max();

}  // namespace

void RandomForest::fit(const Dataset& train, Rng& rng) {
  obs::Span span("ml.forest_fit");
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
  const ColumnRanks ranks(train.x, params_.threads);
  std::vector<DecisionTree> trees(n_trees, DecisionTree(tp));
  // oob_leaf[t * n + i]: the leaf of tree t that out-of-bag row i reaches,
  // or kInBag. Each worker fills its tree's slice, walking the rows while
  // the tree is in cache, so the array is not zeroed up front.
  const std::size_t oob_size = params_.bootstrap ? n_trees * n : 0;
  const auto oob_leaf =
      std::make_unique_for_overwrite<std::uint32_t[]>(oob_size);

  parallel_for(params_.threads, n_trees, [&](std::size_t t) {
    obs::Span tree_span("ml.tree_fit");
    Rng& tree_rng = tree_rngs[t];
    if (!params_.bootstrap) {
      trees[t].fit(train.x, ranks, train.y, num_classes_, tree_rng, {});
      return;
    }
    std::uint32_t* leaf = oob_leaf.get() + t * n;
    std::fill(leaf, leaf + n, 0);
    std::vector<std::size_t> sample(n);
    for (std::size_t i = 0; i < n; ++i) {
      sample[i] = static_cast<std::size_t>(tree_rng.uniform_index(n));
      leaf[sample[i]] = kInBag;
    }
    trees[t].fit(train.x, ranks, train.y, num_classes_, tree_rng, sample);
    const FlatForest& tree = trees[t].flat();
    for (std::size_t i = 0; i < n; ++i) {
      if (leaf[i] != kInBag) {
        leaf[i] = static_cast<std::uint32_t>(tree.leaf_of(0, train.x.row(i)));
      }
    }
  });

  // After the barrier: one bulk copy per tree into the reserved forest,
  // then the out-of-bag vote sums on the pool.
  obs::Span merge_span("ml.forest_merge");
  std::vector<std::size_t> leaf_base(n_trees + 1, 0);
  std::size_t nodes = 0;
  std::size_t entries = 0;
  for (std::size_t t = 0; t < n_trees; ++t) {
    const FlatForest& tree = trees[t].flat();
    leaf_base[t + 1] = leaf_base[t] + tree.leaf_count();
    nodes += tree.node_count();
    entries += tree.entry_count();
  }
  flat_ = FlatForest{};
  flat_.reserve(nodes, leaf_base.back(), entries);
  depths_.clear();
  importances_.clear();
  for (DecisionTree& tree : trees) {
    tree.append_flat(flat_);
    depths_.push_back(tree.depth());
    const auto imp = tree.feature_importances();
    importances_.emplace_back(imp.begin(), imp.end());
    tree = DecisionTree(tp);  // its columns now live in flat_
  }
  flat_.finish(num_classes_);
  if (params_.bootstrap) {
    oob_score_ = oob_accuracy(train, {oob_leaf.get(), oob_size}, leaf_base);
  }
}

std::optional<double> RandomForest::oob_accuracy(
    const Dataset& train, std::span<const std::uint32_t> oob_leaf,
    std::span<const std::size_t> leaf_base) const {
  // Rows are scored in chunks on the pool. Each row's votes are summed over
  // the trees it was out of bag for, in tree order, as a serial loop adds
  // them.
  constexpr std::size_t kChunk = 256;
  const std::size_t n = train.size();
  const auto k = static_cast<std::size_t>(num_classes_);
  const std::size_t chunks = (n + kChunk - 1) / kChunk;
  std::vector<std::size_t> scored(chunks, 0);
  std::vector<std::size_t> correct(chunks, 0);
  parallel_for(params_.threads, chunks, [&](std::size_t chunk) {
    const std::size_t first = chunk * kChunk;
    const std::size_t last = std::min(n, first + kChunk);
    std::vector<double> votes((last - first) * k, 0.0);
    for (std::size_t t = 0; t < flat_.tree_count(); ++t) {
      for (std::size_t i = first; i < last; ++i) {
        const std::uint32_t leaf = oob_leaf[t * n + i];
        if (leaf == kInBag) continue;
        flat_.add_leaf_entries(leaf_base[t] + leaf,
                               {votes.data() + (i - first) * k, k});
      }
    }
    for (std::size_t i = first; i < last; ++i) {
      const std::span<const double> v(votes.data() + (i - first) * k, k);
      double total = 0.0;
      for (const double x : v) total += x;
      if (total <= 0.0) continue;  // never out of bag
      ++scored[chunk];
      const int pred = static_cast<int>(
          std::max_element(v.begin(), v.end()) - v.begin());
      if (pred == train.y[i]) ++correct[chunk];
    }
  });
  std::size_t scored_rows = 0;
  std::size_t correct_rows = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    scored_rows += scored[c];
    correct_rows += correct[c];
  }
  if (scored_rows == 0) return std::nullopt;
  return static_cast<double>(correct_rows) / static_cast<double>(scored_rows);
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

namespace {

/// One member of a v2 tree document as a tree reader found it, failing
/// where Json's accessors fail on the same member.
struct Column {
  enum class Kind : std::uint8_t { kMissing, kOther, kArray };
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  Kind kind = Kind::kMissing;
  std::vector<double> values;  ///< one per entry, so size() is the array's
  std::size_t bad = npos;      ///< first entry that is not a number

  void pull(JsonReader& reader) {
    using Token = JsonReader::Token;
    values.clear();
    bad = npos;
    Token token = reader.next();
    if (token != Token::kBeginArray) {
      kind = Kind::kOther;
      reader.skip(token);
      return;
    }
    kind = Kind::kArray;
    while ((token = reader.next()) != Token::kEndArray) {
      const bool number = token == Token::kNumber;
      if (!number && bad == npos) bad = values.size();
      values.push_back(number ? reader.number() : 0.0);
      reader.skip(token);
    }
  }
  void fill(const Json& member) {
    values.clear();
    bad = npos;
    if (!member.is_array()) {
      kind = Kind::kOther;
      return;
    }
    kind = Kind::kArray;
    for (const Json& entry : member.as_array()) {
      if (!entry.is_number() && bad == npos) bad = values.size();
      values.push_back(entry.is_number() ? entry.as_number() : 0.0);
    }
  }
  std::size_t size() const noexcept { return values.size(); }
  /// Entry i's as_number(). Every reader walks its columns in order, so
  /// the first non-number it reads is the entry the DOM reader failed at.
  double number(std::size_t i) const {
    if (i >= bad) throw JsonError("value is not a number");
    return values[i];
  }
};

/// How errors name tree `t`; built only when one is thrown.
std::string tree_name(std::size_t t) {
  return "from_json: tree " + std::to_string(t);
}

/// Entry `i` of integer column `name` in v2 tree `t`. The v2 integer
/// arrays are exact: a fraction is corruption, not something to truncate.
int integral_entry(std::size_t t, const char* name, const Column& column,
                   std::size_t i) {
  const double v = column.number(i);
  // The range test comes first: casting a double outside int's range is UB.
  if (!(v >= -2147483648.0 && v <= 2147483647.0) ||
      static_cast<double>(static_cast<int>(v)) != v) {
    throw MlError(tree_name(t) + " " + name + "[" + std::to_string(i) +
                  "] is not an int32: " + Json(v).dump());
  }
  return static_cast<int>(v);
}

}  // namespace

/// One v2 tree document, pulled from text or filled from a Json: its
/// members in any order, a repeated key taking its last value. Reused
/// from tree to tree.
struct RandomForest::TreeColumns {
  bool object = false;
  bool nodes = false;  ///< pulled with a v1 "nodes" member
  std::optional<Json> depth;
  Column importances, feature, threshold, leaf_nnz, leaf_class, leaf_proba;
  /// append_columns' per-leaf scratch.
  std::vector<std::uint32_t> classes;
  std::vector<double> values;

  void pull(JsonReader& reader, JsonReader::Token first) {
    if (!clear(first == JsonReader::Token::kBeginObject)) {
      reader.skip(first);
      return;
    }
    while (reader.next() == JsonReader::Token::kKey) {
      const std::string_view key = reader.string();
      if (Column* c = column(key)) {
        c->pull(reader);
      } else if (key == "depth") {
        depth = Json::read(reader, reader.next());
      } else {
        nodes = nodes || key == "nodes";
        reader.skip(reader.next());
      }
    }
  }
  void fill(const Json& doc) {
    if (!clear(doc.is_object())) return;
    for (const auto& [key, member] : doc.as_object()) {
      if (Column* c = column(key)) {
        c->fill(member);
      } else if (key == "depth") {
        depth = member;
      }
    }
  }

  /// doc.at(name).as_array(), failing as Json does.
  const Column& array(const Column& column, const char* name) const {
    if (!object) throw JsonError("value is not a object");
    if (column.kind == Column::Kind::kMissing) {
      throw JsonError(std::string("missing key: ") + name);
    }
    if (column.kind == Column::Kind::kOther) {
      throw JsonError("value is not a array");
    }
    return column;
  }
  /// doc.at("depth").as_int().
  std::int64_t depth_value() const {
    if (!object) throw JsonError("value is not a object");
    if (!depth) throw JsonError("missing key: depth");
    return depth->as_int();
  }

 private:
  /// Forgets the previous tree; returns `is_object`.
  bool clear(bool is_object) {
    object = is_object;
    nodes = false;
    depth.reset();
    for (Column* c : {&importances, &feature, &threshold, &leaf_nnz,
                      &leaf_class, &leaf_proba}) {
      c->kind = Column::Kind::kMissing;
    }
    return object;
  }
  Column* column(std::string_view key) {
    return key == "feature"       ? &feature
           : key == "threshold"   ? &threshold
           : key == "leaf_nnz"    ? &leaf_nnz
           : key == "leaf_class"  ? &leaf_class
           : key == "leaf_proba"  ? &leaf_proba
           : key == "importances" ? &importances
                                  : nullptr;
  }
};

RandomForest RandomForest::read_header(const Json& j) {
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
  return forest;
}

RandomForest RandomForest::from_json(const Json& j) {
  RandomForest forest = read_header(j);
  const Json::Array& tree_docs = j.at("trees").as_array();
  if (tree_docs.empty()) throw MlError("from_json: forest has no trees");
  if (tree_docs.front().contains("nodes")) {
    for (std::size_t t = 0; t < tree_docs.size(); ++t) {
      forest.append_tree_json(t, tree_docs[t]);
    }
  } else {
    TreeColumns doc;
    for (std::size_t t = 0; t < tree_docs.size(); ++t) {
      doc.fill(tree_docs[t]);
      forest.append_columns(t, doc);
    }
  }
  forest.flat_.finish(forest.num_classes_);
  return forest;
}

RandomForest RandomForest::pull(JsonReader& reader) {
  using Token = JsonReader::Token;
  return pull_last_member(reader, "trees", [&](const Json& head) {
    RandomForest forest = read_header(head);
    if (reader.next() != Token::kBeginArray) {
      throw JsonError("value is not a array");
    }
    TreeColumns doc;
    std::size_t t = 0;
    for (Token first; (first = reader.next()) != Token::kEndArray; ++t) {
      doc.pull(reader, first);
      if (t == 0 && doc.nodes) {
        throw MlError("from_json: v1 trees are read from a Json document");
      }
      forest.append_columns(t, doc);
    }
    if (t == 0) throw MlError("from_json: forest has no trees");
    forest.flat_.finish(forest.num_classes_);
    return forest;
  });
}

void RandomForest::append_tree_json(std::size_t t, const Json& doc) {
  // A corrupt or hand-edited bundle must fail here with a clean MlError,
  // not as an out-of-bounds read at inference time. Trees decode in order,
  // so the error raised names the first bad tree: begin_tree() comes first
  // and reports the previous tree if it never closed.
  flat_.begin_tree();
  const std::string tree = tree_name(t);
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
      flat_.add_split(feature, nj.at("threshold").as_number());
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
  // The builder derived every child link from the pre-order; the ids a v1
  // file declares must name the same children.
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Json& nj = nodes[i];
    if (nj.at("feature").as_int() < 0) continue;
    const auto left = nj.at("left").as_int();
    const auto right = nj.at("right").as_int();
    const int derived = flat_.right_child(i);
    if (left != static_cast<std::int64_t>(i + 1) || right != derived) {
      throw MlError(tree + " node " + std::to_string(i) + " declares children " +
                    std::to_string(left) + " and " + std::to_string(right) +
                    ", its pre-order gives " + std::to_string(i + 1) +
                    " and " + std::to_string(derived));
    }
  }
  std::optional<std::vector<double>> importances;
  if (doc.contains("importances")) {
    importances.emplace();
    for (const Json& v : doc.at("importances").as_array()) {
      importances->push_back(v.as_number());
    }
  }
  append_importances(t, std::move(importances), max_feature);
}

void RandomForest::append_columns(std::size_t t, TreeColumns& doc) {
  // The same promise as the v1 reader: a corrupt bundle fails here with an
  // MlError naming the tree, before anything is walked.
  flat_.begin_tree();
  const int depth = static_cast<int>(doc.depth_value());
  const Column& feature = doc.array(doc.feature, "feature");
  const Column& threshold = doc.array(doc.threshold, "threshold");
  const Column& leaf_nnz = doc.array(doc.leaf_nnz, "leaf_nnz");
  const Column& leaf_class = doc.array(doc.leaf_class, "leaf_class");
  const Column& leaf_proba = doc.array(doc.leaf_proba, "leaf_proba");
  const std::size_t n = feature.size();
  if (n == 0) throw MlError(tree_name(t) + " has no nodes");

  std::size_t splits = 0;
  int max_feature = -1;
  for (std::size_t i = 0; i < n; ++i) {
    const int f = integral_entry(t, "feature", feature, i);
    if (f < -1 || (f >= 0 && static_cast<std::size_t>(f) >= n_features_)) {
      throw MlError(tree_name(t) + " node " + std::to_string(i) +
                    " splits on feature " + std::to_string(f) +
                    " but the forest has " +
                    std::to_string(n_features_) + " features");
    }
    if (f >= 0) {
      ++splits;
      max_feature = std::max(max_feature, f);
    }
  }
  // The builder below derives the shape and rejects every other fault in
  // it, but only as the nodes arrive. A full binary tree has one leaf more
  // than it has splits, so too few leaves is a truncated tree; say so
  // before the column counts, which it would fail first.
  const std::size_t leaves = n - splits;
  if (leaves <= splits) {
    throw MlError(tree_name(t) + " is truncated: its " + std::to_string(n) +
                  " nodes end before every split has two children");
  }
  if (threshold.size() != splits) {
    throw MlError(tree_name(t) + " has " + std::to_string(threshold.size()) +
                  " thresholds for " + std::to_string(splits) + " splits");
  }
  if (leaf_nnz.size() != leaves) {
    throw MlError(tree_name(t) + " has " + std::to_string(leaf_nnz.size()) +
                  " leaf_nnz entries for " + std::to_string(leaves) +
                  " leaves");
  }

  const auto k = static_cast<std::size_t>(num_classes_);
  auto& classes = doc.classes;
  auto& values = doc.values;
  std::size_t split = 0;
  std::size_t leaf = 0;
  std::size_t entry = 0;  // next leaf_class / leaf_proba entry
  for (std::size_t i = 0; i < n; ++i) {
    // Every entry passed integral_entry above.
    const int f = static_cast<int>(feature.values[i]);
    if (f >= 0) {
      flat_.add_split(f, threshold.number(split++));
      continue;
    }
    const auto where = [&] {
      return tree_name(t) + " leaf " + std::to_string(leaf);
    };
    const int nnz = integral_entry(t, "leaf_nnz", leaf_nnz, leaf);
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
    classes.clear();
    values.clear();
    int previous = -1;
    for (; entry < end; ++entry) {
      const int c = integral_entry(t, "leaf_class", leaf_class, entry);
      if (c < 0 || static_cast<std::size_t>(c) >= k) {
        throw MlError(where() + " names class " + std::to_string(c) +
                      ", forest has " + std::to_string(k));
      }
      if (c <= previous) {
        throw MlError(where() + " lists class " + std::to_string(c) +
                      " after class " + std::to_string(previous) +
                      "; class ids must ascend");
      }
      classes.push_back(static_cast<std::uint32_t>(c));
      values.push_back(leaf_proba.number(entry));
      previous = c;
    }
    flat_.add_sparse_leaf(classes, values);
    ++leaf;
  }
  if (entry != leaf_class.size() || entry != leaf_proba.size()) {
    throw MlError(tree_name(t) + " leaves use " + std::to_string(entry) +
                  " entries but leaf_class holds " +
                  std::to_string(leaf_class.size()) + " and leaf_proba " +
                  std::to_string(leaf_proba.size()));
  }
  depths_.push_back(depth);
  std::optional<std::vector<double>> importances;
  if (doc.importances.kind != Column::Kind::kMissing) {
    const Column& declared = doc.array(doc.importances, "importances");
    importances.emplace().reserve(declared.size());
    for (std::size_t i = 0; i < declared.size(); ++i) {
      importances->push_back(declared.number(i));
    }
  }
  append_importances(t, std::move(importances), max_feature);
}

void RandomForest::append_importances(
    std::size_t t, std::optional<std::vector<double>> importances,
    int max_feature) {
  const auto needed = static_cast<std::size_t>(max_feature + 1);
  if (!importances) {
    // Pre-importances bundles: zeros wide enough for every feature the
    // splits reference.
    importances.emplace(needed, 0.0);
  } else if (importances->size() < needed) {
    throw MlError(tree_name(t) + " importances cover " +
                  std::to_string(importances->size()) +
                  " features but splits reference feature " +
                  std::to_string(max_feature));
  }
  importances_.push_back(std::move(*importances));
}

}  // namespace pml::ml
