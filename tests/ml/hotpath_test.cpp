// Regression guards for the ML hot-path optimisations:
//  - the rank-histogram split finder must produce byte-identical trees to
//    the retained reference implementation, on both of its branches
//    (counting pass and packed-key sort) and on the real feature matrix,
//  - flattened (structure-of-arrays) inference must be bit-identical to the
//    per-tree node walk, for every model family the factory can build,
//  - fitted forests must stay bit-identical across thread counts and across
//    releases (golden hashes captured before the optimisation landed),
//  - corrupt serialized bundles must fail loudly at load time.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/dataset_builder.hpp"
#include "ml/factory.hpp"
#include "ml/flat_forest.hpp"
#include "ml/forest.hpp"
#include "ml/tree.hpp"
#include "obs/obs.hpp"
#include "sim/hardware.hpp"

namespace pml::ml {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Mixed discrete/continuous dataset (like the MPI feature table: message
/// sizes and node counts are discrete, bandwidths continuous). Many exact
/// ties in both features and candidate splits — the hard case for split
/// determinism.
Dataset synthetic(std::size_t n, std::size_t cols, int classes,
                  std::uint64_t seed) {
  Dataset d;
  d.num_classes = classes;
  Rng rng(seed);
  Matrix x(n, cols);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      x.at(r, c) = (c % 3 == 0)
                       ? static_cast<double>(rng.uniform_index(8))
                       : rng.uniform(-2.0, 2.0);
    }
    double s = 0.0;
    for (std::size_t c = 0; c < cols; ++c) s += x.at(r, c) * ((c % 2) ? 1 : -1);
    const int label = static_cast<int>(
        (static_cast<long long>(s * 3.0) % classes + classes) % classes);
    d.y.push_back(label);
  }
  d.x = x;
  return d;
}

// ---- optimised vs reference split finder -----------------------------------

TEST(SplitFinder, OptimisedMatchesReferenceByteForByte) {
  const TreeParams grids[] = {
      {},
      {.max_depth = 4},
      {.min_samples_leaf = 3},
      {.min_samples_split = 8},
      {.max_features = 2},
      {.max_depth = 6, .min_samples_leaf = 2, .max_features = 3},
  };
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const int classes = 2 + static_cast<int>(seed % 3);
    const Dataset d = synthetic(240, 7, classes, seed * 101);
    for (const TreeParams& base : grids) {
      TreeParams fast = base;
      TreeParams slow = base;
      slow.reference_splitter = true;

      DecisionTree a(fast);
      DecisionTree b(slow);
      Rng rng_a(seed);
      Rng rng_b(seed);
      a.fit(d.x, d.y, classes, rng_a);
      b.fit(d.x, d.y, classes, rng_b);
      EXPECT_EQ(a.to_json().dump(), b.to_json().dump())
          << "seed " << seed << " max_depth " << base.max_depth;
    }
  }
}

TEST(SplitFinder, OptimisedMatchesReferenceOnBootstrapSamples) {
  const Dataset d = synthetic(150, 5, 3, 77);
  Rng sample_rng(5);
  std::vector<std::size_t> sample(d.size());
  for (auto& s : sample) {
    s = static_cast<std::size_t>(sample_rng.uniform_index(d.size()));
  }
  DecisionTree a{TreeParams{.max_features = 2}};
  DecisionTree b{TreeParams{.max_features = 2, .reference_splitter = true}};
  Rng rng_a(9);
  Rng rng_b(9);
  a.fit(d.x, d.y, 3, rng_a, sample);
  b.fit(d.x, d.y, 3, rng_b, sample);
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
}

/// Fit the optimised and the reference split finder on the same input and
/// require byte-identical trees. Returns the optimised tree's node count so
/// callers can check the case actually split.
std::size_t expect_matches_reference(const Matrix& x, std::span<const int> y,
                                     int classes, TreeParams params,
                                     std::span<const std::size_t> samples = {},
                                     std::uint64_t seed = 1) {
  TreeParams slow = params;
  slow.reference_splitter = true;
  params.reference_splitter = false;
  DecisionTree a(params);
  DecisionTree b(slow);
  Rng rng_a(seed);
  Rng rng_b(seed);
  a.fit(x, y, classes, rng_a, samples);
  b.fit(x, y, classes, rng_b, samples);
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
  return a.node_count();
}

/// Every column drawn from `levels` integer values: few distinct values per
/// column, so nodes larger than `levels` take the counting-pass branch.
Dataset coarse(std::size_t n, std::size_t cols, int levels, int classes,
               std::uint64_t seed) {
  Dataset d;
  d.num_classes = classes;
  Rng rng(seed);
  d.x = Matrix(n, cols);
  for (std::size_t r = 0; r < n; ++r) {
    long long s = 0;
    for (std::size_t c = 0; c < cols; ++c) {
      const auto v = static_cast<long long>(
          rng.uniform_index(static_cast<std::uint64_t>(levels)));
      d.x.at(r, c) = static_cast<double>(v);
      s += (c % 2 ? 1 : 2) * v;
    }
    if (rng.uniform_index(8) == 0) s += 1;  // label noise
    d.y.push_back(static_cast<int>(s % classes));
  }
  return d;
}

TEST(SplitFinder, HistogramBranchMatchesReference) {
  const TreeParams grids[] = {
      {},
      {.max_features = 2},
      {.max_depth = 3},
      {.min_samples_leaf = 4},
      {.max_depth = 5, .min_samples_leaf = 3, .max_features = 3},
  };
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Dataset d = coarse(300, 6, 4 + static_cast<int>(seed), 3, seed);
    for (const TreeParams& p : grids) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " max_depth " +
                   std::to_string(p.max_depth));
      EXPECT_GT(expect_matches_reference(d.x, d.y, 3, p, {}, seed), 1u);
    }
  }
}

TEST(SplitFinder, SortBranchMatchesReference) {
  // Continuous columns fitted on every other row: each column has more
  // distinct values than any node has samples, so every node sorts keys.
  const Dataset d = synthetic(240, 5, 3, 17);
  std::vector<std::size_t> half;
  for (std::size_t r = 0; r < d.size(); r += 2) half.push_back(r);
  for (const TreeParams& p :
       {TreeParams{}, TreeParams{.min_samples_leaf = 3, .max_features = 2}}) {
    EXPECT_GT(expect_matches_reference(d.x, d.y, 3, p, half, 5), 1u);
  }
}

TEST(SplitFinder, BinsEqualToNodeSizeMatchesReference) {
  // Column 0 holds every value 0..n-1 once: at the root, bins == n.
  const std::size_t n = 64;
  Dataset d = coarse(n, 3, 3, 2, 29);
  std::vector<std::size_t> perm(n);
  for (std::size_t r = 0; r < n; ++r) perm[r] = r;
  Rng rng(31);
  rng.shuffle(perm);
  for (std::size_t r = 0; r < n; ++r) {
    d.x.at(r, 0) = static_cast<double>(perm[r]);
    d.y[r] = (perm[r] % 7 < 3) ? 1 : 0;
  }
  EXPECT_GT(expect_matches_reference(d.x, d.y, 2, {}), 1u);
  EXPECT_GT(expect_matches_reference(d.x, d.y, 2, {.max_depth = 2}), 1u);
}

TEST(SplitFinder, ConstantColumnMatchesReference) {
  Dataset d = coarse(120, 4, 5, 3, 37);
  for (std::size_t r = 0; r < d.size(); ++r) d.x.at(r, 2) = 3.0;
  EXPECT_GT(expect_matches_reference(d.x, d.y, 3, {}), 1u);
  // Only the constant column: no candidate anywhere, a single leaf.
  Matrix only(d.size(), 1);
  for (std::size_t r = 0; r < d.size(); ++r) only.at(r, 0) = 3.0;
  EXPECT_EQ(expect_matches_reference(only, d.y, 3, {}), 1u);
}

TEST(SplitFinder, SignedZerosAreOneValue) {
  // -0.0 and 0.0 compare equal: no threshold may separate them, and the
  // midpoints they form with a neighbour are the same either way.
  const double values[] = {-1.0, -0.0, 0.0, 2.0};
  Dataset d;
  d.num_classes = 3;
  d.x = Matrix(160, 2);
  Rng rng(41);
  for (std::size_t r = 0; r < 160; ++r) {
    const auto v = rng.uniform_index(4);
    d.x.at(r, 0) = values[v];
    d.x.at(r, 1) = static_cast<double>(rng.uniform_index(3));
    d.y.push_back(v == 0 ? 0 : (v == 3 ? 2 : static_cast<int>(r % 2)));
  }
  EXPECT_GT(expect_matches_reference(d.x, d.y, 3, {}), 1u);
  const ColumnRanks ranks(d.x);
  ASSERT_EQ(ranks.values(0).size(), 3u);
  EXPECT_EQ(ranks.values(0)[1], 0.0);
}

TEST(SplitFinder, AdjacentDoublesKeepTheValueTest) {
  // lo = nextafter(1, 0) and hi = 1: their midpoint rounds up to hi, so the
  // threshold falls back to lo and the root split still separates them.
  const double lo = std::nextafter(1.0, 0.0);
  const double hi = 1.0;
  ASSERT_EQ(0.5 * (lo + hi), hi);
  Dataset d;
  d.num_classes = 2;
  d.x = Matrix(16, 2);
  const double col1[] = {lo, hi, 5.0, 5.0};
  const int label[] = {0, 1, 1, 1};
  for (std::size_t r = 0; r < 16; ++r) {
    const std::size_t g = r / 4;
    d.x.at(r, 0) = static_cast<double>(g % 2);
    d.x.at(r, 1) = col1[g];
    d.y.push_back(label[g]);
  }
  EXPECT_GT(expect_matches_reference(d.x, d.y, 2, {}), 1u);
  DecisionTree tree;
  Rng rng(1);
  tree.fit(d.x, d.y, 2, rng);
  const Json root = tree.to_json().at("nodes").as_array()[0];
  EXPECT_EQ(root.at("feature").as_int(), 1);
  EXPECT_EQ(root.at("threshold").as_number(), lo);

  // Disjoint (lo, hi) pairs of adjacent doubles whose midpoint rounds down
  // to lo, rounds up to hi, or overflows to +-inf. Every pair must still be
  // separated: both finders terminate, agree, and fit the labels exactly.
  constexpr double kMax = std::numeric_limits<double>::max();
  std::vector<std::pair<double, double>> pairs;
  for (const double base : {0.75, 1.0, 1024.0}) {
    // base has an even significand, so base + ulp has an odd one.
    pairs.emplace_back(base, std::nextafter(base, 2.0 * base));
    const double odd = std::nextafter(3.0 * base, 4.0 * base);
    pairs.emplace_back(odd, std::nextafter(odd, 4.0 * base));
  }
  pairs.emplace_back(std::nextafter(0.5, 0.0), 0.5);
  pairs.emplace_back(std::nextafter(kMax, 0.0), kMax);
  pairs.emplace_back(-kMax, std::nextafter(-kMax, 0.0));
  int rounds_up = 0;
  int overflows = 0;
  for (const auto& [a, b] : pairs) {
    ASSERT_LT(a, b);
    const double mid = 0.5 * (a + b);
    rounds_up += mid == b;
    overflows += std::isinf(mid);
  }
  ASSERT_EQ(rounds_up, 4);
  ASSERT_EQ(overflows, 2);

  Dataset e;
  e.num_classes = 2;
  e.x = Matrix(40 * pairs.size(), 1);
  std::vector<double> targets;
  Rng data_rng(43);
  for (std::size_t r = 0; r < e.x.rows(); ++r) {
    const auto& [a, b] = pairs[r % pairs.size()];
    const bool up = data_rng.uniform_index(2) == 1;
    e.x.at(r, 0) = up ? b : a;
    e.y.push_back(up ? 1 : 0);
    targets.push_back(up ? 1.0 : 0.0);
  }
  EXPECT_GT(expect_matches_reference(e.x, e.y, 2, {}), 1u);
  DecisionTree classifier;
  RegressionTree regressor;
  Rng fit_rng(5);
  classifier.fit(e.x, e.y, 2, fit_rng);
  regressor.fit(e.x, targets, fit_rng);
  for (std::size_t r = 0; r < e.x.rows(); ++r) {
    EXPECT_EQ(classifier.predict(e.x.row(r)), e.y[r]) << e.x.at(r, 0);
    EXPECT_EQ(regressor.predict(e.x.row(r)), targets[r]) << e.x.at(r, 0);
  }
}

TEST(SplitFinder, DuplicatedRowsAndBootstrapRepeatsMatchReference) {
  const Dataset base = coarse(60, 4, 6, 3, 47);
  Dataset d;
  d.num_classes = 3;
  for (std::size_t copy = 0; copy < 3; ++copy) {
    for (std::size_t r = 0; r < base.size(); ++r) {
      d.x.push_row(base.x.row(r));
      d.y.push_back(base.y[r]);
    }
  }
  EXPECT_GT(expect_matches_reference(d.x, d.y, 3, {}), 1u);
  Rng sample_rng(53);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<std::size_t> sample(d.size());
    for (auto& s : sample) {
      s = static_cast<std::size_t>(sample_rng.uniform_index(d.size()));
    }
    EXPECT_GT(expect_matches_reference(
                  d.x, d.y, 3, {.min_samples_leaf = 2, .max_features = 2},
                  sample, static_cast<std::uint64_t>(trial)),
              1u);
  }
}

TEST(SplitFinder, RealFeatureMatrixMatchesReference) {
  // The paper's training table: discrete hardware columns, a message-size
  // grid, node and ppn grids — the shape the counting pass targets.
  const std::vector<sim::ClusterSpec> clusters = {
      sim::cluster_by_name("RI"), sim::cluster_by_name("Rome"),
      sim::cluster_by_name("Spock")};
  for (const auto collective :
       {coll::Collective::kAllgather, coll::Collective::kAlltoall}) {
    const auto records = core::build_records(clusters, collective, {});
    const Dataset d = core::to_ml_dataset(records, collective);
    Rng sample_rng(59);
    for (const int max_features : {-1, 3}) {
      std::vector<std::size_t> sample(d.size());
      for (auto& s : sample) {
        s = static_cast<std::size_t>(sample_rng.uniform_index(d.size()));
      }
      SCOPED_TRACE(coll::to_string(collective) + " max_features " +
                   std::to_string(max_features));
      EXPECT_GT(expect_matches_reference(d.x, d.y, d.num_classes,
                                         {.max_features = max_features},
                                         sample, 61),
                1u);
    }
  }
}

TEST(SplitFinder, ColumnRanksHoldSortedDistinctValues) {
  Matrix x(5, 2);
  const double col0[] = {3.0, -1.0, 3.0, 0.5, -1.0};
  for (std::size_t r = 0; r < 5; ++r) {
    x.at(r, 0) = col0[r];
    x.at(r, 1) = 7.0;
  }
  const ColumnRanks ranks(x);
  ASSERT_EQ(ranks.rows(), 5u);
  ASSERT_EQ(ranks.cols(), 2u);
  EXPECT_EQ(std::vector<double>(ranks.values(0).begin(), ranks.values(0).end()),
            (std::vector<double>{-1.0, 0.5, 3.0}));
  EXPECT_EQ(std::vector<std::uint32_t>(ranks.ranks(0).begin(),
                                       ranks.ranks(0).end()),
            (std::vector<std::uint32_t>{2, 0, 2, 1, 0}));
  EXPECT_EQ(ranks.values(1).size(), 1u);
  EXPECT_EQ(ranks.ranks(1)[4], 0u);
}

// ---- golden hashes: serialized output is frozen across releases ------------

TEST(Golden, TreeSerializationUnchangedSinceOptimisation) {
  const Dataset d = synthetic(300, 8, 4, 42);
  DecisionTree tree(TreeParams{.max_features = 3});
  Rng rng(7);
  tree.fit(d.x, d.y, d.num_classes, rng);
  // Captured from the pre-optimisation implementation (PR 1 state).
  EXPECT_EQ(fnv1a(tree.to_json().dump()), 7370512707017712398ULL);
}

TEST(Golden, TreeFitScoresTheSameSplitCandidates) {
  // The rank-histogram finder visits exactly the candidates the sorted scan
  // visited, including those min_samples_leaf then rules out:
  // ml.split_candidates for the golden fit (and for the same fit with
  // min_samples_leaf = 5) is pinned to the count the sort-per-node
  // implementation reported.
  const Dataset d = synthetic(300, 8, 4, 42);
  const bool was_enabled = obs::set_enabled(true);
  const auto candidates = [&](int min_samples_leaf) {
    obs::reset();
    DecisionTree tree(
        TreeParams{.min_samples_leaf = min_samples_leaf, .max_features = 3});
    Rng rng(7);
    tree.fit(d.x, d.y, d.num_classes, rng);
    std::uint64_t count = 0;
    for (const auto& c : obs::snapshot().counters) {
      if (c.name == "ml.split_candidates") count = c.value;
    }
    return count;
  };
  EXPECT_EQ(candidates(1), 6826u);
  EXPECT_EQ(candidates(5), 4274u);
  obs::reset();
  obs::set_enabled(was_enabled);
}

TEST(Golden, ForestSerializationAndOobUnchangedSinceOptimisation) {
  const Dataset d = synthetic(300, 8, 4, 42);
  RandomForestParams fp;
  fp.n_trees = 16;
  fp.max_features = 3;
  fp.threads = 2;
  RandomForest forest(fp);
  Rng rng(99);
  forest.fit(d, rng);
  // Captured from the pre-optimisation implementation (PR 1 state).
  EXPECT_EQ(fnv1a(forest.to_json().dump()), 3616224656282728536ULL);
  ASSERT_TRUE(forest.oob_score().has_value());
  EXPECT_DOUBLE_EQ(*forest.oob_score(), 0.23);
}

// ---- flat vs node-walk inference -------------------------------------------

TEST(FlatForestInference, MatchesNodeWalkBitForBit) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Dataset d = synthetic(200, 6, 3, seed * 31);
    RandomForestParams fp;
    fp.n_trees = 12;
    fp.max_features = 2;
    RandomForest forest(fp);
    Rng rng(seed);
    forest.fit(d, rng);

    std::vector<double> flat(3);
    std::vector<double> walk(3);
    for (std::size_t r = 0; r < d.x.rows(); ++r) {
      forest.predict_proba_into(d.x.row(r), flat);
      // Reference: average the per-tree node walks in tree order, exactly
      // as the pre-flattening implementation did.
      std::fill(walk.begin(), walk.end(), 0.0);
      for (std::size_t t = 0; t < forest.tree_count(); ++t) {
        const auto leaf = forest.flat().tree_leaf(t, d.x.row(r));
        for (std::size_t c = 0; c < walk.size(); ++c) walk[c] += leaf[c];
      }
      for (double& v : walk) v /= static_cast<double>(forest.tree_count());
      for (std::size_t c = 0; c < 3; ++c) {
        EXPECT_EQ(flat[c], walk[c]) << "row " << r << " class " << c;
      }
      const auto alloc_path = forest.predict_proba(d.x.row(r));
      for (std::size_t c = 0; c < 3; ++c) EXPECT_EQ(flat[c], alloc_path[c]);
    }
  }
}

TEST(FlatForestInference, SurvivesSerializationRoundTrip) {
  const Dataset d = synthetic(150, 5, 3, 11);
  RandomForest forest(RandomForestParams{.n_trees = 8, .max_features = 2});
  Rng rng(3);
  forest.fit(d, rng);
  const RandomForest loaded = RandomForest::from_json(forest.to_json());
  std::vector<double> a(3);
  std::vector<double> b(3);
  for (std::size_t r = 0; r < d.x.rows(); ++r) {
    forest.predict_proba_into(d.x.row(r), a);
    loaded.predict_proba_into(d.x.row(r), b);
    for (std::size_t c = 0; c < 3; ++c) EXPECT_EQ(a[c], b[c]);
  }
}

TEST(FlatForestInference, PredictBatchMatchesRowByRow) {
  const Dataset d = synthetic(60, 5, 3, 19);
  RandomForest forest(RandomForestParams{.n_trees = 6});
  Rng rng(4);
  forest.fit(d, rng);
  Matrix out(d.x.rows(), 3);
  forest.predict_batch(d.x, out);
  std::vector<double> row(3);
  for (std::size_t r = 0; r < d.x.rows(); ++r) {
    forest.predict_proba_into(d.x.row(r), row);
    for (std::size_t c = 0; c < 3; ++c) EXPECT_EQ(out.at(r, c), row[c]);
  }
}

TEST(FlatForestInference, RejectsShortRowsAndBadBuffers) {
  const Dataset d = synthetic(80, 5, 3, 23);
  RandomForest forest(RandomForestParams{.n_trees = 4});
  Rng rng(8);
  forest.fit(d, rng);
  std::vector<double> out(3);
  const std::vector<double> short_row = {1.0};
  EXPECT_THROW(forest.predict_proba_into(short_row, out), MlError);
  std::vector<double> bad(2);
  EXPECT_THROW(forest.predict_proba_into(d.x.row(0), bad), MlError);
}

/// Every factory family must agree between predict_proba and the buffer
/// API (the two share one code path in the overriding models; for the rest
/// the base-class fallback must copy faithfully).
TEST(FactoryModels, PredictProbaIntoMatchesPredictProba) {
  const char* families[] = {"RandomForest", "GradientBoost", "KNN", "SVM"};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Dataset d = synthetic(120, 5, 3, seed * 7);
    for (const char* family : families) {
      Json params = Json::object();
      if (std::string(family) == "RandomForest") params["n_trees"] = 8;
      if (std::string(family) == "GradientBoost") params["n_rounds"] = 5;
      const auto model = make_classifier(family, params);
      Rng rng(seed);
      model->fit(d, rng);
      std::vector<double> buf(3);
      for (std::size_t r = 0; r < d.x.rows(); ++r) {
        const auto proba = model->predict_proba(d.x.row(r));
        model->predict_proba_into(d.x.row(r), buf);
        ASSERT_EQ(proba.size(), buf.size()) << family;
        for (std::size_t c = 0; c < buf.size(); ++c) {
          EXPECT_EQ(proba[c], buf[c]) << family << " row " << r;
        }
      }
    }
  }
}

// ---- determinism across thread counts --------------------------------------

TEST(ForestThreads, OobAndSerializationIdenticalAt1_2_8Threads) {
  const Dataset d = synthetic(250, 6, 3, 55);
  std::string json_1;
  double oob_1 = 0.0;
  for (const int threads : {1, 2, 8}) {
    RandomForestParams fp;
    fp.n_trees = 12;
    fp.max_features = 2;
    fp.threads = threads;
    RandomForest forest(fp);
    Rng rng(21);
    forest.fit(d, rng);
    ASSERT_TRUE(forest.oob_score().has_value());
    if (threads == 1) {
      json_1 = forest.to_json().dump();
      oob_1 = *forest.oob_score();
    } else {
      EXPECT_EQ(forest.to_json().dump(), json_1) << "threads " << threads;
      EXPECT_DOUBLE_EQ(*forest.oob_score(), oob_1) << "threads " << threads;
    }
  }
}

// ---- hardened deserialization ----------------------------------------------

TEST(ForestFromJson, RejectsSplitFeatureBeyondForestWidth) {
  const Dataset d = synthetic(100, 4, 2, 3);
  RandomForest forest(RandomForestParams{.n_trees = 2});
  Rng rng(1);
  forest.fit(d, rng);
  Json j = forest.to_json();

  // Widen the importances array so the tree-level loader stays happy, then
  // point one split at a feature the forest does not have.
  Json& tree0 = j["trees"].as_array()[0];
  Json& importances = tree0["importances"];
  while (importances.as_array().size() < 100) importances.push_back(0.0);
  bool corrupted = false;
  for (Json& node : tree0["nodes"].as_array()) {
    if (node.at("feature").as_int() >= 0 && !corrupted) {
      node["feature"] = 99;
      corrupted = true;
    }
  }
  ASSERT_TRUE(corrupted) << "fitted tree unexpectedly has no splits";
  EXPECT_THROW(RandomForest::from_json(j), MlError);
}

TEST(ForestFromJson, RejectsTreeClassCountMismatch) {
  const Dataset d = synthetic(100, 4, 2, 3);
  RandomForest forest(RandomForestParams{.n_trees = 2});
  Rng rng(1);
  forest.fit(d, rng);
  Json j = forest.to_json();
  j["num_classes"] = 5;  // trees still carry 2-class leaves
  EXPECT_THROW(RandomForest::from_json(j), MlError);
}

TEST(ForestFromJson, RejectsNonPositiveClassCount) {
  const Dataset d = synthetic(100, 4, 2, 3);
  RandomForest forest(RandomForestParams{.n_trees = 2});
  Rng rng(1);
  forest.fit(d, rng);
  Json j = forest.to_json();
  j["num_classes"] = 0;
  EXPECT_THROW(RandomForest::from_json(j), MlError);
}

TEST(ForestFromJson, RejectsLeafWidthsThatOnlyMatchInTotal) {
  // One leaf one probability long, another one short: the pooled total
  // still matches leaves x classes, so the loader must check every leaf.
  const Dataset d = synthetic(100, 4, 3, 5);
  RandomForest forest(RandomForestParams{.n_trees = 2});
  Rng rng(2);
  forest.fit(d, rng);
  Json j = forest.to_json();
  std::vector<Json*> leaves;
  for (Json& node : j["trees"].as_array()[1]["nodes"].as_array()) {
    if (node.contains("proba")) leaves.push_back(&node);
  }
  ASSERT_GE(leaves.size(), 2u);
  (*leaves[0])["proba"].push_back(0.0);
  (*leaves[1])["proba"].as_array().pop_back();
  try {
    RandomForest::from_json(j);
    FAIL() << "a 4-wide and a 2-wide leaf of a 3-class forest loaded";
  } catch (const MlError& err) {
    EXPECT_NE(std::string(err.what()).find("tree 1 leaf node"),
              std::string::npos)
        << err.what();
  }
}

TEST(ForestFromJson, RejectsRightChildInTheNextTree) {
  // Child ids are tree-local: a right child past the tree's last node must
  // not land in the next tree's nodes.
  const Dataset d = synthetic(100, 4, 2, 3);
  RandomForest forest(RandomForestParams{.n_trees = 2});
  Rng rng(1);
  forest.fit(d, rng);
  Json j = forest.to_json();
  Json& tree0 = j["trees"].as_array()[0];
  Json::Array& nodes = tree0["nodes"].as_array();
  ASSERT_GE(nodes[0].at("feature").as_int(), 0);
  nodes[0]["right"] = nodes.size();
  EXPECT_THROW(RandomForest::from_json(j), MlError);
}

TEST(ForestFromJson, RejectsTreeWithoutNodes) {
  const Dataset d = synthetic(100, 4, 2, 3);
  RandomForest forest(RandomForestParams{.n_trees = 2});
  Rng rng(1);
  forest.fit(d, rng);
  Json j = forest.to_json();
  j["trees"].as_array()[0]["nodes"] = Json::array();
  EXPECT_THROW(RandomForest::from_json(j), MlError);
}

}  // namespace
}  // namespace pml::ml
