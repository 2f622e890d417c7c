#include "core/framework.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>

#include "common/artifact.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "obs/obs.hpp"

namespace pml::core {

using coll::Collective;

namespace {

/// Whether the top-K feature-selection probe fit runs for these options.
bool probes_features(const TrainOptions& options) {
  return options.top_features > 0 &&
         static_cast<std::size_t>(options.top_features) < feature_count();
}

/// The RNG streams one collective's training consumes, split off the master
/// RNG in collective order.
struct PartSeeds {
  Rng probe;
  Rng fit;
};

PartSeeds split_seeds(Rng& rng, const TrainOptions& options) {
  PartSeeds seeds;
  if (probes_features(options)) seeds.probe = rng.split();
  seeds.fit = rng.split();
  return seeds;
}

/// Train one collective's model, with optional top-K feature selection.
PmlFramework::PerCollective train_part(std::span<const TuningRecord> records,
                                       Collective collective,
                                       const TrainOptions& options,
                                       PartSeeds seeds) {
  std::vector<std::size_t> columns(feature_count());
  std::iota(columns.begin(), columns.end(), 0u);

  if (probes_features(options)) {
    // Preliminary fit on all features ranks them by Gini importance.
    const ml::Dataset full = to_ml_dataset(records, collective);
    ml::RandomForest probe(options.forest);
    probe.fit(full, seeds.probe);
    const auto importances = probe.feature_importances();
    std::sort(columns.begin(), columns.end(),
              [&](std::size_t a, std::size_t b) {
                return importances[a] > importances[b];
              });
    columns.resize(static_cast<std::size_t>(options.top_features));
    std::sort(columns.begin(), columns.end());
  }

  PmlFramework::PerCollective part;
  part.columns = columns;
  const ml::Dataset data = to_ml_dataset(records, collective, columns);
  part.forest = ml::RandomForest(options.forest);
  part.forest.fit(data, seeds.fit);
  return part;
}

/// Propagate TrainOptions::threads down to the forest fits and the dataset
/// sweep. The collectives are trained one after another from the calling
/// thread, so every dataset build and every forest fit reaches the pool
/// itself and fans out over all of its workers. (Fanning out over the
/// collectives as well would gain little: the nested dataset builds and
/// forest fits would only compete for the same workers.)
TrainOptions with_forest_threads(const TrainOptions& options) {
  TrainOptions local = options;
  local.forest.threads = options.threads;
  local.build.threads = options.threads;
  return local;
}

/// A table covers a request only if it was compiled for the same silicon
/// (name + hardware fingerprint) over the same sweep. Matching on the name
/// alone silently reused a same-named table compiled for different
/// hardware; tables predating the fingerprint never match.
bool covers(const TuningTable& table, const sim::ClusterSpec& cluster,
            const CompileOptions& sweep) {
  return table.matches_cluster(cluster) && !table.empty() &&
         table.matches_sweep(sweep.node_counts, sweep.ppn_values,
                             sweep.message_sizes);
}

}  // namespace

void CompileOptions::validate() const {
  for (const int n : node_counts) {
    if (n < 1) {
      throw ConfigError("CompileOptions: node count must be >= 1, got " +
                        std::to_string(n));
    }
  }
  for (const int p : ppn_values) {
    if (p < 1) {
      throw ConfigError("CompileOptions: ppn must be >= 1, got " +
                        std::to_string(p));
    }
  }
}

PmlFramework PmlFramework::train(std::span<const sim::ClusterSpec> clusters,
                                 const TrainOptions& options) {
  obs::Span span("train");
  PmlFramework fw;
  const TrainOptions local = with_forest_threads(options);
  Rng rng(options.seed);
  for (const Collective collective : options.collectives) {
    obs::Span part_span("train.collective");
    const auto records = build_records(clusters, collective, local.build);
    fw.parts_.emplace(collective, train_part(records, collective, local,
                                             split_seeds(rng, options)));
  }
  if (fw.parts_.empty()) throw TuningError("train: no collectives requested");
  return fw;
}

PmlFramework PmlFramework::train_on_records(
    std::span<const TuningRecord> allgather_records,
    std::span<const TuningRecord> alltoall_records,
    const TrainOptions& options) {
  PmlFramework fw;
  const TrainOptions local = with_forest_threads(options);
  Rng rng(options.seed);
  const Collective collectives[2] = {Collective::kAllgather,
                                     Collective::kAlltoall};
  const std::span<const TuningRecord> records[2] = {allgather_records,
                                                    alltoall_records};
  for (std::size_t i = 0; i < 2; ++i) {
    fw.parts_.emplace(collectives[i],
                      train_part(records[i], collectives[i], local,
                                 split_seeds(rng, options)));
  }
  return fw;
}

const PmlFramework::PerCollective& PmlFramework::part(
    Collective collective) const {
  const auto it = parts_.find(collective);
  if (it == parts_.end()) {
    throw TuningError("framework has no model for " +
                      coll::to_string(collective));
  }
  return it->second;
}

namespace {

/// Rank classes by probability (index sort, descending) and return the
/// best selection valid at this topology (the model may favour e.g.
/// power-of-two-only recursive doubling, or a leader schedule on a
/// single-node job). Classes index coll::selection_space(collective), whose
/// flat prefix matches the v1 label space — so a v1 bundle's classes map
/// unchanged. Shared by select() and select_many() so the two paths break
/// probability ties identically — that is what makes batched table compiles
/// bit-identical to scalar ones.
coll::Selection pick_ranked(std::span<const double> proba,
                            std::span<const coll::Selection> space,
                            std::vector<std::size_t>& order,
                            sim::Topology topo) {
  if (proba.size() > space.size()) {
    throw TuningError("model has " + std::to_string(proba.size()) +
                      " classes but the selection space holds " +
                      std::to_string(space.size()));
  }
  order.resize(proba.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return proba[a] > proba[b]; });
  for (const std::size_t c : order) {
    if (coll::selection_supports(space[c], topo)) return space[c];
  }
  throw TuningError("no valid selection for topology " +
                    std::to_string(topo.nodes) + "x" +
                    std::to_string(topo.ppn));
}

}  // namespace

coll::Selection PmlFramework::select(Collective collective,
                                     const sim::ClusterSpec& cluster,
                                     sim::Topology topo,
                                     std::uint64_t msg_bytes) {
  const PerCollective& p = part(collective);

  // Hot path: one select() per uncached serve request. All scratch is
  // thread_local and only ever grows to num_classes/feature_count, so a
  // steady-state call performs zero heap allocations (guarded by the
  // ml_hotpath bench).
  thread_local std::vector<double> full;
  thread_local std::vector<double> row;
  thread_local std::vector<double> proba;
  thread_local std::vector<std::size_t> order;

  {
    // Paper Fig. 4 decomposition: feature extraction vs. model inference.
    obs::Span span("online.feature_extraction");
    extract_features_into(cluster, topo.nodes, topo.ppn, msg_bytes, full);
    project_features_into(full, p.columns, row);
  }
  obs::Span span("online.inference");
  proba.resize(static_cast<std::size_t>(p.forest.num_classes()));
  p.forest.predict_proba_into(row, proba);
  return pick_ranked(proba, coll::selection_space(collective), order, topo);
}

void PmlFramework::select_many(Collective collective,
                               const sim::ClusterSpec& cluster,
                               sim::Topology topo,
                               std::span<const std::uint64_t> msg_sizes,
                               std::span<coll::Selection> out) {
  if (msg_sizes.size() != out.size()) {
    throw TuningError("select_many: " + std::to_string(msg_sizes.size()) +
                      " sizes but " + std::to_string(out.size()) +
                      " output slots");
  }
  if (msg_sizes.empty()) return;
  const PerCollective& p = part(collective);

  // The compile hot path: one call per tuning-table cell, from many
  // threads. Same thread_local scratch discipline as select() — the
  // matrices only ever grow, so steady-state batches allocate nothing.
  thread_local std::vector<double> full;
  thread_local std::vector<double> row;
  thread_local std::vector<std::size_t> order;
  thread_local ml::Matrix features;
  thread_local ml::Matrix proba;

  {
    obs::Span span("online.feature_extraction");
    features.resize(msg_sizes.size(), p.columns.size());
    for (std::size_t i = 0; i < msg_sizes.size(); ++i) {
      extract_features_into(cluster, topo.nodes, topo.ppn, msg_sizes[i], full);
      project_features_into(full, p.columns, row);
      std::ranges::copy(row, features.row(i).begin());
    }
  }
  obs::Span span("online.inference");
  proba.resize(msg_sizes.size(),
               static_cast<std::size_t>(p.forest.num_classes()));
  p.forest.predict_batch(features, proba);

  const auto& space = coll::selection_space(collective);
  for (std::size_t i = 0; i < msg_sizes.size(); ++i) {
    out[i] = pick_ranked(proba.row(i), space, order, topo);
  }
}

TuningTable PmlFramework::compile_for(const sim::ClusterSpec& cluster,
                                      const CompileOptions& options) {
  obs::Span span("online.compile");
  const CompileOptions sweep = resolve_compile_sweep(cluster, options);
  std::vector<coll::Collective> trained;
  for (const auto& [collective, part] : parts_) trained.push_back(collective);
  const auto start = std::chrono::steady_clock::now();
  // select() only reads the trained forests, so the sweep can fan out.
  TuningTable table = TuningTable::generate(*this, cluster, sweep.node_counts,
                                            sweep.ppn_values,
                                            sweep.message_sizes, trained,
                                            sweep.threads);
  const auto end = std::chrono::steady_clock::now();
  table.set_compile_seconds(
      std::chrono::duration<double>(end - start).count());
  return table;
}

const TuningTable& PmlFramework::compile_or_cached(
    const sim::ClusterSpec& cluster, const CompileOptions& options,
    TuningTable& cache) {
  // Fig. 4: an existing table bypasses ML tuning — but only if it was
  // generated for this hardware (name + fingerprint) over the same sweep
  // grids; a cluster-name match alone would silently serve a table
  // compiled for different silicon or different node/ppn/message sweeps.
  if (covers(cache, cluster, resolve_compile_sweep(cluster, options))) {
    return cache;
  }
  cache = compile_for(cluster, options);
  return cache;
}

const ml::RandomForest& PmlFramework::model(Collective collective) const {
  return part(collective).forest;
}

std::vector<double> PmlFramework::full_feature_importances(
    Collective collective) const {
  const PerCollective& p = part(collective);
  const auto compact = p.forest.feature_importances();
  std::vector<double> full(feature_count(), 0.0);
  for (std::size_t i = 0; i < p.columns.size(); ++i) {
    full[p.columns[i]] = compact[i];
  }
  return full;
}

const std::vector<std::size_t>& PmlFramework::selected_columns(
    Collective collective) const {
  return part(collective).columns;
}

Json PmlFramework::to_json() const {
  Json j = Json::object();
  j["format"] = "pml-mpi-model-v2";
  j["feature_names"] = [] {
    Json names = Json::array();
    for (const auto& n : feature_names()) names.push_back(n);
    return names;
  }();
  Json parts = Json::object();
  for (const auto& [collective, p] : parts_) {
    Json pj = Json::object();
    Json cols = Json::array();
    for (const std::size_t c : p.columns) cols.push_back(c);
    pj["columns"] = std::move(cols);
    pj["forest"] = p.forest.to_columnar_json();
    parts[coll::to_string(collective)] = std::move(pj);
  }
  j["collectives"] = std::move(parts);
  return j;
}

PmlFramework PmlFramework::load(const Json& j) {
  // v1 (node-object trees) is still read until its removal date (docs/API.md).
  const std::string format =
      j.contains("format") ? j.at("format").as_string() : std::string();
  if (format != "pml-mpi-model-v2" && format != "pml-mpi-model-v1") {
    throw TuningError("not a pml-mpi model bundle");
  }
  PmlFramework fw;
  for (const auto& [name, pj] : j.at("collectives").as_object()) {
    const Collective collective = coll::collective_from_string(name);
    // A checksum only proves the bytes are the ones written. Check what
    // indexes the feature layout and what sizes the forest before the
    // forest is decoded, so an inconsistent bundle fails here, cleanly.
    const std::string where = "model bundle: " + name;
    PerCollective p;
    for (const Json& c : pj.at("columns").as_array()) {
      const auto column = c.as_int();
      if (column < 0 || static_cast<std::size_t>(column) >= feature_count() ||
          (!p.columns.empty() &&
           static_cast<std::size_t>(column) <= p.columns.back())) {
        throw TuningError(where + " column " + std::to_string(column) +
                          " is out of range or not ascending (" +
                          std::to_string(feature_count()) + " features)");
      }
      p.columns.push_back(static_cast<std::size_t>(column));
    }
    const Json& forest = pj.at("forest");
    const auto n_features = forest.at("n_features").as_int();
    if (n_features < 0 ||
        static_cast<std::size_t>(n_features) != p.columns.size()) {
      throw TuningError(where + " forest has " + std::to_string(n_features) +
                        " features for " + std::to_string(p.columns.size()) +
                        " columns");
    }
    const auto classes = forest.at("num_classes").as_int();
    const std::size_t space = coll::selection_space(collective).size();
    if (classes > 0 && static_cast<std::size_t>(classes) > space) {
      throw TuningError(where + " forest has " + std::to_string(classes) +
                        " classes but the selection space holds " +
                        std::to_string(space));
    }
    p.forest = ml::RandomForest::from_json(forest);
    fw.parts_.emplace(collective, std::move(p));
  }
  if (fw.parts_.empty()) throw TuningError("model bundle has no collectives");
  return fw;
}

PmlFramework PmlFramework::load_file(const std::string& path) {
  return load(artifact_payload(Json::parse(read_file(path)), "model"));
}

CompileOptions resolve_compile_sweep(const sim::ClusterSpec& cluster,
                                     const CompileOptions& options) {
  options.validate();
  CompileOptions sweep = options;
  if (sweep.node_counts.empty()) sweep.node_counts = cluster.node_counts;
  if (sweep.ppn_values.empty()) sweep.ppn_values = cluster.ppn_values;
  if (sweep.message_sizes.empty()) {
    sweep.message_sizes = cluster.message_sizes.empty()
                              ? sim::power_of_two_sizes(21)
                              : cluster.message_sizes;
  }
  // Each axis is bounded on its own, but sim::Topology::world_size() is an
  // int product of the pair.
  if (!sweep.node_counts.empty() && !sweep.ppn_values.empty()) {
    const std::int64_t nodes = std::ranges::max(sweep.node_counts);
    const std::int64_t ppn = std::ranges::max(sweep.ppn_values);
    if (nodes * ppn > std::numeric_limits<int>::max()) {
      throw ConfigError("sweep: " + std::to_string(nodes) + " nodes * " +
                        std::to_string(ppn) + " ppn exceeds " +
                        std::to_string(std::numeric_limits<int>::max()) +
                        " ranks");
    }
  }
  return sweep;
}

TuningTable heuristic_table(const sim::ClusterSpec& cluster,
                            const CompileOptions& options) {
  const CompileOptions sweep = resolve_compile_sweep(cluster, options);
  HeuristicSelector selector;
  const int threads = options.threads == 0 ? 1 : options.threads;
  return TuningTable::generate(selector, cluster, sweep.node_counts,
                               sweep.ppn_values, sweep.message_sizes,
                               coll::all_collectives(), threads);
}

}  // namespace pml::core
