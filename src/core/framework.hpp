// PmlFramework: the paper's primary contribution.
//
// Offline stage (paper Fig. 3): benchmark the Table-I clusters, assemble
// the feature/label dataset, optionally select the top-K features by Gini
// importance, and train one Random Forest per collective. The trained
// bundle serializes to JSON — the "pre-trained model shipped along with
// the MPI library".
//
// Online stage (paper Fig. 4): for a new cluster, if a tuning table is
// already cached, use it; otherwise extract the cluster's features, run a
// single inference sweep (one process, sub-second), and emit a JSON tuning
// table for use at application runtime.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "coll/collective.hpp"
#include "common/artifact.hpp"
#include "common/json.hpp"
#include "core/dataset_builder.hpp"
#include "core/selectors.hpp"
#include "core/tuning_table.hpp"
#include "ml/forest.hpp"
#include "obs/obs.hpp"

namespace pml::core {

struct TrainOptions {
  BuildOptions build;             ///< dataset sweep parameters
  /// Per-collective model parameters; the defaults follow what the Table-II
  /// grid search selects on the full dataset.
  ml::RandomForestParams forest{.n_trees = 100, .max_features = 6};
  /// Keep only the K most important features (paper: "top 5 features are
  /// selected ... to avoid overfitting"); -1 keeps all 14.
  int top_features = -1;
  std::uint64_t seed = 13;
  /// Threads for training (per-collective dataset builds + forest fits) and
  /// for compile_for sweeps of the resulting framework; <= 0 = all hardware
  /// threads, 1 = serial. RNG streams are pre-split sequentially, so the
  /// trained bundle is bit-identical at any thread count.
  int threads = 0;
  /// Collectives to train models for. Defaults to the paper's pair;
  /// include kAllreduce/kBcast to enable the future-work extensions.
  std::vector<coll::Collective> collectives = coll::paper_collectives();
  /// Trace/metrics output for the training run; empty = no capture.
  obs::Sink trace_sink{};
};

/// Options for the online stage (compile_for / compile_or_cached). One
/// struct replaces the previous positional span-triple signature; field
/// defaults are documented centrally in docs/API.md.
struct CompileOptions {
  /// Sweep grids. Empty vectors fall back to the target cluster's own
  /// benchmarked grid (ClusterSpec::node_counts / ppn_values /
  /// message_sizes; a cluster without listed sizes gets the paper's
  /// 2^0..2^20 sweep). Entries must be >= 1 (validate()).
  std::vector<int> node_counts;
  std::vector<int> ppn_values;
  std::vector<std::uint64_t> message_sizes;
  /// Threads for the inference sweep; 0 = inherit the framework's
  /// threads() knob, < 0 = all hardware threads, 1 = serial.
  int threads = 0;
  /// Directory for the filesystem-cached compile_or_cached overload:
  /// tables persist as <cache_dir>/<cluster>.table.json. Empty = cwd.
  std::string cache_dir;
  /// Trace/metrics output for this compile; empty = no capture.
  obs::Sink trace_sink{};
  /// Retry schedule for transient cache-read failures in the filesystem
  /// compile_or_cached overload. The default retries twice with 1 ms
  /// bounded-exponential backoff; tests inject a counting sleep.
  RetryPolicy cache_retry{};
  /// Degradation ladder switch: when true (default), a compile failure in
  /// compile_or_cached/online_table falls back to HeuristicSelector instead
  /// of throwing. Disable to surface errors in strict deployments.
  bool heuristic_fallback = true;
  /// Collectives the online stage must be able to answer. The compiled
  /// table covers the model's trained collectives; under heuristic_fallback
  /// any collective listed here that the model lacks is topped up with
  /// heuristic entries instead (partial degradation,
  /// `online.fallback.partial`). Defaults to the paper's pair, so a model
  /// trained with default TrainOptions round-trips verbatim.
  std::vector<coll::Collective> collectives = coll::paper_collectives();

  /// Throws pml::ConfigError on non-positive node/ppn entries.
  void validate() const;

  /// Convenience factory for the common explicit-grid case.
  static CompileOptions sweep(std::vector<int> node_counts,
                              std::vector<int> ppn_values,
                              std::vector<std::uint64_t> message_sizes) {
    CompileOptions options;
    options.node_counts = std::move(node_counts);
    options.ppn_values = std::move(ppn_values);
    options.message_sizes = std::move(message_sizes);
    return options;
  }
};

// Thread-safety contract: once constructed (train/load), a PmlFramework is
// immutable apart from two knobs — the threads_ setting and the
// inference_seconds_ timing, the latter an atomic. select(), compile_for()
// and the compile_or_cached overload that takes a caller-owned cache are
// therefore safe to call concurrently from any number of threads on one
// instance (each caller must own its `cache` argument); the trained parts_
// map is only ever read after construction and all select() scratch is
// thread_local. Do not call set_threads() or move/assign the framework
// concurrently with queries.
class PmlFramework final : public Selector {
 public:
  /// Trained model plus the feature columns it consumes (public so the
  /// training helpers and tests can assemble/inspect bundles).
  struct PerCollective {
    ml::RandomForest forest;
    std::vector<std::size_t> columns;  ///< feature columns the model sees
  };

  PmlFramework() = default;
  // Copies/moves exist for factory returns (train/load) and for tests
  // that clone a shared fixture; they are not synchronised — never copy
  // or move a framework that other threads are querying. Spelled out
  // because the atomic member suppresses the implicit ones.
  PmlFramework(const PmlFramework& other)
      : parts_(other.parts_),
        inference_seconds_(other.inference_seconds_.load()),
        threads_(other.threads_) {}
  PmlFramework& operator=(const PmlFramework& other) {
    parts_ = other.parts_;
    inference_seconds_.store(other.inference_seconds_.load());
    threads_ = other.threads_;
    return *this;
  }
  PmlFramework(PmlFramework&& other) noexcept
      : parts_(std::move(other.parts_)),
        inference_seconds_(other.inference_seconds_.load()),
        threads_(other.threads_) {}
  PmlFramework& operator=(PmlFramework&& other) noexcept {
    parts_ = std::move(other.parts_);
    inference_seconds_.store(other.inference_seconds_.load());
    threads_ = other.threads_;
    return *this;
  }

  /// Offline training on a list of clusters (exclude the evaluation
  /// cluster to reproduce the paper's leave-cluster-out protocol).
  static PmlFramework train(std::span<const sim::ClusterSpec> clusters,
                            const TrainOptions& options = {});

  /// Offline training on pre-built records (lets callers filter rows, e.g.
  /// the node-based split of paper §VII-D).
  static PmlFramework train_on_records(
      std::span<const TuningRecord> allgather_records,
      std::span<const TuningRecord> alltoall_records,
      const TrainOptions& options = {});

  // --- Selector interface: direct single-point inference -------------------
  // The model's classes index coll::selection_space(collective): a bundle
  // trained on the v1 flat label space covers the space's flat prefix and
  // keeps working unchanged; a label-space-v2 bundle ranks hierarchical
  // selections too.
  std::string name() const override { return "PML-MPI"; }
  coll::Selection select(coll::Collective collective,
                         const sim::ClusterSpec& cluster, sim::Topology topo,
                         std::uint64_t msg_bytes) override;

  /// Batched select() at one topology, the tuning-table compile hot path:
  /// assembles every message size's feature row into a reused thread_local
  /// Matrix, runs one FlatForest predict_batch (the tree-major blocked
  /// kernel), and ranks each row with the same tie-breaking as select() —
  /// so out[i] is exactly what select() would return for msg_sizes[i],
  /// with zero steady-state allocations. Throws TuningError when the spans
  /// differ in length. Thread-safe under the same contract as select().
  void select_many(coll::Collective collective,
                   const sim::ClusterSpec& cluster, sim::Topology topo,
                   std::span<const std::uint64_t> msg_sizes,
                   std::span<coll::Selection> out) override;

  // --- Online stage (Fig. 4) ------------------------------------------------

  /// Generate the tuning table for a (possibly never-seen) cluster by
  /// running inference over options' sweep grid (empty grids fall back to
  /// the cluster's own). Updates inference_seconds().
  TuningTable compile_for(const sim::ClusterSpec& cluster,
                          const CompileOptions& options = {});

  /// Fig. 4 top box: reuse `cache` if it already covers this cluster and
  /// sweep, otherwise compile a fresh table (and replace `cache`).
  const TuningTable& compile_or_cached(const sim::ClusterSpec& cluster,
                                       const CompileOptions& options,
                                       TuningTable& cache);

  /// Filesystem-cached variant: loads <cache_dir>/<cluster>.table.json if
  /// it covers this cluster and sweep, otherwise compiles and writes it.
  TuningTable compile_or_cached(const sim::ClusterSpec& cluster,
                                const CompileOptions& options = {});

  /// Wall-clock seconds of the most recent compile_for call on any thread
  /// (the paper's "less than a second of model inference overhead"). With
  /// concurrent compiles this is a last-writer-wins convenience for the
  /// CLI; per-compile timing travels on TuningTable::compile_seconds().
  double inference_seconds() const noexcept {
    return inference_seconds_.load(std::memory_order_relaxed);
  }

  /// Threads used by compile_for sweeps; <= 0 = all hardware threads.
  /// Inherited from TrainOptions::threads at train time, default for
  /// loaded bundles.
  void set_threads(int threads) noexcept { threads_ = threads; }
  int threads() const noexcept { return threads_; }

  // --- Introspection ---------------------------------------------------------

  const ml::RandomForest& model(coll::Collective collective) const;

  /// Gini importances expanded to the full 14-column layout (zero for
  /// columns dropped by feature selection).
  std::vector<double> full_feature_importances(
      coll::Collective collective) const;

  const std::vector<std::size_t>& selected_columns(
      coll::Collective collective) const;

  // --- Serialization ---------------------------------------------------------

  /// Model bundle `pml-mpi-model-v2`: per collective, the selected
  /// columns and the forest in columnar form (RandomForest::to_columnar_json).
  Json to_json() const;
  /// Reads v2 and v1 bundles. Before decoding a forest it checks that the
  /// columns are ascending feature indices, one per forest feature, and
  /// that the forest's classes fit the collective's selection space.
  static PmlFramework load(const Json& j);

  /// Load a model bundle from disk. Accepts both a pml-artifact-v1
  /// envelope of kind "model" (checksum validated) and a legacy bare
  /// bundle. Throws IoError / JsonError / TuningError on failure.
  static PmlFramework load_file(const std::string& path);

 private:
  const PerCollective& part(coll::Collective collective) const;

  /// Read-only after construction (the thread-safety contract above).
  std::map<coll::Collective, PerCollective> parts_;
  /// Written by every compile_for; atomic so concurrent compiles on one
  /// framework race benignly (last writer wins) instead of being UB.
  std::atomic<double> inference_seconds_{0.0};
  int threads_ = 0;
};

/// Resolve a CompileOptions sweep against a target cluster: empty grid
/// axes are replaced by the cluster's own benchmarked grid (a cluster
/// without listed sizes gets the paper's 2^0..2^20 sweep), exactly as
/// compile_for does internally. Cache layers use this to compute the
/// effective sweep — and hence the cache key — before compiling. Throws
/// ConfigError on invalid grids (validate()).
CompileOptions resolve_compile_sweep(const sim::ClusterSpec& cluster,
                                     const CompileOptions& options);

// --- Graceful degradation (online stage) -------------------------------------
//
// The online stage must always hand the application a usable tuning table:
// a corrupt cache, a missing model, or a failing disk degrades selection
// quality, never availability. The fallback ladder is
//   cached table -> recompile from model -> HeuristicSelector table,
// with each step down recorded as an online.fallback.* metric and a
// structured warning on stderr (docs/API.md, "Fault injection &
// degradation policy").

/// Rule-of-thumb tuning table from HeuristicSelector over the options'
/// sweep grid — no model required; cannot fail on IO. Covers every
/// collective in coll::all_collectives() by default; pass `collectives`
/// to build jobs for a subset (the partial-degradation ladder uses this
/// to top up only what the model is missing).
TuningTable heuristic_table(const sim::ClusterSpec& cluster,
                            const CompileOptions& options = {},
                            std::span<const coll::Collective> collectives = {});

/// One-call online stage: load the model bundle at `model_path` and run the
/// filesystem-cached compile. Any Error along the way (unreadable or
/// corrupt model, compile failure) degrades to heuristic_table() when
/// options.heuristic_fallback is set, so this always returns a usable
/// table.
TuningTable online_table(const std::string& model_path,
                         const sim::ClusterSpec& cluster,
                         const CompileOptions& options = {});

}  // namespace pml::core
