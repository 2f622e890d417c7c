// Tuning tables: the JSON artefact the framework emits at MPI-library
// compile time (paper Fig. 4) and consults at application runtime.
//
// A table maps (collective, #nodes, ppn, message-size range) to an
// algorithm. Consecutive message sizes that select the same algorithm are
// compressed into ranges, matching the look-up-table format of offline
// micro-benchmarking tools.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "coll/collective.hpp"
#include "common/json.hpp"
#include "core/selectors.hpp"

namespace pml::core {

/// One size range: applies to message sizes <= max_bytes (entries are
/// ordered; the last entry of a job table is open-ended). Since table
/// schema v2 the entry stores a structured coll::Selection; v1 artifacts
/// (bare algorithm names) decode into flat selections.
struct TuningEntry {
  std::uint64_t max_bytes = 0;
  coll::Selection selection = coll::Selection::flat(coll::Algorithm::kAgRing);
};

/// Entries for one (collective, nodes, ppn) job shape.
struct JobTable {
  coll::Collective collective = coll::Collective::kAllgather;
  int nodes = 0;
  int ppn = 0;
  std::vector<TuningEntry> entries;  ///< ascending max_bytes, non-empty
};

class TuningTable {
 public:
  TuningTable() = default;
  explicit TuningTable(std::string cluster_name)
      : cluster_name_(std::move(cluster_name)) {}

  const std::string& cluster_name() const noexcept { return cluster_name_; }
  std::size_t job_count() const noexcept { return jobs_.size(); }
  bool empty() const noexcept { return jobs_.empty(); }

  /// Register a job table; throws TuningError on empty/unsorted entries or
  /// a duplicate (collective, nodes, ppn) key.
  void add(JobTable job);

  bool has(coll::Collective collective, int nodes, int ppn) const;

  /// Registered job tables, in registration order (exposed so the online
  /// ladder can merge per-collective heuristic jobs into a partial table).
  const std::vector<JobTable>& jobs() const noexcept { return jobs_; }

  /// Algorithm for the job shape and message size. Exact (nodes, ppn) match
  /// preferred; otherwise the geometrically nearest registered shape of the
  /// collective is used (as MPI libraries fall back to the closest tuned
  /// configuration). Distance ties are broken deterministically — smaller
  /// nodes first, then smaller ppn — so the result is independent of job
  /// registration order and lookup replies are byte-stable across runs and
  /// cache shards. Throws TuningError if the collective has no entries.
  coll::Selection lookup(coll::Collective collective, int nodes, int ppn,
                         std::uint64_t msg_bytes) const;

  /// Build a table by querying a selector over a sweep (used both for the
  /// ML path and for baking baseline heuristics into table form).
  /// `collectives` defaults to the two the paper evaluates. With
  /// threads > 1 the (collective, nodes, ppn) job cells are filled
  /// concurrently — the selector's select() must then be thread-safe
  /// (stateless selectors qualify, as does PmlFramework for select() *and*
  /// compile paths — see the thread-safety contract in core/framework.hpp;
  /// RandomSelector does not) — and the output ordering is identical to
  /// the serial sweep.
  static TuningTable generate(Selector& selector,
                              const sim::ClusterSpec& cluster,
                              std::span<const int> node_counts,
                              std::span<const int> ppn_values,
                              std::span<const std::uint64_t> msg_sizes);
  static TuningTable generate(Selector& selector,
                              const sim::ClusterSpec& cluster,
                              std::span<const int> node_counts,
                              std::span<const int> ppn_values,
                              std::span<const std::uint64_t> msg_sizes,
                              std::span<const coll::Collective> collectives,
                              int threads = 1);

  // --- Sweep & cluster provenance --------------------------------------------
  // generate() records the grids it swept and the target's hardware
  // fingerprint so cache layers can tell whether an existing table actually
  // covers a requested sweep *and* the same silicon (hand-built tables have
  // empty grids / a zero fingerprint and never match).

  void set_sweep(std::span<const int> node_counts,
                 std::span<const int> ppn_values,
                 std::span<const std::uint64_t> msg_sizes);
  bool matches_sweep(std::span<const int> node_counts,
                     std::span<const int> ppn_values,
                     std::span<const std::uint64_t> msg_sizes) const noexcept;
  const std::vector<int>& sweep_nodes() const noexcept { return sweep_nodes_; }
  const std::vector<int>& sweep_ppn() const noexcept { return sweep_ppn_; }
  const std::vector<std::uint64_t>& sweep_msg_sizes() const noexcept {
    return sweep_msgs_;
  }

  /// sim::ClusterSpec::hardware_fingerprint() of the compiled-for cluster;
  /// 0 for hand-built tables and artifacts predating the field. Serialized,
  /// so persisted caches keep distinguishing same-name clusters.
  std::uint64_t cluster_fingerprint() const noexcept {
    return cluster_fingerprint_;
  }
  void set_cluster_fingerprint(std::uint64_t fp) noexcept {
    cluster_fingerprint_ = fp;
  }

  /// True when this table was compiled for `cluster` (name and hardware
  /// fingerprint both match) — the cache-hit precondition alongside
  /// matches_sweep(). Tables without a fingerprint never match: recompiling
  /// upgrades them, exactly like pre-envelope cache entries.
  bool matches_cluster(const sim::ClusterSpec& cluster) const;

  /// Wall-clock seconds of the compile_for sweep that produced this table
  /// (the paper's "model inference overhead"); 0 for hand-built or loaded
  /// tables. Not serialized: artifacts must stay byte-identical across
  /// runs of identical inputs.
  double compile_seconds() const noexcept { return compile_seconds_; }
  void set_compile_seconds(double seconds) noexcept {
    compile_seconds_ = seconds;
  }

  Json to_json() const;
  static TuningTable from_json(const Json& j);

 private:
  const JobTable* find(coll::Collective collective, int nodes, int ppn) const;
  const JobTable* nearest(coll::Collective collective, int nodes,
                          int ppn) const;

  std::string cluster_name_;
  std::vector<JobTable> jobs_;
  std::vector<int> sweep_nodes_;
  std::vector<int> sweep_ppn_;
  std::vector<std::uint64_t> sweep_msgs_;
  std::uint64_t cluster_fingerprint_ = 0;
  double compile_seconds_ = 0.0;
};

}  // namespace pml::core
