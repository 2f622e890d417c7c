// Algorithm-selection strategies: the baselines the paper compares against.
//
//  - MvapichDefaultSelector: static message-size thresholds modelled on the
//    MVAPICH2 2.3.7 default tuning tables ("relies on a static tuning
//    table, which lacks optimization for the specific cluster").
//  - OpenMpiDefaultSelector: fixed decision rules modelled on Open MPI's
//    tuned-collectives defaults (different thresholds, different mid-size
//    choices).
//  - RandomSelector: uniform choice among valid algorithms (paper Fig. 8).
//  - OracleSelector: exhaustive offline micro-benchmarking — evaluates
//    every algorithm with the cost model and returns the argmin. This is
//    the upper bound the paper's §VII-C "slowdown vs offline
//    micro-benchmarking" is measured against.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "coll/collective.hpp"
#include "coll/selection.hpp"
#include "common/rng.hpp"
#include "sim/hardware.hpp"
#include "sim/network.hpp"

namespace pml::core {

/// Strategy interface: pick a structured selection (label space v2:
/// hierarchy strategy x per-tier algorithm) for a (collective, cluster,
/// job, message size) point. Implementations must return a selection for
/// which coll::selection_supports(selection, topo) holds; flat-only
/// strategies return coll::Selection::flat(...).
class Selector {
 public:
  virtual ~Selector() = default;
  virtual std::string name() const = 0;
  virtual coll::Selection select(coll::Collective collective,
                                 const sim::ClusterSpec& cluster,
                                 sim::Topology topo,
                                 std::uint64_t msg_bytes) = 0;

  /// Batched select over a grid of (topology, message size) cells of one
  /// (collective, cluster): fills out[c * msg_sizes.size() + i] with the
  /// choice for (topos[c], msg_sizes[i]); out must hold exactly
  /// topos.size() * msg_sizes.size() slots. The default loops select();
  /// model-backed selectors override it to answer the whole grid with one
  /// inference call. Overrides must return exactly what a select() loop
  /// would (table compilation depends on it); PmlFramework meets this by
  /// making select() its one-cell grid.
  virtual void select_many(coll::Collective collective,
                           const sim::ClusterSpec& cluster,
                           std::span<const sim::Topology> topos,
                           std::span<const std::uint64_t> msg_sizes,
                           std::span<coll::Selection> out);

 protected:
  /// Throws TuningError unless a select_many output holds exactly
  /// topos * sizes slots.
  static void check_grid_shape(std::size_t topos, std::size_t sizes,
                               std::size_t slots);
};

class MvapichDefaultSelector final : public Selector {
 public:
  std::string name() const override { return "MVAPICH2-2.3.7-default"; }
  coll::Selection select(coll::Collective collective,
                         const sim::ClusterSpec& cluster, sim::Topology topo,
                         std::uint64_t msg_bytes) override;
};

class OpenMpiDefaultSelector final : public Selector {
 public:
  std::string name() const override { return "OpenMPI-5.1.0a-default"; }
  coll::Selection select(coll::Collective collective,
                         const sim::ClusterSpec& cluster, sim::Topology topo,
                         std::uint64_t msg_bytes) override;
};

class RandomSelector final : public Selector {
 public:
  explicit RandomSelector(std::uint64_t seed = 99) : rng_(seed) {}
  std::string name() const override { return "Random"; }
  coll::Selection select(coll::Collective collective,
                         const sim::ClusterSpec& cluster, sim::Topology topo,
                         std::uint64_t msg_bytes) override;

 private:
  Rng rng_;
};

class OracleSelector final : public Selector {
 public:
  std::string name() const override { return "Oracle-microbenchmark"; }
  coll::Selection select(coll::Collective collective,
                         const sim::ClusterSpec& cluster, sim::Topology topo,
                         std::uint64_t msg_bytes) override;
};

/// Last rung of the online stage's degradation ladder (docs/API.md): a
/// stateless rule-of-thumb selector used when the trained model and the
/// compiled table are both unavailable. Rules blend the two vendor-default
/// tables above with two hardware signals (PPN-driven NIC congestion and
/// the node structure: congested multi-node jobs switch to leader-based
/// hierarchical schedules) so a degraded deployment still gets a sane,
/// always-valid selection — never an error.
class HeuristicSelector final : public Selector {
 public:
  std::string name() const override { return "PML-heuristic-fallback"; }
  coll::Selection select(coll::Collective collective,
                         const sim::ClusterSpec& cluster, sim::Topology topo,
                         std::uint64_t msg_bytes) override;
};

/// First algorithm in `preference` order valid at world size `p`.
coll::Algorithm first_supported(std::initializer_list<coll::Algorithm> preference,
                                int p);

}  // namespace pml::core
