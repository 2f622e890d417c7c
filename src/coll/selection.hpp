// Structured algorithm selection: label space v2.
//
// Label space v1 was a flat algorithm id — an index into
// algorithms_for(collective) that leaked through Selector::select,
// TuningTable entries, dataset labels, and the serve protocol as a raw
// int/string. The hierarchical collectives make the label a *composite*
// (hierarchy strategy x per-tier algorithm), so the raw id is replaced by
// coll::Selection: a kind plus tier algorithms with a stable string
// encoding. The canonical candidate list selection_space() defines the v2
// class-label space; its first algorithms_for(c).size() entries are the
// flat algorithms in enum order, i.e. label space v1 is a prefix of v2 and
// v1 artifacts decode losslessly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "coll/collective.hpp"
#include "sim/network.hpp"

namespace pml::coll {

/// How a selection schedules the collective across the topology.
enum class HierarchyKind : std::uint8_t {
  kFlat,    ///< one flat algorithm over all ranks (label space v1)
  kLeader,  ///< per-node leader tier: intra-node staging, inter-node
            ///< exchange among node leaders, intra-node fan-out
};

/// Stable identifier ("flat" / "leader") and its inverse; the parse throws
/// pml::ConfigError on unknown names.
std::string to_string(HierarchyKind kind);
HierarchyKind hierarchy_kind_from_string(const std::string& name);

/// A structured algorithm selection: the unit the selector predicts, the
/// tuning table stores, and the serve protocol replies with.
struct Selection {
  HierarchyKind kind = HierarchyKind::kFlat;
  /// Flat: the algorithm. Leader: the inter-node (leader-tier) algorithm,
  /// which determines the collective.
  Algorithm algorithm = Algorithm::kAgRing;
  /// Leader only: the intra-node fan-out tier, drawn from the any-ppn
  /// bcast algorithms (intra_fanout_algorithms()). Normalised to
  /// kBcBinomial for flat selections so equality is structural.
  Algorithm intra = Algorithm::kBcBinomial;

  static Selection flat(Algorithm a) {
    return Selection{HierarchyKind::kFlat, a, Algorithm::kBcBinomial};
  }
  static Selection leader(Algorithm inter, Algorithm fanout) {
    return Selection{HierarchyKind::kLeader, inter, fanout};
  }

  Collective collective() const { return collective_of(algorithm); }
  bool hierarchical() const noexcept { return kind != HierarchyKind::kFlat; }

  /// Stable string encoding: a flat selection encodes as the v1 short name
  /// ("ring"), so every v1 label string is a valid v2 encoding; a leader
  /// selection encodes as "leader:<inter>+<intra>" ("leader:ring+binomial").
  std::string encode() const;

  /// Human-oriented rendering, e.g. "Leader (Ring / Binomial Tree)".
  std::string display() const;

  /// Parse encode() output (or a bare v1 algorithm name) in the context of
  /// `collective`; throws pml::ConfigError on unknown names or a tier
  /// algorithm of the wrong collective.
  static Selection decode(Collective collective, const std::string& text);

  bool operator==(const Selection&) const = default;
};

/// Flat-comparison convenience: a Selection equals an Algorithm iff it is
/// the flat selection of that algorithm. Keeps v1-era assertions readable.
inline bool operator==(const Selection& s, Algorithm a) {
  return s.kind == HierarchyKind::kFlat && s.algorithm == a;
}

/// Intra-node fan-out candidates: the bcast algorithms valid at any ppn.
const std::vector<Algorithm>& intra_fanout_algorithms();

/// The canonical candidate list of `c` — the v2 class-label space. Index
/// order is stable: first the flat algorithms in enum order (== the v1
/// label space), then every (leader-tier algorithm x intra fan-out) combo.
const std::vector<Selection>& selection_space(Collective c);

/// True when `s` can run at `topo`: flat needs algorithm_supports at the
/// world size; leader needs >= 2 nodes, >= 2 ppn, the inter algorithm
/// supported at the node count and the intra fan-out at the ppn.
bool selection_supports(const Selection& s, sim::Topology topo);

/// Selections of `c` valid at `topo` (never empty for world size >= 1).
std::vector<Selection> valid_selections(Collective c, sim::Topology topo);

}  // namespace pml::coll
