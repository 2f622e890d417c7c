#include "core/selectors.hpp"

#include <algorithm>
#include <limits>

#include "coll/cost.hpp"
#include "common/error.hpp"

namespace pml::core {

using coll::Algorithm;
using coll::Collective;

void Selector::check_grid_shape(std::size_t topos, std::size_t sizes,
                                std::size_t slots) {
  if (topos * sizes != slots) {
    throw TuningError("select_many: " + std::to_string(topos) +
                      " topologies x " + std::to_string(sizes) +
                      " sizes but " + std::to_string(slots) +
                      " output slots");
  }
}

void Selector::select_many(Collective collective,
                           const sim::ClusterSpec& cluster,
                           std::span<const sim::Topology> topos,
                           std::span<const std::uint64_t> msg_sizes,
                           std::span<coll::Selection> out) {
  check_grid_shape(topos.size(), msg_sizes.size(), out.size());
  std::size_t slot = 0;
  for (const sim::Topology topo : topos) {
    for (const std::uint64_t msg : msg_sizes) {
      out[slot++] = select(collective, cluster, topo, msg);
    }
  }
}

coll::Algorithm first_supported(
    std::initializer_list<coll::Algorithm> preference, int p) {
  for (const Algorithm a : preference) {
    if (coll::algorithm_supports(a, p)) return a;
  }
  throw TuningError("no supported algorithm in preference list");
}

namespace {

Algorithm mvapich_rule(Collective collective, sim::Topology topo,
                       std::uint64_t msg_bytes) {
  const int p = topo.world_size();
  // Static thresholds in the spirit of the MVAPICH2 2.3.7 generic table:
  // they encode one machine's crossovers and ignore the hardware at hand.
  // Recursive doubling is only chosen at power-of-two worlds (its
  // generalised non-power-of-two schedule is known to be poor).
  if (collective == Collective::kAllgather) {
    const std::uint64_t total = static_cast<std::uint64_t>(p) * msg_bytes;
    if (msg_bytes < 512 && coll::is_power_of_two(p)) {
      return Algorithm::kAgRecursiveDoubling;
    }
    if (total <= 256 * 1024) {
      return first_supported({Algorithm::kAgBruck, Algorithm::kAgRing}, p);
    }
    // MVAPICH2 2.3.7 has no neighbor-exchange allgather: everything past
    // the dissemination range rides the ring, which is what the paper's
    // ML selector improves on in the mid-size window.
    return first_supported({Algorithm::kAgRing, Algorithm::kAgBruck}, p);
  }
  if (collective == Collective::kAlltoall) {
    if (static_cast<std::uint64_t>(p) * msg_bytes <= 32 * 1024) {
      return first_supported({Algorithm::kAaBruck, Algorithm::kAaPairwise}, p);
    }
    if (msg_bytes <= 32 * 1024) {
      return first_supported(
          {Algorithm::kAaScatterDest, Algorithm::kAaPairwise}, p);
    }
    return first_supported({Algorithm::kAaPairwise, Algorithm::kAaScatterDest},
                           p);
  }
  if (collective == Collective::kAllreduce) {
    if (msg_bytes <= 2048) {
      return first_supported(
          {Algorithm::kArRecursiveDoubling, Algorithm::kArRing}, p);
    }
    return first_supported({Algorithm::kArRabenseifner, Algorithm::kArRing},
                           p);
  }
  // MPI_Bcast: thresholds tuned for a mid-size machine; the chunked
  // algorithms' doubling allgather needs a power-of-two world.
  if (msg_bytes <= 32 * 1024) return Algorithm::kBcBinomial;
  if (msg_bytes <= 512 * 1024 && coll::is_power_of_two(p)) {
    return Algorithm::kBcScatterAllgather;
  }
  return Algorithm::kBcPipelinedRing;
}

Algorithm openmpi_rule(Collective collective, sim::Topology topo,
                       std::uint64_t msg_bytes) {
  const int p = topo.world_size();
  // Fixed decision rules in the spirit of Open MPI's tuned defaults, with
  // the neighbor-exchange mid-range for allgather and earlier pairwise
  // switching for alltoall.
  if (collective == Collective::kAllgather) {
    const std::uint64_t total = static_cast<std::uint64_t>(p) * msg_bytes;
    if (total <= 64 * 1024) {
      return first_supported({Algorithm::kAgBruck, Algorithm::kAgRing}, p);
    }
    if (total <= 512 * 1024 && coll::is_power_of_two(p)) {
      return Algorithm::kAgRecursiveDoubling;
    }
    if (total <= 2 * 1024 * 1024) {
      return first_supported({Algorithm::kAgRdComm, Algorithm::kAgRing}, p);
    }
    return first_supported({Algorithm::kAgRing, Algorithm::kAgRdComm}, p);
  }
  if (collective == Collective::kAlltoall) {
    if (static_cast<std::uint64_t>(p) * msg_bytes <= 16 * 1024) {
      return first_supported({Algorithm::kAaBruck, Algorithm::kAaPairwise}, p);
    }
    if (msg_bytes <= 4 * 1024) {
      return first_supported(
          {Algorithm::kAaScatterDest, Algorithm::kAaPairwise}, p);
    }
    return first_supported({Algorithm::kAaPairwise, Algorithm::kAaScatterDest},
                           p);
  }
  if (collective == Collective::kAllreduce) {
    if (msg_bytes <= 8192) {
      return first_supported(
          {Algorithm::kArRecursiveDoubling, Algorithm::kArRing}, p);
    }
    return first_supported({Algorithm::kArRing, Algorithm::kArRabenseifner},
                           p);
  }
  // MPI_Bcast
  if (msg_bytes <= 8 * 1024) return Algorithm::kBcBinomial;
  if (msg_bytes <= 128 * 1024 && coll::is_power_of_two(p)) {
    return Algorithm::kBcScatterAllgather;
  }
  return Algorithm::kBcPipelinedRing;
}

Algorithm heuristic_flat_rule(Collective collective, sim::Topology topo,
                              std::uint64_t msg_bytes) {
  const int p = topo.world_size();
  // High PPN fully subscribes the node's single NIC; prefer algorithms
  // with fewer concurrent inter-node flows when congested.
  const bool congested = topo.ppn > 16;
  if (collective == Collective::kAllgather) {
    const std::uint64_t total = static_cast<std::uint64_t>(p) * msg_bytes;
    if (msg_bytes <= 256 && coll::is_power_of_two(p)) {
      return Algorithm::kAgRecursiveDoubling;
    }
    if (total <= 128 * 1024) {
      return first_supported({Algorithm::kAgBruck, Algorithm::kAgRing}, p);
    }
    if (!congested && total <= 1024 * 1024) {
      return first_supported({Algorithm::kAgRdComm, Algorithm::kAgRing}, p);
    }
    return first_supported({Algorithm::kAgRing, Algorithm::kAgBruck}, p);
  }
  if (collective == Collective::kAlltoall) {
    if (static_cast<std::uint64_t>(p) * msg_bytes <= 16 * 1024) {
      return first_supported({Algorithm::kAaBruck, Algorithm::kAaPairwise}, p);
    }
    if (msg_bytes <= (congested ? 2048u : 8192u)) {
      return first_supported(
          {Algorithm::kAaScatterDest, Algorithm::kAaPairwise}, p);
    }
    return first_supported({Algorithm::kAaPairwise, Algorithm::kAaScatterDest},
                           p);
  }
  if (collective == Collective::kAllreduce) {
    if (msg_bytes <= 4096) {
      return first_supported(
          {Algorithm::kArRecursiveDoubling, Algorithm::kArRing}, p);
    }
    if (congested) {
      return first_supported({Algorithm::kArRabenseifner, Algorithm::kArRing},
                             p);
    }
    return first_supported({Algorithm::kArRing, Algorithm::kArRabenseifner},
                           p);
  }
  // MPI_Bcast
  if (msg_bytes <= 16 * 1024) return Algorithm::kBcBinomial;
  if (coll::is_power_of_two(p) && msg_bytes <= 256 * 1024) {
    return Algorithm::kBcScatterAllgather;
  }
  return Algorithm::kBcPipelinedRing;
}

}  // namespace

coll::Selection MvapichDefaultSelector::select(Collective collective,
                                               const sim::ClusterSpec&,
                                               sim::Topology topo,
                                               std::uint64_t msg_bytes) {
  // Vendor default tables are flat-only: the hierarchical SMP paths of the
  // real libraries are not in the paper's §III algorithm set.
  return coll::Selection::flat(mvapich_rule(collective, topo, msg_bytes));
}

coll::Selection OpenMpiDefaultSelector::select(Collective collective,
                                               const sim::ClusterSpec&,
                                               sim::Topology topo,
                                               std::uint64_t msg_bytes) {
  return coll::Selection::flat(openmpi_rule(collective, topo, msg_bytes));
}

coll::Selection HeuristicSelector::select(Collective collective,
                                          const sim::ClusterSpec&,
                                          sim::Topology topo,
                                          std::uint64_t msg_bytes) {
  // Congested multi-node jobs (PPN oversubscribing the NIC) switch to a
  // leader schedule: the inter tier re-runs the flat rules at the leader
  // topology with the aggregated message size, the fan-out tier follows
  // the usual small/large bcast split.
  if (topo.nodes >= 2 && topo.ppn > 16) {
    const auto ppn = static_cast<std::uint64_t>(topo.ppn);
    const std::uint64_t total =
        static_cast<std::uint64_t>(topo.world_size()) * msg_bytes;
    std::uint64_t tier_bytes = msg_bytes;
    std::uint64_t fanout_bytes = msg_bytes;
    bool hierarchical = false;
    switch (collective) {
      case Collective::kAllgather:
        hierarchical = total >= 64 * 1024;
        tier_bytes = ppn * msg_bytes;
        fanout_bytes = total;
        break;
      case Collective::kAlltoall:
        // Aggregation only pays in the latency-dominated regime.
        hierarchical = total <= 16 * 1024;
        tier_bytes = ppn * ppn * msg_bytes;
        break;
      case Collective::kAllreduce:
        hierarchical = msg_bytes >= 4 * 1024;
        break;
      case Collective::kBcast:
        hierarchical = msg_bytes >= 16 * 1024;
        break;
    }
    if (hierarchical) {
      const Algorithm inter = heuristic_flat_rule(
          collective, sim::Topology{topo.nodes, 1}, tier_bytes);
      const Algorithm fanout = fanout_bytes > 64 * 1024
                                   ? Algorithm::kBcPipelinedRing
                                   : Algorithm::kBcBinomial;
      return coll::Selection::leader(inter, fanout);
    }
  }
  return coll::Selection::flat(
      heuristic_flat_rule(collective, topo, msg_bytes));
}

coll::Selection RandomSelector::select(Collective collective,
                                       const sim::ClusterSpec& /*cluster*/,
                                       sim::Topology topo,
                                       std::uint64_t /*msg_bytes*/) {
  const auto valid = coll::valid_selections(collective, topo);
  return valid[static_cast<std::size_t>(rng_.uniform_index(valid.size()))];
}

coll::Selection OracleSelector::select(Collective collective,
                                       const sim::ClusterSpec& cluster,
                                       sim::Topology topo,
                                       std::uint64_t msg_bytes) {
  // Exhaustive offline micro-benchmarking over the full v2 label space:
  // flat and hierarchical candidates compete on analytic cost.
  const auto valid = coll::valid_selections(collective, topo);
  coll::Selection best = valid.front();
  double lo = std::numeric_limits<double>::infinity();
  for (const coll::Selection& s : valid) {
    const double t = coll::analytic_cost(cluster, topo, s, msg_bytes);
    if (t < lo) {
      lo = t;
      best = s;
    }
  }
  return best;
}

}  // namespace pml::core
