// Deterministic fault injection for the discrete-event engine.
//
// A FaultPlan describes the imperfections of a degraded cluster — slow or
// lossy-in-performance (never lossy-in-data) links, straggler ranks,
// transient NIC outages, and payload bit-corruption — as plain data. The
// engine resolves the plan once per construction/reset() into flat per-rank
// and per-node tables, so the simulation stays a pure function of
// (cluster, topology, options): the same plan and seed yield bit-identical
// virtual times at any thread count, exactly like the fault-free engine.
// Determinism is what keeps the paper's learning problem well-posed under
// faults (see DESIGN.md): a fault-injected sweep is still a reproducible
// labelled dataset, not a noisy measurement.
//
// Semantics per fault type:
//  - LinkDegradation: the node's NIC serialises bytes at
//    `bandwidth_factor` x nominal bandwidth, and every inter-node transfer
//    touching the node pays `extra_latency` additional seconds. A transfer
//    between two degraded nodes runs at the slower of the two scales and
//    pays both latency penalties.
//  - Straggler: every CPU-side charge of the rank (post overhead, eager
//    bounce copy, local compute/copy) is multiplied by `slowdown`.
//  - NicFlap: the node's NIC is down during [start, start + duration);
//    inter-node transfers that would start inside the window stall until
//    it closes (queued-op stall — messages are delayed, never dropped).
//  - Corruption: each delivered transfer flips one payload bit with
//    probability `probability`, drawn from a counter-based splitmix64
//    stream (no RNG state shared with timing jitter). Only the bytes are
//    touched; timings are unchanged, so PayloadMode::kVerify and
//    kTimingOnly stay bit-identical in virtual time and the kVerify
//    verification pass is what detects the damage.
// Faults act inside Engine::post_send/post_recv and transfer completion,
// so rank programs run under a FaultPlan unchanged.
#pragma once

#include <cstdint>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"

namespace pml::sim {

/// Bandwidth/latency degradation of one node's NIC.
struct LinkDegradation {
  int node = 0;
  double bandwidth_factor = 1.0;  ///< in (0, 1]: fraction of nominal NIC bw
  double extra_latency = 0.0;     ///< seconds added per inter-node transfer
};

/// Multiplicative CPU slowdown of one rank.
struct Straggler {
  int rank = 0;
  double slowdown = 1.0;  ///< >= 1: factor on every CPU-side charge
};

/// Transient NIC outage of one node.
struct NicFlap {
  int node = 0;
  double start = 0.0;     ///< virtual seconds; window is [start, start+duration)
  double duration = 0.0;  ///< seconds the NIC stays down
};

/// Per-transfer payload bit-corruption (PayloadMode::kVerify only).
struct Corruption {
  double probability = 0.0;  ///< in [0, 1]: chance one bit flips per transfer
};

/// A complete, seeded fault scenario. Default-constructed plans are empty
/// and leave the engine bit-identical to a fault-free run. Serializes as a
/// "pml-fault-plan-v1" JSON document.
struct FaultPlan {
  std::uint64_t seed = 1;  ///< corruption draw stream; independent of jitter
  std::vector<LinkDegradation> link_degradations;
  std::vector<Straggler> stragglers;
  std::vector<NicFlap> flaps;
  Corruption corruption;

  /// True when the plan injects nothing; the engine's disabled-fault hot
  /// path (a single branch) depends on this.
  bool empty() const noexcept {
    return link_degradations.empty() && stragglers.empty() && flaps.empty() &&
           corruption.probability <= 0.0;
  }

  /// Check every entry against a topology; throws pml::ConfigError on
  /// out-of-range nodes/ranks, bandwidth factors outside (0, 1], slowdowns
  /// below 1, negative windows, non-finite values, or probability outside
  /// [0, 1].
  void validate(int nodes, int world_size) const;

  Json to_json() const;
  /// Parse a "pml-fault-plan-v1" document; throws pml::ConfigError on a
  /// wrong/missing format key, pml::JsonError on malformed structure.
  static FaultPlan from_json(const Json& j);
};

/// Deterministic per-transfer corruption draw: a splitmix64 sponge over
/// (seed, transfer ordinal, src, dst) — the same absorb-then-mix discipline
/// as core::cell_seed, so draws depend only on the transfer's identity,
/// never on thread count or iteration order.
inline std::uint64_t fault_draw(std::uint64_t seed, std::uint64_t ordinal,
                                int src, int dst) noexcept {
  std::uint64_t state = seed;
  const auto absorb = [&state](std::uint64_t value) {
    state ^= value;
    state = splitmix64(state);
  };
  absorb(ordinal);
  absorb(static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)));
  absorb(static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst)));
  return splitmix64(state);
}

}  // namespace pml::sim
