// Event-engine execution of a collective with correctness verification.
#pragma once

#include <cstdint>

#include "coll/collective.hpp"
#include "coll/selection.hpp"
#include "sim/engine.hpp"

namespace pml::coll {

/// Outcome of one simulated collective invocation.
struct RunResult {
  double seconds = 0.0;  ///< simulated completion time (max over ranks)
  bool verified = false; ///< payload checked bit-for-bit on every rank
};

/// Execute `algorithm` on the event engine with `block_bytes` per block.
///
/// With `opts.payload == PayloadMode::kVerify` (the default) buffers are
/// filled with an (origin, block, offset)-dependent pattern, real bytes
/// move through the simulation, and the delivered payloads are verified
/// against the MPI-specified result on every rank.
///
/// With `PayloadMode::kTimingOnly` the timing-only fast path runs instead:
/// no pattern fill, no payload movement, no verification, and a per-thread
/// engine, whose scratch arena backs every rank's buffers, is reused
/// across invocations, so a steady-state call performs zero heap
/// allocations for every flat algorithm; batch waits keep their ids in
/// the engine's per-rank request lists (measured and gated by
/// bench/sweep_hotpath). `seconds` is bit-identical to the
/// verified path — every payload operation charges its simulated time
/// whether or not bytes move.
///
/// Throws pml::SimError on schedule deadlock, unsupported world size, or a
/// payload mismatch (an incorrect algorithm is a bug, not a data point).
RunResult run_collective(const sim::ClusterSpec& cluster, sim::Topology topo,
                         Algorithm algorithm, std::uint64_t block_bytes,
                         const sim::SimOptions& opts = {});

/// Execute a structured selection. A flat selection takes exactly the same
/// internal path as run_collective(selection.algorithm, ...), so the two
/// produce bit-identical virtual times; a hierarchical selection dispatches
/// the leader-based schedule (hierarchical.hpp). Verification and the
/// timing-only 0-alloc fast path work identically for both.
/// Throws pml::SimError when the selection does not support `topo`.
RunResult run_selection(const sim::ClusterSpec& cluster, sim::Topology topo,
                        const Selection& selection, std::uint64_t block_bytes,
                        const sim::SimOptions& opts = {});

}  // namespace pml::coll
