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
/// engine + buffer arena are reused across invocations, so a steady-state
/// call performs zero heap allocations (measured by bench/sweep_hotpath).
/// `seconds` is bit-identical to the verified path — every payload
/// operation charges its simulated time whether or not bytes move.
///
/// A non-empty `opts.trace_sink` enables obs collection for the call and
/// writes the requested trace/metrics files on return.
///
/// Throws pml::SimError on schedule deadlock, unsupported world size, or a
/// payload mismatch (an incorrect algorithm is a bug, not a data point).
RunResult run_collective(const sim::ClusterSpec& cluster, sim::Topology topo,
                         Algorithm algorithm, std::uint64_t block_bytes,
                         const sim::RunOptions& opts = {});

/// Execute a structured selection. A flat selection takes exactly the same
/// internal path as run_collective(selection.algorithm, ...), so the two
/// produce bit-identical virtual times; a hierarchical selection dispatches
/// the leader-based schedule (hierarchical.hpp). Verification and the
/// timing-only 0-alloc fast path work identically for both.
/// Throws pml::SimError when the selection does not support `topo`.
RunResult run_selection(const sim::ClusterSpec& cluster, sim::Topology topo,
                        const Selection& selection, std::uint64_t block_bytes,
                        const sim::RunOptions& opts = {});

/// Upper-bound estimate of the requests (isend/irecv posts) `algorithm`
/// issues across all ranks for a per-block payload of `block_bytes` on `p`
/// ranks. Used to pre-size engine storage; exact for the regular schedules,
/// conservative for the irregular ones.
std::size_t request_estimate(Algorithm algorithm, int p,
                             std::uint64_t block_bytes);

/// Request estimate for a structured selection: equals the flat estimate
/// for flat selections; a leader selection adds the staging posts plus the
/// per-tier inner estimates (conservative).
std::size_t request_estimate(const Selection& selection, sim::Topology topo,
                             std::uint64_t block_bytes);

}  // namespace pml::coll
