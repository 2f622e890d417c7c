// Flat MPI_Allgather algorithms as simulated rank programs.
//
// Semantics match MPI_Allgather: every rank contributes `block_bytes` from
// `send_block`; on completion `recv_buf` (p * block_bytes) holds rank i's
// contribution at block offset i, on every rank. Payload bytes really move,
// so tests can assert the result bit-for-bit.
#pragma once

#include <array>
#include <cstddef>
#include <span>

#include "coll/collective.hpp"
#include "sim/comm.hpp"

namespace pml::coll {

/// Dispatch to one of the four allgather algorithms.
/// Throws pml::SimError if the algorithm does not support comm.size()
/// (see algorithm_supports).
sim::RankTask run_allgather(Algorithm algorithm, sim::Comm comm,
                            std::span<const std::byte> send_block,
                            std::span<std::byte> recv_buf);

/// Individual algorithms (exposed for targeted tests).
sim::RankTask allgather_recursive_doubling(sim::Comm comm,
                                           std::span<const std::byte> send,
                                           std::span<std::byte> recv);
sim::RankTask allgather_ring(sim::Comm comm, std::span<const std::byte> send,
                             std::span<std::byte> recv);
sim::RankTask allgather_bruck(sim::Comm comm, std::span<const std::byte> send,
                              std::span<std::byte> recv);
sim::RankTask allgather_neighbor_exchange(sim::Comm comm,
                                          std::span<const std::byte> send,
                                          std::span<std::byte> recv);

/// A run [begin, end) of consecutive block indices.
struct BlockRun {
  int begin = 0;
  int end = 0;
  int size() const noexcept { return end - begin; }
};

/// Blocks owned by power-of-two-group `rank` after `step` rounds of the
/// (generalised, non-power-of-two capable) recursive-doubling schedule, in
/// ascending order: its group's own blocks, then the blocks of the extra
/// ranks that group hosts (an empty run when it hosts none).
/// Allocation-free; the schedule calls it on every step.
std::array<BlockRun, 2> rd_owned_blocks(int rank, int step, int world);

/// One step of the neighbor-exchange schedule for a given rank.
struct NeighborStep {
  int partner = -1;
  int send_block = -1;   ///< first block index of the chunk sent
  int recv_block = -1;   ///< first block index of the chunk received
  int chunk_blocks = 1;  ///< 1 on step 0, 2 afterwards
};

/// Step `step` (0 <= step < world/2) of the neighbor-exchange schedule for
/// `rank`, in O(1). Requires an even world; the schedule calls it on every
/// step.
NeighborStep neighbor_step(int rank, int step, int world);

}  // namespace pml::coll
