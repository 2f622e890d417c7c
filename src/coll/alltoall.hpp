// Flat MPI_Alltoall algorithms as simulated rank programs.
//
// Semantics match MPI_Alltoall: `send_buf` holds p blocks of `block_bytes`
// (block j is destined to rank j); on completion `recv_buf` holds p blocks
// (block i came from rank i). Payloads really move.
#pragma once

#include <cstddef>
#include <span>

#include "coll/collective.hpp"
#include "sim/comm.hpp"

namespace pml::coll {

/// Dispatch to one of the five alltoall algorithms.
/// Throws pml::SimError if the algorithm does not support comm.size().
sim::RankTask run_alltoall(Algorithm algorithm, sim::Comm comm,
                           std::span<const std::byte> send_buf,
                           std::span<std::byte> recv_buf);

sim::RankTask alltoall_bruck(sim::Comm comm, std::span<const std::byte> send,
                             std::span<std::byte> recv);
sim::RankTask alltoall_scatter_dest(sim::Comm comm,
                                    std::span<const std::byte> send,
                                    std::span<std::byte> recv);
sim::RankTask alltoall_pairwise(sim::Comm comm,
                                std::span<const std::byte> send,
                                std::span<std::byte> recv);
sim::RankTask alltoall_recursive_doubling(sim::Comm comm,
                                          std::span<const std::byte> send,
                                          std::span<std::byte> recv);
sim::RankTask alltoall_inplace(sim::Comm comm, std::span<const std::byte> send,
                               std::span<std::byte> recv);

}  // namespace pml::coll
