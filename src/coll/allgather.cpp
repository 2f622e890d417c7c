#include "coll/allgather.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"

namespace pml::coll {

namespace {

using sim::Comm;
using sim::RankTask;

std::size_t block_of(std::span<const std::byte> recv, int p) {
  return recv.size() / static_cast<std::size_t>(p);
}

/// Copy own contribution into its slot of the result buffer.
void place_own_block(Comm& comm, std::span<const std::byte> send,
                     std::span<std::byte> recv, int p) {
  const std::size_t n = block_of(recv, p);
  if (send.size() != n) {
    throw SimError("allgather: send block size mismatch");
  }
  if (n == 0) return;
  if (comm.payload_enabled()) {
    std::memcpy(recv.data() + static_cast<std::size_t>(comm.rank()) * n,
                send.data(), n);
  }
  comm.copy(n, recv.size());
}

}  // namespace

std::array<BlockRun, 2> rd_owned_blocks(int rank, int step, int world) {
  const int pow2 = 1 << floor_log2(world);
  const int remainder = world - pow2;
  if (rank >= pow2) {
    throw SimError("rd_owned_blocks: rank must be in the power-of-two group");
  }
  // After the pre-step, rank i < pow2 owns {i} plus {i + pow2} if i hosts an
  // extra rank. After k doubling rounds it owns the union over its k-bit
  // neighbourhood [g, g + 2^k): those blocks, then the blocks of the extra
  // ranks that neighbourhood hosts.
  const int g = rank & ~((1 << step) - 1);
  const int end = g + (1 << step);
  const int extra_end = std::max(g, std::min(end, remainder));
  return {BlockRun{g, end}, BlockRun{g + pow2, extra_end + pow2}};
}

sim::RankTask allgather_recursive_doubling(Comm comm,
                                           std::span<const std::byte> send,
                                           std::span<std::byte> recv) {
  const int p = comm.size();
  const int rank = comm.rank();
  const std::size_t n = block_of(recv, p);
  place_own_block(comm, send, recv, p);
  if (p == 1) co_return;

  const int m = floor_log2(p);
  const int pow2 = 1 << m;
  const int remainder = p - pow2;

  auto block_ptr = [&](int b) {
    return recv.data() + static_cast<std::size_t>(b) * n;
  };

  // Pre-step: extra ranks park their block with a proxy in the pow2 group.
  if (rank >= pow2) {
    co_await comm.send(rank - pow2, send, /*tag=*/900);
    // Post-step below delivers the full result back.
    co_await comm.recv(rank - pow2, recv, /*tag=*/901);
    co_return;
  }
  if (rank < remainder) {
    co_await comm.recv(rank + pow2,
                       std::span<std::byte>(block_ptr(rank + pow2), n),
                       /*tag=*/900);
  }

  // Doubling rounds over the power-of-two group, exchanging full owned sets.
  // A non-power-of-two world packs them through scratch: the two sets are
  // disjoint, so both stages fit in one result buffer's worth.
  const std::span<std::byte> stage =
      remainder != 0 ? comm.scratch(recv.size()) : std::span<std::byte>{};
  for (int k = 0; k < m; ++k) {
    const int partner = rank ^ (1 << k);
    const std::array<BlockRun, 2> mine = rd_owned_blocks(rank, k, p);
    const std::array<BlockRun, 2> theirs = rd_owned_blocks(partner, k, p);
    const auto run_bytes = [n](BlockRun run) {
      return static_cast<std::size_t>(run.size()) * n;
    };

    if (mine[1].size() == 0 && theirs[1].size() == 0) {
      // Neither side holds an extra rank's block yet: each owned set is one
      // run; exchange directly out of / into the result buffer.
      co_await comm.sendrecv(
          partner,
          std::span<const std::byte>(block_ptr(mine[0].begin),
                                     run_bytes(mine[0])),
          partner,
          std::span<std::byte>(block_ptr(theirs[0].begin),
                               run_bytes(theirs[0])),
          /*tag=*/k);
      continue;
    }
    // The own and extra runs lie apart: pack both in order, exchange,
    // unpack. An empty run is skipped, never addressed.
    const std::span<std::byte> stage_out =
        stage.first(run_bytes(mine[0]) + run_bytes(mine[1]));
    const std::span<std::byte> stage_in = stage.subspan(
        stage_out.size(), run_bytes(theirs[0]) + run_bytes(theirs[1]));
    if (comm.payload_enabled()) {
      std::byte* out = stage_out.data();
      for (const BlockRun run : mine) {
        if (run_bytes(run) == 0) continue;
        std::memcpy(out, block_ptr(run.begin), run_bytes(run));
        out += run_bytes(run);
      }
    }
    comm.copy(stage_out.size(), recv.size());
    co_await comm.sendrecv(partner, stage_out, partner, stage_in, /*tag=*/k);
    if (comm.payload_enabled()) {
      const std::byte* in = stage_in.data();
      for (const BlockRun run : theirs) {
        if (run_bytes(run) == 0) continue;
        std::memcpy(block_ptr(run.begin), in, run_bytes(run));
        in += run_bytes(run);
      }
    }
    comm.copy(stage_in.size(), recv.size());
  }

  // Post-step: proxies forward the complete result to their extra rank.
  if (rank < remainder) {
    co_await comm.send(rank + pow2, recv, /*tag=*/901);
  }
}

sim::RankTask allgather_ring(Comm comm, std::span<const std::byte> send,
                             std::span<std::byte> recv) {
  const int p = comm.size();
  const int rank = comm.rank();
  const std::size_t n = block_of(recv, p);
  place_own_block(comm, send, recv, p);
  if (p == 1) co_return;

  const int right = (rank + 1) % p;
  const int left = (rank - 1 + p) % p;
  for (int k = 0; k < p - 1; ++k) {
    const int send_block = (rank - k + p) % p;
    const int recv_block = (rank - k - 1 + p) % p;
    co_await comm.sendrecv(
        right,
        std::span<const std::byte>(
            recv.data() + static_cast<std::size_t>(send_block) * n, n),
        left,
        std::span<std::byte>(
            recv.data() + static_cast<std::size_t>(recv_block) * n, n),
        /*tag=*/k);
  }
}

sim::RankTask allgather_bruck(Comm comm, std::span<const std::byte> send,
                              std::span<std::byte> recv) {
  const int p = comm.size();
  const int rank = comm.rank();
  const std::size_t n = block_of(recv, p);
  if (p == 1) {
    place_own_block(comm, send, recv, p);
    co_return;
  }

  // temp[j] accumulates block (rank + j) mod p.
  const std::span<std::byte> temp = comm.scratch(recv.size());
  if (n > 0 && comm.payload_enabled()) {
    std::memcpy(temp.data(), send.data(), n);
  }
  comm.copy(n, recv.size());

  for (int k = 0; (1 << k) < p; ++k) {
    const int dist = 1 << k;
    const int count = std::min(dist, p - dist);
    const int dst = (rank - dist + p) % p;
    const int src = (rank + dist) % p;
    co_await comm.sendrecv(
        dst,
        std::span<const std::byte>(temp.data(),
                                   static_cast<std::size_t>(count) * n),
        src,
        std::span<std::byte>(temp.data() + static_cast<std::size_t>(dist) * n,
                             static_cast<std::size_t>(count) * n),
        /*tag=*/k);
  }

  // Final rotation: temp[j] is block (rank + j) mod p.
  if (comm.payload_enabled()) {
    for (int j = 0; j < p; ++j) {
      const int b = (rank + j) % p;
      if (n > 0) {
        std::memcpy(recv.data() + static_cast<std::size_t>(b) * n,
                    temp.data() + static_cast<std::size_t>(j) * n, n);
      }
    }
  }
  comm.copy(recv.size(), recv.size());
}

NeighborStep neighbor_step(int rank, int step, int world) {
  if (world % 2 != 0) {
    throw SimError("neighbor exchange requires an even number of ranks");
  }
  if (rank < 0 || rank >= world || step < 0 || step >= world / 2) {
    throw SimError("neighbor exchange: rank or step out of range");
  }
  const bool even = rank % 2 == 0;
  // n0 = the step-0 partner; n1 = the neighbour on the other side.
  const int n0 = even ? (rank + 1) % world : (rank - 1 + world) % world;
  const int n1 = even ? (rank - 1 + world) % world : (rank + 1) % world;
  // Step 0 swaps the single own blocks with n0.
  if (step == 0) return NeighborStep{n0, rank, n0, 1};
  // Steps alternate n1 (odd) and n0 (even), forwarding the 2-block chunk
  // acquired on the step before. The chunk a rank holds after step t starts
  // at its own pair's first block shifted by 2*ceil(t/2) blocks, towards
  // n1 after odd steps and towards n0 after even ones: -1 for an even rank
  // after an odd step, +1 for an odd rank, flipped after an even step.
  const int pair = rank - rank % 2;
  const auto chunk_after = [&](int t) {
    const int side = (even == (t % 2 == 1)) ? -1 : 1;
    return ((pair + side * 2 * ((t + 1) / 2)) % world + world) % world;
  };
  return NeighborStep{step % 2 == 1 ? n1 : n0, chunk_after(step - 1),
                      chunk_after(step), 2};
}

sim::RankTask allgather_neighbor_exchange(Comm comm,
                                          std::span<const std::byte> send,
                                          std::span<std::byte> recv) {
  const int p = comm.size();
  const int rank = comm.rank();
  const std::size_t n = block_of(recv, p);
  place_own_block(comm, send, recv, p);
  if (p == 1) co_return;

  for (int s = 0; s < p / 2; ++s) {
    const NeighborStep st = neighbor_step(rank, s, p);
    const auto chunk = static_cast<std::size_t>(st.chunk_blocks) * n;
    co_await comm.sendrecv(
        st.partner,
        std::span<const std::byte>(
            recv.data() + static_cast<std::size_t>(st.send_block) * n, chunk),
        st.partner,
        std::span<std::byte>(
            recv.data() + static_cast<std::size_t>(st.recv_block) * n, chunk),
        /*tag=*/s);
  }
}

sim::RankTask run_allgather(Algorithm algorithm, sim::Comm comm,
                            std::span<const std::byte> send_block,
                            std::span<std::byte> recv_buf) {
  if (collective_of(algorithm) != Collective::kAllgather) {
    throw SimError("run_allgather: not an allgather algorithm");
  }
  if (!algorithm_supports(algorithm, comm.size())) {
    throw SimError("algorithm " + display_name(algorithm) +
                   " does not support world size " +
                   std::to_string(comm.size()));
  }
  switch (algorithm) {
    case Algorithm::kAgRecursiveDoubling:
      return allgather_recursive_doubling(comm, send_block, recv_buf);
    case Algorithm::kAgRing:
      return allgather_ring(comm, send_block, recv_buf);
    case Algorithm::kAgBruck:
      return allgather_bruck(comm, send_block, recv_buf);
    case Algorithm::kAgRdComm:
      return allgather_neighbor_exchange(comm, send_block, recv_buf);
    default:
      throw SimError("unreachable");
  }
}

}  // namespace pml::coll
