#include "coll/allgather.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <mutex>
#include <vector>

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

std::vector<int> rd_owned_blocks(int rank, int step, int world) {
  const int m = floor_log2(world);
  const int pow2 = 1 << m;
  const int remainder = world - pow2;
  if (rank >= pow2) {
    throw SimError("rd_owned_blocks: rank must be in the power-of-two group");
  }
  // After the pre-step, rank i < pow2 owns {i} plus {i + pow2} if i hosts an
  // extra rank. After k doubling rounds it owns the union over its k-bit
  // neighbourhood.
  const int mask = ~((1 << step) - 1);
  const int group_start = rank & mask;
  std::vector<int> blocks;
  for (int j = group_start; j < group_start + (1 << step); ++j) {
    blocks.push_back(j);
    if (j < remainder) blocks.push_back(j + pow2);
  }
  std::sort(blocks.begin(), blocks.end());
  return blocks;
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
    const std::vector<int> mine = rd_owned_blocks(rank, k, p);
    const std::vector<int> theirs = rd_owned_blocks(partner, k, p);

    auto contiguous = [&](const std::vector<int>& blocks) {
      for (std::size_t i = 1; i < blocks.size(); ++i) {
        if (blocks[i] != blocks[i - 1] + 1) return false;
      }
      return true;
    };

    if (contiguous(mine) && contiguous(theirs)) {
      // Power-of-two case: owned blocks form one contiguous region; exchange
      // directly out of / into the result buffer.
      co_await comm.sendrecv(
          partner,
          std::span<const std::byte>(block_ptr(mine.front()),
                                     mine.size() * n),
          partner,
          std::span<std::byte>(block_ptr(theirs.front()), theirs.size() * n),
          /*tag=*/k);
    } else {
      // Non-power-of-two: owned sets are scattered; pack, exchange, unpack.
      const std::span<std::byte> stage_out = stage.first(mine.size() * n);
      const std::span<std::byte> stage_in =
          stage.subspan(stage_out.size(), theirs.size() * n);
      if (comm.payload_enabled()) {
        for (std::size_t i = 0; i < mine.size(); ++i) {
          std::memcpy(stage_out.data() + i * n, block_ptr(mine[i]), n);
        }
      }
      comm.copy(stage_out.size(), recv.size());
      co_await comm.sendrecv(partner, stage_out, partner, stage_in,
                             /*tag=*/k);
      if (comm.payload_enabled()) {
        for (std::size_t i = 0; i < theirs.size(); ++i) {
          std::memcpy(block_ptr(theirs[i]), stage_in.data() + i * n, n);
        }
      }
      comm.copy(stage_in.size(), recv.size());
    }
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

std::vector<std::vector<NeighborStep>> neighbor_exchange_plan(int world) {
  if (world == 1) return {std::vector<std::vector<NeighborStep>>::value_type{}};
  if (world % 2 != 0) {
    throw SimError("neighbor exchange requires an even number of ranks");
  }
  const auto w = static_cast<std::size_t>(world);
  std::vector<std::vector<NeighborStep>> plan(w);

  // Step 0: even ranks pair with rank+1, odd with rank-1, exchanging the
  // single own block.
  std::vector<int> chunk_start(w);  // first block of the chunk acquired last
  for (int r = 0; r < world; ++r) {
    const bool even = r % 2 == 0;
    const int partner = even ? r + 1 : r - 1;
    plan[static_cast<std::size_t>(r)].push_back(
        NeighborStep{partner, r, partner, 1});
    chunk_start[static_cast<std::size_t>(r)] = even ? r : r - 1;
  }

  // Steps 1..p/2-1: alternate the other neighbour, forwarding the 2-block
  // chunk acquired in the previous step.
  for (int step = 1; step < world / 2; ++step) {
    std::vector<int> next_start(w);
    for (int r = 0; r < world; ++r) {
      const bool even = r % 2 == 0;
      // neighbour[0] = the step-0 partner; neighbour[1] = the other side.
      const int n0 = even ? (r + 1) % world : (r - 1 + world) % world;
      const int n1 = even ? (r - 1 + world) % world : (r + 1) % world;
      const int partner = (step % 2 == 1) ? n1 : n0;
      const int send_start = chunk_start[static_cast<std::size_t>(r)];
      const int recv_start = chunk_start[static_cast<std::size_t>(partner)];
      plan[static_cast<std::size_t>(r)].push_back(
          NeighborStep{partner, send_start, recv_start, 2});
      next_start[static_cast<std::size_t>(r)] = recv_start;
    }
    chunk_start = std::move(next_start);
  }
  return plan;
}

namespace {

const std::vector<std::vector<NeighborStep>>& cached_neighbor_plan(int world) {
  static std::mutex mu;
  static std::map<int, std::vector<std::vector<NeighborStep>>> cache;
  const std::scoped_lock lock(mu);
  auto it = cache.find(world);
  if (it == cache.end()) {
    it = cache.emplace(world, neighbor_exchange_plan(world)).first;
  }
  return it->second;
}

}  // namespace

sim::RankTask allgather_neighbor_exchange(Comm comm,
                                          std::span<const std::byte> send,
                                          std::span<std::byte> recv) {
  const int p = comm.size();
  const int rank = comm.rank();
  const std::size_t n = block_of(recv, p);
  place_own_block(comm, send, recv, p);
  if (p == 1) co_return;

  const auto& plan = cached_neighbor_plan(p);
  const auto& steps = plan[static_cast<std::size_t>(rank)];
  for (std::size_t s = 0; s < steps.size(); ++s) {
    const NeighborStep& st = steps[s];
    const auto chunk = static_cast<std::size_t>(st.chunk_blocks) * n;
    co_await comm.sendrecv(
        st.partner,
        std::span<const std::byte>(
            recv.data() + static_cast<std::size_t>(st.send_block) * n, chunk),
        st.partner,
        std::span<std::byte>(
            recv.data() + static_cast<std::size_t>(st.recv_block) * n, chunk),
        static_cast<int>(s));
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
