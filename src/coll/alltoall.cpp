#include "coll/alltoall.hpp"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace pml::coll {

namespace {

using sim::Comm;
using sim::RankTask;
using sim::RequestId;

std::size_t block_size(std::span<const std::byte> buf, int p) {
  const auto bytes = buf.size();
  const auto blocks = static_cast<std::size_t>(p);
  if (bytes % blocks != 0) {
    throw SimError("alltoall: buffer not divisible into p blocks");
  }
  return bytes / blocks;
}

const std::byte* cblock(std::span<const std::byte> buf, std::size_t n, int b) {
  return buf.data() + static_cast<std::size_t>(b) * n;
}

std::byte* mblock(std::span<std::byte> buf, std::size_t n, int b) {
  return buf.data() + static_cast<std::size_t>(b) * n;
}

}  // namespace

sim::RankTask alltoall_scatter_dest(Comm comm, std::span<const std::byte> send,
                                    std::span<std::byte> recv) {
  const int p = comm.size();
  const int rank = comm.rank();
  const std::size_t n = block_size(send, p);

  // Own block moves locally.
  if (n > 0 && comm.payload_enabled()) {
    std::memcpy(mblock(recv, n, rank), cblock(send, n, rank), n);
  }
  comm.copy(n, recv.size());

  // Post everything at once, destinations staggered to spread load, then
  // wait for the lot (MVAPICH "scatter destination" schedule).
  std::vector<RequestId>& reqs = comm.request_list();
  for (int i = 1; i < p; ++i) {
    const int dst = (rank + i) % p;
    reqs.push_back(comm.isend(
        dst, std::span<const std::byte>(cblock(send, n, dst), n), /*tag=*/0));
  }
  for (int i = 1; i < p; ++i) {
    const int src = (rank - i + p) % p;
    reqs.push_back(comm.irecv(
        src, std::span<std::byte>(mblock(recv, n, src), n), /*tag=*/0));
  }
  // Unexpected-message queue searches: with 2(p-1) requests outstanding,
  // each match scans queues that grow with the peer count (mirrored in the
  // analytic model, cost.cpp).
  const double queue_factor = 0.25 * floor_log2(std::max(2, p - 1));
  comm.compute(2.0 * (p - 1) *
               comm.engine().model().per_message_overhead() * queue_factor);
  co_await comm.wait_all(reqs);
}

sim::RankTask alltoall_pairwise(Comm comm, std::span<const std::byte> send,
                                std::span<std::byte> recv) {
  const int p = comm.size();
  const int rank = comm.rank();
  const std::size_t n = block_size(send, p);

  if (n > 0 && comm.payload_enabled()) {
    std::memcpy(mblock(recv, n, rank), cblock(send, n, rank), n);
  }
  comm.copy(n, recv.size());

  for (int k = 1; k < p; ++k) {
    int send_to = 0;
    int recv_from = 0;
    if (is_power_of_two(p)) {
      send_to = recv_from = rank ^ k;  // XOR schedule (paper §III)
    } else {
      send_to = (rank + k) % p;
      recv_from = (rank - k + p) % p;
    }
    co_await comm.sendrecv(
        send_to, std::span<const std::byte>(cblock(send, n, send_to), n),
        recv_from, std::span<std::byte>(mblock(recv, n, recv_from), n),
        /*tag=*/k);
  }
}

sim::RankTask alltoall_bruck(Comm comm, std::span<const std::byte> send,
                             std::span<std::byte> recv) {
  const int p = comm.size();
  const int rank = comm.rank();
  const std::size_t n = block_size(send, p);
  if (p == 1) {
    if (n > 0 && comm.payload_enabled()) {
      std::memcpy(recv.data(), send.data(), n);
    }
    comm.copy(n, n);
    co_return;
  }

  // Phase 1: local rotation. temp[j] = block destined to (rank + j) mod p.
  const std::span<std::byte> temp = comm.scratch(send.size());
  if (comm.payload_enabled()) {
    for (int j = 0; j < p; ++j) {
      const int b = (rank + j) % p;
      if (n > 0) std::memcpy(mblock(temp, n, j), cblock(send, n, b), n);
    }
  }
  comm.copy(temp.size(), temp.size());

  // Phase 2: for each bit k, forward all blocks whose index has bit k set
  // to rank + 2^k; receive the same index set from rank - 2^k. At most
  // floor(p/2) indices below p have bit k set, so the pack and unpack
  // stages fit in the two halves of the result buffer, which phase 3
  // writes last.
  const std::size_t half = static_cast<std::size_t>(p / 2) * n;
  for (int k = 0; (1 << k) < p; ++k) {
    const int dist = 1 << k;
    const int dst = (rank + dist) % p;
    const int src = (rank - dist + p) % p;

    std::size_t count = 0;  // indices j < p with bit k set, packed in order
    for (int j = dist; j < p; ++j) {
      if ((j & dist) == 0) continue;
      if (n > 0 && comm.payload_enabled()) {
        std::memcpy(recv.data() + count * n, cblock(temp, n, j), n);
      }
      ++count;
    }
    const std::span<std::byte> stage_out = recv.first(count * n);
    const std::span<std::byte> stage_in = recv.subspan(half, count * n);
    comm.copy(stage_out.size(), temp.size());

    co_await comm.sendrecv(dst, stage_out, src, stage_in, /*tag=*/k);

    for (int j = dist, i = 0; j < p; ++j) {
      if ((j & dist) == 0) continue;
      if (n > 0 && comm.payload_enabled()) {
        std::memcpy(mblock(temp, n, j), cblock(stage_in, n, i), n);
      }
      ++i;
    }
    comm.copy(stage_in.size(), temp.size());
  }

  // Phase 3: temp[j] now holds the block sent by (rank - j) mod p to us.
  if (comm.payload_enabled()) {
    for (int j = 0; j < p; ++j) {
      const int origin = (rank - j + p) % p;
      if (n > 0) std::memcpy(mblock(recv, n, origin), cblock(temp, n, j), n);
    }
  }
  comm.copy(recv.size(), recv.size());
}

sim::RankTask alltoall_recursive_doubling(Comm comm,
                                          std::span<const std::byte> send,
                                          std::span<std::byte> recv) {
  const int p = comm.size();
  const int rank = comm.rank();
  const std::size_t n = block_size(send, p);
  if (!is_power_of_two(p)) {
    throw SimError("alltoall recursive doubling requires a power-of-two world");
  }
  if (p == 1) {
    if (n > 0 && comm.payload_enabled()) {
      std::memcpy(recv.data(), send.data(), n);
    }
    comm.copy(n, n);
    co_return;
  }

  // Store-and-forward through p block slots in scratch. Before step k,
  // slot s holds the block with destination (s's bits >= k | rank's bits
  // < k) and origin (s's bits < k | rank's bits >= k). Step k forwards the
  // p/2 slots whose bit k differs from rank's to rank ^ 2^k, and the
  // partner's blocks land in those slots in the same ascending order. After
  // the last step slot o holds origin o's block.
  const std::span<std::byte> slots = comm.scratch(send.size());
  if (n > 0 && comm.payload_enabled()) {
    std::memcpy(slots.data(), send.data(), send.size());
  }
  comm.copy(send.size(), send.size());

  // The pack and unpack stages live in the result buffer, which is written
  // last: each step moves half of the p held blocks each way.
  const std::size_t half = static_cast<std::size_t>(p / 2) * n;
  const std::span<std::byte> stage_out = recv.first(half);
  const std::span<std::byte> stage_in = recv.subspan(half, half);
  for (int k = 0; (1 << k) < p; ++k) {
    const int bit = 1 << k;
    const int moving = ~rank & bit;  // bit k of the slots that move
    if (n > 0 && comm.payload_enabled()) {
      for (int s = 0, i = 0; s < p; ++s) {
        if ((s & bit) != moving) continue;
        std::memcpy(mblock(stage_out, n, i++), cblock(slots, n, s), n);
      }
    }
    comm.copy(stage_out.size(), send.size());

    co_await comm.sendrecv(rank ^ bit, stage_out, rank ^ bit, stage_in,
                           /*tag=*/k);

    if (n > 0 && comm.payload_enabled()) {
      for (int s = 0, i = 0; s < p; ++s) {
        if ((s & bit) != moving) continue;
        std::memcpy(mblock(slots, n, s), cblock(stage_in, n, i++), n);
      }
    }
    comm.copy(stage_in.size(), send.size());
  }

  if (n > 0 && comm.payload_enabled()) {
    std::memcpy(recv.data(), slots.data(), recv.size());
  }
  comm.copy(recv.size(), recv.size());
}

sim::RankTask alltoall_inplace(Comm comm, std::span<const std::byte> send,
                               std::span<std::byte> recv) {
  const int p = comm.size();
  const int rank = comm.rank();
  const std::size_t n = block_size(send, p);

  // In-place semantics: the result buffer starts as a copy of the send
  // buffer; p-1 lockstep rounds replace one block at a time. Round k sends
  // block (rank+k) and overwrites block (rank-k), so blocks needed in late
  // rounds (k > p/2) would be clobbered by early ones — they are stashed up
  // front. Extra memory: half a buffer plus one bounce block, instead of a
  // full second buffer.
  if (!send.empty() && comm.payload_enabled()) {
    std::memcpy(recv.data(), send.data(), send.size());
  }
  comm.copy(send.size(), send.size());

  // Scratch holds the stash (one block per late round) and, last, the
  // bounce block every round sends from.
  const int late = p / 2 + 1;  // first stashed round
  const std::span<std::byte> stage =
      comm.scratch(static_cast<std::size_t>(p - late + 1) * n);
  const std::span<std::byte> bounce = stage.last(n);
  for (int k = late; k < p; ++k) {
    const int block = (rank + k) % p;
    if (n > 0 && comm.payload_enabled()) {
      std::memcpy(mblock(stage, n, k - late), cblock(recv, n, block), n);
    }
    comm.copy(n, recv.size());
  }

  for (int k = 1; k < p; ++k) {
    const int send_to = (rank + k) % p;
    const int recv_from = (rank - k + p) % p;
    const std::byte* source =
        k >= late ? mblock(stage, n, k - late) : cblock(recv, n, send_to);
    if (n > 0 && comm.payload_enabled()) {
      std::memcpy(bounce.data(), source, n);
    }
    comm.copy(n, n);
    co_await comm.sendrecv(
        send_to, bounce, recv_from,
        std::span<std::byte>(mblock(recv, n, recv_from), n), /*tag=*/k);
  }
}

sim::RankTask run_alltoall(Algorithm algorithm, sim::Comm comm,
                           std::span<const std::byte> send_buf,
                           std::span<std::byte> recv_buf) {
  if (collective_of(algorithm) != Collective::kAlltoall) {
    throw SimError("run_alltoall: not an alltoall algorithm");
  }
  if (!algorithm_supports(algorithm, comm.size())) {
    throw SimError("algorithm " + display_name(algorithm) +
                   " does not support world size " +
                   std::to_string(comm.size()));
  }
  switch (algorithm) {
    case Algorithm::kAaBruck:
      return alltoall_bruck(comm, send_buf, recv_buf);
    case Algorithm::kAaScatterDest:
      return alltoall_scatter_dest(comm, send_buf, recv_buf);
    case Algorithm::kAaPairwise:
      return alltoall_pairwise(comm, send_buf, recv_buf);
    case Algorithm::kAaRecursiveDoubling:
      return alltoall_recursive_doubling(comm, send_buf, recv_buf);
    case Algorithm::kAaInplace:
      return alltoall_inplace(comm, send_buf, recv_buf);
    default:
      throw SimError("unreachable");
  }
}

}  // namespace pml::coll
