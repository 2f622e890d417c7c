#include "coll/bcast.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"

namespace pml::coll {

namespace {

using sim::Comm;
using sim::RankTask;
using sim::RequestId;

std::size_t chunk_begin(std::size_t count, int parts, int i) {
  const int idx = std::clamp(i, 0, parts);
  return count * static_cast<std::size_t>(idx) / static_cast<std::size_t>(parts);
}

}  // namespace

std::size_t bcast_pipeline_segment(std::size_t total_bytes) {
  // 8 KiB segments balance pipeline depth against per-segment latency;
  // short messages go out in one piece.
  constexpr std::size_t kSegment = 8 * 1024;
  return std::max<std::size_t>(1, std::min(total_bytes, kSegment));
}

sim::RankTask bcast_binomial(Comm comm, std::span<std::byte> buf) {
  const int p = comm.size();
  const int rank = comm.rank();
  if (p == 1) co_return;

  // Root is 0, so relative rank == rank. Receive once from the ancestor,
  // then forward down the binomial tree (MPICH schedule).
  int mask = 1;
  while (mask < p) {
    if (rank & mask) {
      co_await comm.recv(rank - mask, buf, /*tag=*/0);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (rank + mask < p && (rank & (mask - 1)) == 0) {
      co_await comm.send(rank + mask, buf, /*tag=*/0);
    }
    mask >>= 1;
  }
}

sim::RankTask bcast_scatter_allgather(Comm comm, std::span<std::byte> buf) {
  const int p = comm.size();
  const int rank = comm.rank();
  const std::size_t n = buf.size();
  if (p == 1) co_return;

  // Phase 1 (van de Geijn): binomial scatter of p balanced chunks; a node
  // entering at `mask` owns chunks [rank, rank+mask) and hands the upper
  // half of that range to rank+mask/2... here the standard top-down form:
  // the sender passes chunks [rank+mask, min(rank+2*mask, p)) wait —
  // sender at level `mask` passes the subtree chunks [rank+mask,
  // min(rank+2*mask, p)) is the receiver's range [r, r+mask).
  int entry_mask = 1;
  while (entry_mask < p) {
    if (rank & entry_mask) break;
    entry_mask <<= 1;
  }
  // Receive my subtree's chunk range from the ancestor.
  if (rank != 0) {
    const int src = rank - entry_mask;
    const std::size_t b = chunk_begin(n, p, rank);
    const std::size_t e = chunk_begin(n, p, std::min(rank + entry_mask, p));
    if (e > b) {
      co_await comm.recv(src, buf.subspan(b, e - b), /*tag=*/1);
    } else {
      // Zero-byte subtree range (tiny payloads): still synchronise.
      co_await comm.recv(src, buf.subspan(0, 0), /*tag=*/1);
    }
  }
  // Forward subtree halves downward.
  {
    int mask = rank == 0 ? 1 : entry_mask;
    // Highest power of two below p for the root.
    if (rank == 0) {
      while (mask < p) mask <<= 1;
    }
    mask >>= 1;
    while (mask > 0) {
      if (rank + mask < p && (rank & (mask - 1)) == 0) {
        const int dst = rank + mask;
        const std::size_t b = chunk_begin(n, p, dst);
        const std::size_t e = chunk_begin(n, p, std::min(dst + mask, p));
        if (e > b) {
          co_await comm.send(dst, buf.subspan(b, e - b), /*tag=*/1);
        } else {
          co_await comm.send(dst, buf.subspan(0, 0), /*tag=*/1);
        }
      }
      mask >>= 1;
    }
  }

  // Phase 2: allgather of the chunks. Power-of-two worlds use recursive
  // doubling over contiguous chunk ranges (log p rounds — the van de Geijn
  // formulation); other worlds fall back to the chunk ring.
  if (is_power_of_two(p)) {
    for (int k = 0; (1 << k) < p; ++k) {
      const int partner = rank ^ (1 << k);
      const int group = 1 << k;
      const int my_start = (rank / group) * group;
      const int their_start = (partner / group) * group;
      const std::size_t sb = chunk_begin(n, p, my_start);
      const std::size_t se = chunk_begin(n, p, my_start + group);
      const std::size_t rb = chunk_begin(n, p, their_start);
      const std::size_t re = chunk_begin(n, p, their_start + group);
      co_await comm.sendrecv(
          partner, std::span<const std::byte>(buf.data() + sb, se - sb),
          partner, buf.subspan(rb, re - rb), /*tag=*/100 + k);
    }
    co_return;
  }
  const int right = (rank + 1) % p;
  const int left = (rank - 1 + p) % p;
  for (int k = 0; k < p - 1; ++k) {
    const int send_idx = ((rank - k) % p + p) % p;
    const int recv_idx = ((rank - k - 1) % p + p) % p;
    const std::size_t sb = chunk_begin(n, p, send_idx);
    const std::size_t se = chunk_begin(n, p, send_idx + 1);
    const std::size_t rb = chunk_begin(n, p, recv_idx);
    const std::size_t re = chunk_begin(n, p, recv_idx + 1);
    co_await comm.sendrecv(right,
                           std::span<const std::byte>(buf.data() + sb, se - sb),
                           left, buf.subspan(rb, re - rb),
                           /*tag=*/100 + k);
  }
}

sim::RankTask bcast_pipelined_ring(Comm comm, std::span<std::byte> buf) {
  const int p = comm.size();
  const int rank = comm.rank();
  const std::size_t n = buf.size();
  if (p == 1) co_return;

  const std::size_t seg = bcast_pipeline_segment(n);
  const std::size_t num_segs = n == 0 ? 1 : (n + seg - 1) / seg;

  // Chain 0 -> 1 -> ... -> p-1; forwarding is nonblocking so segment j+1
  // overlaps the downstream hops of segment j.
  std::vector<RequestId>& forwards = comm.request_list();
  for (std::size_t j = 0; j < num_segs; ++j) {
    const std::size_t b = j * seg;
    const std::size_t len = std::min(seg, n - b);
    const auto piece = buf.subspan(b, len);
    if (rank > 0) {
      co_await comm.recv(rank - 1, piece, /*tag=*/static_cast<int>(j));
    }
    if (rank + 1 < p) {
      forwards.push_back(
          comm.isend(rank + 1, piece, /*tag=*/static_cast<int>(j)));
    }
  }
  co_await comm.wait_all(forwards);
}

sim::RankTask run_bcast(Algorithm algorithm, sim::Comm comm,
                        std::span<std::byte> buf) {
  if (collective_of(algorithm) != Collective::kBcast) {
    throw SimError("run_bcast: not a bcast algorithm");
  }
  if (!algorithm_supports(algorithm, comm.size())) {
    throw SimError("algorithm " + display_name(algorithm) +
                   " does not support world size " +
                   std::to_string(comm.size()));
  }
  switch (algorithm) {
    case Algorithm::kBcBinomial:
      return bcast_binomial(comm, buf);
    case Algorithm::kBcScatterAllgather:
      return bcast_scatter_allgather(comm, buf);
    case Algorithm::kBcPipelinedRing:
      return bcast_pipelined_ring(comm, buf);
    default:
      throw SimError("unreachable");
  }
}

}  // namespace pml::coll
