#include "coll/hierarchical.hpp"

#include <cstring>
#include <vector>

#include "coll/allgather.hpp"
#include "coll/allreduce.hpp"
#include "coll/alltoall.hpp"
#include "coll/bcast.hpp"
#include "common/error.hpp"

namespace pml::coll {

namespace {

using sim::Comm;
using sim::RankTask;
using sim::RequestId;

void charge_reduction(Comm& comm, std::size_t bytes, std::size_t working_set) {
  comm.compute(comm.engine().model().reduction_time(bytes, working_set));
}

/// Per-rank placement of one hierarchical run: the node subgroup spans the
/// ppn world ranks of this rank's node; the leader subgroup strides over
/// the nodes' first ranks.
struct Placement {
  int nodes = 1;
  int ppn = 1;
  int local = 0;     ///< rank within the node (0 == leader)
  int leader = 0;    ///< world rank of this node's leader
};

Placement placement_of(const Comm& comm) {
  const sim::Topology& topo = comm.engine().topology();
  Placement pl;
  pl.nodes = topo.nodes;
  pl.ppn = topo.ppn;
  pl.local = comm.world_rank() % topo.ppn;
  pl.leader = comm.world_rank() - pl.local;
  return pl;
}

}  // namespace

RankTask hier_allgather(Algorithm inter, Algorithm intra, Comm comm,
                        std::span<const std::byte> send,
                        std::span<std::byte> recv) {
  const Placement pl = placement_of(comm);
  const std::size_t n = send.size();
  Comm local = comm.subgroup(pl.leader, 1, pl.ppn);

  if (pl.local == 0) {
    // Stage the node's super-block (ppn contiguous world blocks) in scratch.
    const std::span<std::byte> stage =
        comm.scratch(static_cast<std::size_t>(pl.ppn) * n, 1);
    if (n > 0 && comm.payload_enabled()) {
      std::memcpy(stage.data(), send.data(), n);
    }
    comm.copy(n, stage.size());
    std::vector<RequestId> reqs;
    reqs.reserve(static_cast<std::size_t>(pl.ppn) - 1);
    for (int l = 1; l < pl.ppn; ++l) {
      reqs.push_back(local.irecv(
          l, stage.subspan(static_cast<std::size_t>(l) * n, n), kHierTagBase));
    }
    co_await local.wait_all(reqs);

    // Node-major rank layout: leader j's super-block lands at world-block
    // offset j*ppn, so the inner allgather yields the world result directly.
    Comm leaders = comm.subgroup(0, pl.ppn, pl.nodes);
    co_await run_allgather(inter, leaders, stage, recv);
  } else {
    co_await local.send(0, send, kHierTagBase);
  }
  co_await run_bcast(intra, local, recv);
}

RankTask hier_alltoall(Algorithm inter, Comm comm,
                       std::span<const std::byte> send,
                       std::span<std::byte> recv) {
  const Placement pl = placement_of(comm);
  const int p = pl.nodes * pl.ppn;
  const auto up = static_cast<std::size_t>(p);
  const auto uppn = static_cast<std::size_t>(pl.ppn);
  const std::size_t n = send.size() / up;  // per-block bytes
  Comm local = comm.subgroup(pl.leader, 1, pl.ppn);
  const std::size_t node_bytes = uppn * up * n;

  if (pl.local != 0) {
    co_await local.send(0, send, kHierTagBase);
    co_await local.recv(0, recv, kHierTagBase + 1);
    co_return;
  }

  // Leader staging: [gather_in | packed_out] in slot 0, recv_stage in slot 1.
  const std::span<std::byte> slab = comm.scratch(2 * node_bytes, 0);
  const std::span<std::byte> gather_in = slab.subspan(0, node_bytes);
  const std::span<std::byte> packed_out = slab.subspan(node_bytes, node_bytes);
  const std::span<std::byte> recv_stage = comm.scratch(node_bytes, 1);

  if (!send.empty() && comm.payload_enabled()) {
    std::memcpy(gather_in.data(), send.data(), send.size());
  }
  comm.copy(send.size(), node_bytes);
  {
    std::vector<RequestId> reqs;
    reqs.reserve(static_cast<std::size_t>(pl.ppn) - 1);
    for (int l = 1; l < pl.ppn; ++l) {
      reqs.push_back(local.irecv(
          l,
          gather_in.subspan(static_cast<std::size_t>(l) * up * n, up * n),
          kHierTagBase));
    }
    co_await local.wait_all(reqs);
  }

  // Pack node-destination super-blocks: for destination node d, the block
  // carries gather_in[lr][d*ppn + dl] at [(d*ppn + lr)*ppn + dl], i.e. the
  // inner alltoall exchanges ppn*ppn*n-byte node pairs.
  if (n > 0 && comm.payload_enabled()) {
    for (std::size_t d = 0; d < static_cast<std::size_t>(pl.nodes); ++d) {
      for (std::size_t lr = 0; lr < uppn; ++lr) {
        const std::size_t src = (lr * up + d * uppn) * n;
        const std::size_t dst = (d * uppn + lr) * uppn * n;
        std::memcpy(packed_out.data() + dst, gather_in.data() + src, uppn * n);
      }
    }
  }
  comm.copy(node_bytes, 2 * node_bytes);

  Comm leaders = comm.subgroup(0, pl.ppn, pl.nodes);
  co_await run_alltoall(inter, leaders, packed_out, recv_stage);

  // Unpack into per-local results (gather_in is dead after the pack) and
  // scatter them: local dl's block from world rank s*ppn+lr sits at
  // recv_stage[((s*ppn + lr)*ppn + dl)*n].
  if (n > 0 && comm.payload_enabled()) {
    for (std::size_t dl = 0; dl < uppn; ++dl) {
      std::byte* out = gather_in.data() + dl * up * n;
      for (std::size_t src = 0; src < up; ++src) {
        const std::size_t from = (src * uppn + dl) * n;
        std::memcpy(out + src * n, recv_stage.data() + from, n);
      }
    }
  }
  comm.copy(node_bytes, 2 * node_bytes);
  {
    std::vector<RequestId> reqs;
    reqs.reserve(static_cast<std::size_t>(pl.ppn) - 1);
    for (int dl = 1; dl < pl.ppn; ++dl) {
      reqs.push_back(local.isend(
          dl,
          gather_in.subspan(static_cast<std::size_t>(dl) * up * n, up * n),
          kHierTagBase + 1));
    }
    if (!recv.empty() && comm.payload_enabled()) {
      std::memcpy(recv.data(), gather_in.data(), recv.size());
    }
    comm.copy(recv.size(), node_bytes);
    co_await local.wait_all(reqs);
  }
}

RankTask hier_allreduce(Algorithm inter, Algorithm intra, Comm comm,
                        std::span<const std::byte> send,
                        std::span<std::byte> recv) {
  const Placement pl = placement_of(comm);
  const std::size_t n = send.size();
  Comm local = comm.subgroup(pl.leader, 1, pl.ppn);

  if (n > 0 && comm.payload_enabled()) {
    std::memcpy(recv.data(), send.data(), n);
  }
  comm.copy(n, n);

  // Binomial reduce onto the leader (any ppn): at step k, ranks with bit k
  // set hand their partial sum down and leave; the rest absorb a child.
  const std::span<std::byte> incoming = comm.scratch(n, 1);
  for (int k = 0; (1 << k) < pl.ppn; ++k) {
    const int bit = 1 << k;
    if ((pl.local & bit) != 0) {
      co_await local.send(pl.local - bit, recv, kHierTagBase + k);
      break;
    }
    if (pl.local + bit < pl.ppn) {
      co_await local.recv(pl.local + bit, incoming, kHierTagBase + k);
      if (comm.payload_enabled()) combine_bytes(recv, incoming);
      charge_reduction(comm, n, n);
    }
  }

  if (pl.local == 0) {
    // The inner allreduce copies send into recv up front, so hand it the
    // node partial from scratch rather than aliasing recv with itself.
    if (n > 0 && comm.payload_enabled()) {
      std::memcpy(incoming.data(), recv.data(), n);
    }
    comm.copy(n, n);
    Comm leaders = comm.subgroup(0, pl.ppn, pl.nodes);
    co_await run_allreduce(inter, leaders, incoming, recv);
  }
  co_await run_bcast(intra, local, recv);
}

RankTask hier_bcast(Algorithm inter, Algorithm intra, Comm comm,
                    std::span<std::byte> buf) {
  const Placement pl = placement_of(comm);
  Comm local = comm.subgroup(pl.leader, 1, pl.ppn);
  if (pl.local == 0) {
    Comm leaders = comm.subgroup(0, pl.ppn, pl.nodes);
    co_await run_bcast(inter, leaders, buf);
  }
  co_await run_bcast(intra, local, buf);
}

RankTask run_hierarchical(Selection s, Comm comm,
                          std::span<const std::byte> send,
                          std::span<std::byte> recv) {
  if (!s.hierarchical()) {
    throw SimError("run_hierarchical: flat selection " + s.encode());
  }
  const sim::Topology& topo = comm.engine().topology();
  if (!selection_supports(s, topo)) {
    throw SimError("selection " + s.encode() + " does not support " +
                   std::to_string(topo.nodes) + "x" + std::to_string(topo.ppn));
  }
  switch (s.collective()) {
    case Collective::kAllgather:
      return hier_allgather(s.algorithm, s.intra, comm, send, recv);
    case Collective::kAlltoall:
      return hier_alltoall(s.algorithm, comm, send, recv);
    case Collective::kAllreduce:
      return hier_allreduce(s.algorithm, s.intra, comm, send, recv);
    case Collective::kBcast:
      return hier_bcast(s.algorithm, s.intra, comm, recv);
  }
  throw SimError("unknown collective");
}

}  // namespace pml::coll
