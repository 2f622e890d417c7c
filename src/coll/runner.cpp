#include "coll/runner.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "coll/allgather.hpp"
#include "coll/allreduce.hpp"
#include "coll/alltoall.hpp"
#include "coll/bcast.hpp"
#include "coll/hierarchical.hpp"
#include "common/error.hpp"
#include "obs/export.hpp"
#include "sim/comm.hpp"

namespace pml::coll {

namespace {

/// Deterministic payload byte for (origin rank, destination-or-block, offset).
std::byte pattern(int origin, int block, std::size_t offset) {
  const auto h = static_cast<std::uint32_t>(origin) * 2654435761u ^
                 static_cast<std::uint32_t>(block) * 40503u ^
                 static_cast<std::uint32_t>(offset) * 2246822519u;
  return static_cast<std::byte>(h >> 24);
}

/// Buffer sizes per collective: (send bytes, recv bytes) for a per-block
/// payload of n bytes on p ranks.
std::pair<std::size_t, std::size_t> buffer_shape(Collective coll,
                                                 std::size_t n, int p) {
  switch (coll) {
    case Collective::kAllgather:
      return {n, n * static_cast<std::size_t>(p)};
    case Collective::kAlltoall:
      return {n * static_cast<std::size_t>(p), n * static_cast<std::size_t>(p)};
    case Collective::kAllreduce:
      return {n, n};
    case Collective::kBcast:
      return {0, n};  // single in-place buffer
  }
  throw SimError("unknown collective");
}

sim::RankTask dispatch(Collective coll, Algorithm algorithm, sim::Comm comm,
                       std::span<const std::byte> send,
                       std::span<std::byte> recv) {
  switch (coll) {
    case Collective::kAllgather:
      return run_allgather(algorithm, comm, send, recv);
    case Collective::kAlltoall:
      return run_alltoall(algorithm, comm, send, recv);
    case Collective::kAllreduce:
      return run_allreduce(algorithm, comm, send, recv);
    case Collective::kBcast:
      return run_bcast(algorithm, comm, recv);
  }
  throw SimError("unknown collective");
}

sim::RankTask dispatch(Collective coll, const Selection& s, sim::Comm comm,
                       std::span<const std::byte> send,
                       std::span<std::byte> recv) {
  if (!s.hierarchical()) return dispatch(coll, s.algorithm, comm, send, recv);
  return run_hierarchical(s, comm, send, recv);
}

/// Reusable per-thread simulation state for the timing-only fast path: one
/// engine (reset between invocations, all capacities retained) plus flat
/// send/recv arenas standing in for the per-rank payload buffers.
struct TimingContext {
  std::optional<sim::Engine> engine;
  std::vector<std::byte> send_arena;
  std::vector<std::byte> recv_arena;
};

TimingContext& timing_context() {
  // Touch the coroutine frame pool before constructing the context: the
  // pool must be destroyed after the engine (which owns coroutine frames
  // until its destructor runs at thread exit).
  sim::detail::warm_frame_pool();
  thread_local TimingContext ctx;
  return ctx;
}

/// Timing-only fast path: size-only pending operations, no payload
/// allocation, pattern fill, data movement, or verification. Virtual time
/// is bit-identical to the verified path.
RunResult run_timing_only(const sim::ClusterSpec& cluster, sim::Topology topo,
                          const Selection& selection, std::uint64_t block_bytes,
                          const sim::SimOptions& opts) {
  const int p = topo.world_size();
  const auto n = static_cast<std::size_t>(block_bytes);
  const Collective coll = selection.collective();
  const auto shape = buffer_shape(coll, n, p);
  const std::size_t send_bytes = shape.first;
  const std::size_t recv_bytes = shape.second;

  TimingContext& ctx = timing_context();
  ctx.send_arena.resize(send_bytes * static_cast<std::size_t>(p));
  ctx.recv_arena.resize(recv_bytes * static_cast<std::size_t>(p));
  if (ctx.engine) {
    ctx.engine->reset(cluster, topo, opts);
  } else {
    ctx.engine.emplace(cluster, topo, opts);
  }
  sim::Engine& engine = *ctx.engine;
  engine.reserve(std::min<std::size_t>(
      request_estimate(selection, topo, block_bytes), std::size_t{1} << 20));

  const auto factory = [&](int rank) {
    sim::Comm comm(engine, rank);
    const std::span<const std::byte> send(
        ctx.send_arena.data() + static_cast<std::size_t>(rank) * send_bytes,
        send_bytes);
    const std::span<std::byte> recv(
        ctx.recv_arena.data() + static_cast<std::size_t>(rank) * recv_bytes,
        recv_bytes);
    return dispatch(coll, selection, comm, send, recv);
  };
  engine.run(factory);

  RunResult result;
  result.seconds = engine.elapsed();
  return result;
}

}  // namespace

std::size_t request_estimate(Algorithm algorithm, int p,
                             std::uint64_t block_bytes) {
  const auto up = static_cast<std::size_t>(std::max(1, p));
  const auto logp =
      static_cast<std::size_t>(floor_log2(std::max(2, p)));
  switch (algorithm) {
    case Algorithm::kAgRecursiveDoubling:
      return 2 * up * (logp + 2);  // doubling rounds + pre/post proxy steps
    case Algorithm::kAgRing:
      return 2 * up * up;  // p-1 sendrecv rounds per rank
    case Algorithm::kAgBruck:
      return 2 * up * (logp + 1);
    case Algorithm::kAgRdComm:
      return up * up;  // p/2 neighbour-exchange rounds per rank
    case Algorithm::kAaScatterDest:
    case Algorithm::kAaPairwise:
    case Algorithm::kAaInplace:
      return 2 * up * up;  // p-1 peer exchanges per rank
    case Algorithm::kAaBruck:
    case Algorithm::kAaRecursiveDoubling:
      return 2 * up * (logp + 1);
    case Algorithm::kArRecursiveDoubling:
      return 2 * up * (logp + 1);
    case Algorithm::kArRabenseifner:
      return 4 * up * (logp + 1);  // reduce-scatter + allgather phases
    case Algorithm::kArRing:
      return 4 * up * up;  // two (p-1)-round ring phases
    case Algorithm::kBcBinomial:
      return 2 * up;
    case Algorithm::kBcScatterAllgather:
      return 2 * up * (logp + 1) + 2 * up * up;  // ring-allgather fallback
    case Algorithm::kBcPipelinedRing: {
      const std::size_t n = static_cast<std::size_t>(block_bytes);
      const std::size_t seg = bcast_pipeline_segment(n);
      const std::size_t segs = n == 0 ? 1 : (n + seg - 1) / seg;
      return 2 * up * segs;
    }
  }
  return 2 * up * (logp + 2);
}

RunResult run_collective(const sim::ClusterSpec& cluster, sim::Topology topo,
                         Algorithm algorithm, std::uint64_t block_bytes,
                         const sim::RunOptions& run_opts) {
  return run_selection(cluster, topo, Selection::flat(algorithm), block_bytes,
                       run_opts);
}

RunResult run_selection(const sim::ClusterSpec& cluster, sim::Topology topo,
                        const Selection& selection, std::uint64_t block_bytes,
                        const sim::RunOptions& run_opts) {
  obs::ScopedCapture capture(run_opts.trace_sink);
  const sim::SimOptions opts = run_opts.sim_options();
  if (!opts.payload_enabled()) {
    obs::Span span("coll.run.timing_only");
    return run_timing_only(cluster, topo, selection, block_bytes, opts);
  }
  obs::Span span("coll.run.verified");

  const int p = topo.world_size();
  const auto n = static_cast<std::size_t>(block_bytes);
  const Collective coll = selection.collective();
  const auto [send_bytes, recv_bytes] = buffer_shape(coll, n, p);

  std::vector<std::vector<std::byte>> send(static_cast<std::size_t>(p));
  std::vector<std::vector<std::byte>> recv(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    auto& s = send[static_cast<std::size_t>(r)];
    s.resize(send_bytes);
    for (std::size_t i = 0; i < send_bytes; ++i) {
      const int block = coll == Collective::kAlltoall
                            ? static_cast<int>(n == 0 ? 0 : i / n)
                            : r;
      s[i] = pattern(r, block, n == 0 ? 0 : i % n);
    }
    auto& d = recv[static_cast<std::size_t>(r)];
    d.assign(recv_bytes, std::byte{0});
    if (coll == Collective::kBcast && r == 0) {
      // Root's buffer carries the payload to broadcast.
      for (std::size_t i = 0; i < recv_bytes; ++i) d[i] = pattern(0, 0, i);
    }
  }

  sim::Engine engine(cluster, topo, opts);
  engine.reserve(std::min<std::size_t>(
      request_estimate(selection, topo, block_bytes), std::size_t{1} << 20));
  const auto factory = [&](int rank) {
    sim::Comm comm(engine, rank);
    auto& s = send[static_cast<std::size_t>(rank)];
    auto& d = recv[static_cast<std::size_t>(rank)];
    return dispatch(coll, selection, comm, s, d);
  };
  engine.run(factory);

  RunResult result;
  result.seconds = engine.elapsed();

  auto fail = [&](int rank, std::size_t offset) {
    throw SimError("payload mismatch: " + selection.display() + " rank " +
                   std::to_string(rank) + " offset " + std::to_string(offset));
  };
  for (int r = 0; r < p; ++r) {
    const auto& d = recv[static_cast<std::size_t>(r)];
    switch (coll) {
      case Collective::kAllgather:
      case Collective::kAlltoall:
        for (int b = 0; b < p; ++b) {
          for (std::size_t i = 0; i < n; ++i) {
            // Allgather: block b holds rank b's contribution.
            // Alltoall: block b holds rank b's block destined to r.
            const std::byte expect = coll == Collective::kAllgather
                                         ? pattern(b, b, i)
                                         : pattern(b, r, i);
            if (d[static_cast<std::size_t>(b) * n + i] != expect) {
              fail(r, static_cast<std::size_t>(b) * n + i);
            }
          }
        }
        break;
      case Collective::kAllreduce:
        for (std::size_t i = 0; i < n; ++i) {
          unsigned sum = 0;
          for (int src = 0; src < p; ++src) {
            sum += static_cast<unsigned>(pattern(src, src, i));
          }
          if (d[i] != static_cast<std::byte>(sum)) fail(r, i);
        }
        break;
      case Collective::kBcast:
        for (std::size_t i = 0; i < n; ++i) {
          if (d[i] != pattern(0, 0, i)) fail(r, i);
        }
        break;
    }
  }
  result.verified = true;
  return result;
}

std::size_t request_estimate(const Selection& selection, sim::Topology topo,
                             std::uint64_t block_bytes) {
  const int p = topo.world_size();
  if (!selection.hierarchical()) {
    return request_estimate(selection.algorithm, p, block_bytes);
  }
  const auto ppn = static_cast<std::uint64_t>(topo.ppn);
  std::uint64_t tier_bytes = block_bytes;
  std::uint64_t fanout_bytes = block_bytes;
  bool has_fanout = true;
  switch (selection.collective()) {
    case Collective::kAllgather:
      tier_bytes = ppn * block_bytes;
      fanout_bytes = static_cast<std::uint64_t>(p) * block_bytes;
      break;
    case Collective::kAlltoall:
      tier_bytes = ppn * ppn * block_bytes;
      has_fanout = false;  // results scatter point-to-point
      break;
    case Collective::kAllreduce:
    case Collective::kBcast:
      break;
  }
  // Staging gather/scatter posts plus the inner per-tier schedules.
  std::size_t total = 8 * static_cast<std::size_t>(p);
  total += request_estimate(selection.algorithm, topo.nodes, tier_bytes);
  if (has_fanout) {
    total += static_cast<std::size_t>(topo.nodes) *
             request_estimate(selection.intra, topo.ppn, fanout_bytes);
  }
  return total;
}

}  // namespace pml::coll
