#include "coll/runner.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "coll/allgather.hpp"
#include "coll/allreduce.hpp"
#include "coll/alltoall.hpp"
#include "coll/bcast.hpp"
#include "coll/hierarchical.hpp"
#include "common/error.hpp"
#include "obs/obs.hpp"
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

sim::RankTask dispatch(const Selection& s, sim::Comm comm,
                       std::span<const std::byte> send,
                       std::span<std::byte> recv) {
  if (s.hierarchical()) return run_hierarchical(s, comm, send, recv);
  switch (s.collective()) {
    case Collective::kAllgather:
      return run_allgather(s.algorithm, comm, send, recv);
    case Collective::kAlltoall:
      return run_alltoall(s.algorithm, comm, send, recv);
    case Collective::kAllreduce:
      return run_allreduce(s.algorithm, comm, send, recv);
    case Collective::kBcast:
      return run_bcast(s.algorithm, comm, recv);
  }
  throw SimError("unknown collective");
}

/// Per-thread engine for the timing-only fast path, reset between
/// invocations with every capacity retained.
sim::Engine& timing_engine(const sim::ClusterSpec& cluster, sim::Topology topo,
                           const sim::SimOptions& opts) {
  // Touch the coroutine frame pool before constructing the engine: the
  // pool must be destroyed after the engine (which owns coroutine frames
  // until its destructor runs at thread exit).
  sim::detail::warm_frame_pool();
  thread_local std::optional<sim::Engine> engine;
  if (engine) {
    engine->reset(cluster, topo, opts);
  } else {
    engine.emplace(cluster, topo, opts);
  }
  return *engine;
}

/// Timing-only fast path: size-only pending operations, no pattern fill,
/// data movement, or verification. Virtual time is bit-identical to the
/// verified path. No payload byte is ever read or written, so every rank's
/// send and recv spans point into the engine's scratch arena, which the
/// schedules' staging shares: memory is that of one rank's buffers rather
/// than world_size times it.
RunResult run_timing_only(const sim::ClusterSpec& cluster, sim::Topology topo,
                          const Selection& selection, std::uint64_t block_bytes,
                          const sim::SimOptions& opts) {
  const auto [send_bytes, recv_bytes] = buffer_shape(
      selection.collective(), static_cast<std::size_t>(block_bytes),
      topo.world_size());

  sim::Engine& engine = timing_engine(cluster, topo, opts);
  const std::span<std::byte> block =
      engine.scratch(0, 0, std::max(send_bytes, recv_bytes));
  const auto factory = [&](int rank) {
    return dispatch(selection, sim::Comm(engine, rank), block.first(send_bytes),
                    block.first(recv_bytes));
  };
  engine.run(factory);

  RunResult result;
  result.seconds = engine.elapsed();
  return result;
}

}  // namespace

RunResult run_collective(const sim::ClusterSpec& cluster, sim::Topology topo,
                         Algorithm algorithm, std::uint64_t block_bytes,
                         const sim::SimOptions& opts) {
  return run_selection(cluster, topo, Selection::flat(algorithm), block_bytes,
                       opts);
}

RunResult run_selection(const sim::ClusterSpec& cluster, sim::Topology topo,
                        const Selection& selection, std::uint64_t block_bytes,
                        const sim::SimOptions& opts) {
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
  const auto factory = [&](int rank) {
    sim::Comm comm(engine, rank);
    auto& s = send[static_cast<std::size_t>(rank)];
    auto& d = recv[static_cast<std::size_t>(rank)];
    return dispatch(selection, comm, s, d);
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

}  // namespace pml::coll
