// Per-rank communicator facade over the simulation engine.
//
// A `Comm` is the MPI-communicator-shaped handle a rank program receives.
// Point-to-point calls return awaitables; `co_await comm.sendrecv(...)` is
// the workhorse of every round-based collective schedule.
//
// Example rank program (a neighbour exchange):
//
//   RankTask program(Comm comm) {
//     const std::span<std::byte> stage = comm.scratch(2 * msg);
//     co_await comm.sendrecv(right, stage.first(msg), left, stage.last(msg));
//   }
#pragma once

#include <coroutine>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "sim/engine.hpp"

namespace pml::sim {

/// The request ids one co_await waits on, held without allocating: the
/// one or two of wait/send/recv/sendrecv (the hot round-based schedules)
/// inline, or a whole batch borrowed from the caller (wait_all).
class RequestSet {
 public:
  explicit RequestSet(RequestId id) : inline_{id, 0}, count_(1) {}
  RequestSet(RequestId first, RequestId second)
      : inline_{first, second}, count_(2) {}
  /// Borrows `ids`, which must stay alive and unchanged until the wait ends.
  explicit RequestSet(std::span<const RequestId> ids) : borrowed_(ids) {}

  std::span<const RequestId> view() const noexcept {
    return count_ > 0 ? std::span<const RequestId>(inline_, count_)
                      : borrowed_;
  }

 private:
  RequestId inline_[2] = {};
  std::size_t count_ = 0;
  std::span<const RequestId> borrowed_;
};

/// Awaitable completion of a set of nonblocking requests.
class [[nodiscard]] WaitAwaitable {
 public:
  WaitAwaitable(Engine& engine, int rank, RequestSet reqs)
      : engine_(&engine), rank_(rank), reqs_(std::move(reqs)) {}

  bool await_ready() const { return engine_->all_done(reqs_.view()); }
  void await_suspend(std::coroutine_handle<> h) {
    engine_->suspend_wait(rank_, reqs_.view(), h);
  }
  void await_resume() { engine_->complete_wait(rank_, reqs_.view()); }

 private:
  Engine* engine_;
  int rank_;
  RequestSet reqs_;
};

/// Lightweight per-rank view of the engine (copyable; references the engine).
///
/// A Comm can be a *subgroup* view: subgroup() restricts it to a strided
/// subset of world ranks and renumbers them 0..count-1. rank()/size() are
/// then group-relative and every post translates group peers to world
/// ranks, so any flat collective schedule — which only ever speaks in
/// rank()/size() terms — runs unchanged on a tier of the hierarchy (the
/// node leaders, or one node's local ranks). Clocks, scratch slots, and
/// topology queries always use the underlying world rank.
class Comm {
 public:
  Comm(Engine& engine, int rank)
      : engine_(&engine),
        world_rank_(rank),
        rank_(rank),
        base_(0),
        stride_(1),
        size_(engine.world_size()) {}

  /// Strided subgroup: group rank g is world rank base + g*stride. The
  /// calling rank must be a member. Subgroups nest off the world view only
  /// (base/stride/count are world-rank terms).
  Comm subgroup(int base, int stride, int count) const {
    if (stride < 1 || count < 1 ||
        (world_rank_ - base) % stride != 0) {
      throw SimError("rank " + std::to_string(world_rank_) +
                     " is not a member of subgroup(base=" +
                     std::to_string(base) + ", stride=" +
                     std::to_string(stride) + ", count=" +
                     std::to_string(count) + ")");
    }
    const int group_rank = (world_rank_ - base) / stride;
    if (group_rank < 0 || group_rank >= count) {
      throw SimError("rank " + std::to_string(world_rank_) +
                     " outside subgroup of " + std::to_string(count));
    }
    Comm sub(*engine_, world_rank_);
    sub.rank_ = group_rank;
    sub.base_ = base;
    sub.stride_ = stride;
    sub.size_ = count;
    return sub;
  }

  int rank() const noexcept { return rank_; }
  int size() const noexcept { return size_; }
  /// Underlying engine rank (== rank() for the world communicator).
  int world_rank() const noexcept { return world_rank_; }
  /// World rank of group rank `r`.
  int to_world(int r) const noexcept { return base_ + r * stride_; }
  int node() const noexcept {
    return engine_->topology().node_of(world_rank_);
  }
  bool same_node(int other) const noexcept {
    return engine_->topology().same_node(world_rank_, to_world(other));
  }
  Engine& engine() const noexcept { return *engine_; }
  double now() const { return engine_->now(world_rank_); }

  /// False in timing-only mode (PayloadMode::kTimingOnly): collective
  /// implementations skip their local payload movement (the time for it is
  /// charged either way), and buffers are never read or written.
  bool payload_enabled() const noexcept {
    return engine_->options().payload_enabled();
  }

  /// Nonblocking post; pair with wait()/wait_all(). Peer ranks are group
  /// ranks (== world ranks on the world communicator).
  RequestId isend(int dst, std::span<const std::byte> data, int tag = 0) {
    return engine_->post_send(world_rank_, to_world(dst), data, tag);
  }
  RequestId irecv(int src, std::span<std::byte> data, int tag = 0) {
    return engine_->post_recv(world_rank_, to_world(src), data, tag);
  }

  WaitAwaitable wait(RequestId req) {
    return WaitAwaitable(*engine_, world_rank_, RequestSet(req));
  }
  /// Wait on every id in `reqs`, which the awaitable borrows: keep them
  /// alive until the co_await returns (request_list() does).
  WaitAwaitable wait_all(std::span<const RequestId> reqs) {
    return WaitAwaitable(*engine_, world_rank_, RequestSet(reqs));
  }

  /// Blocking send/recv: co_await comm.send(...).
  WaitAwaitable send(int dst, std::span<const std::byte> data, int tag = 0) {
    return wait(isend(dst, data, tag));
  }
  WaitAwaitable recv(int src, std::span<std::byte> data, int tag = 0) {
    return wait(irecv(src, data, tag));
  }

  /// Simultaneous exchange: send to `dst`, receive from `src`.
  WaitAwaitable sendrecv(int dst, std::span<const std::byte> send_data,
                         int src, std::span<std::byte> recv_data,
                         int tag = 0) {
    const RequestId send = isend(dst, send_data, tag);  // posted first
    return WaitAwaitable(*engine_, world_rank_,
                         RequestSet(send, irecv(src, recv_data, tag)));
  }

  /// Per-rank reusable staging buffer (see Engine::scratch for the slot
  /// convention). Keyed by world rank, so two tiers of one rank's schedule
  /// share the same slots.
  std::span<std::byte> scratch(std::size_t bytes,
                               std::size_t slot = kFlatScratchSlot) {
    return engine_->scratch(world_rank_, slot, bytes);
  }

  /// This rank's engine-owned request list (Engine::request_list), for a
  /// batch of posts awaited with wait_all.
  std::vector<RequestId>& request_list() {
    return engine_->request_list(world_rank_);
  }

  /// Charge local computation time to this rank.
  void compute(double seconds) { engine_->local_compute(world_rank_, seconds); }

  /// Charge a local buffer copy (L3-aware) to this rank.
  void copy(std::uint64_t bytes, std::uint64_t working_set) {
    engine_->local_copy(world_rank_, bytes, working_set);
  }

 private:
  Engine* engine_;
  int world_rank_;  ///< rank in the engine's world communicator
  int rank_;        ///< rank within this (sub)group
  int base_;        ///< world rank of group rank 0
  int stride_;      ///< world-rank stride between group members
  int size_;        ///< group size
};

}  // namespace pml::sim
