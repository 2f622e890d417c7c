// Discrete-event simulation engine for MPI-style rank programs.
//
// Each rank's program is a C++20 coroutine (`RankTask`). Communication calls
// suspend the coroutine; the engine matches sends with receives, computes
// transfer completion times from the NetworkModel, moves the actual payload
// bytes (so collective implementations are correctness-testable), and
// resumes coroutines in virtual-time order. The whole simulation is
// single-threaded and deterministic: identical seeds yield identical
// timings and identical event interleavings.
//
// Timing semantics:
//  - every posted send/recv charges the posting rank a CPU overhead `o`,
//  - an inter-node transfer occupies the source node's NIC TX port and the
//    destination node's NIC RX port for the wire time (bytes / NIC
//    bandwidth), which reproduces NIC congestion at high PPN,
//  - an intra-node transfer is a shared-memory copy at the L3-aware copy
//    bandwidth,
//  - each transfer duration is multiplied by deterministic log-normal
//    jitter (sigma configurable; 0 disables noise).
//
// Hot-loop storage is allocation-free in steady state: pending operations
// live in a free-listed node pool indexed by a flat open-addressed channel
// table, events in a binary heap over a reusable vector, wait states in an
// index-linked vector, and coroutine frames in a per-thread size-bucketed
// pool. reset() rewinds an Engine for the next invocation while keeping
// every capacity, so sweep/benchmark loops reuse instead of reallocating.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"

namespace pml::sim {

class Engine;

namespace detail {

/// Thread-local size-bucketed pool for coroutine frames. Frames churn once
/// per rank per invocation; recycling them keeps the engine hot loop free of
/// heap traffic. Engine's constructor touches the pool so that it outlives
/// any thread-storage-duration object holding an Engine (thread_local
/// function-statics are destroyed in reverse construction order).
void* frame_alloc(std::size_t size);
void frame_free(void* p) noexcept;
void warm_frame_pool();

}  // namespace detail

/// Coroutine type returned by every rank program.
///
/// RankTasks compose: a schedule may `co_await` another RankTask (the
/// hierarchical collectives run a flat schedule per tier this way). The
/// child starts on the awaiting rank's execution thread via symmetric
/// transfer, suspends into the engine like any rank program, and resumes
/// its parent — again by symmetric transfer — when it completes. Child
/// frames come from the same pooled allocator as top-level frames, so the
/// timing-only steady state stays allocation-free.
class [[nodiscard]] RankTask {
 public:
  struct promise_type {
    RankTask get_return_object() {
      return RankTask(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    /// Completion transfers control to the awaiting parent frame when there
    /// is one; a top-level frame instead fires the engine's completion hook
    /// (rank accounting + exception capture). Always suspends, so the frame
    /// stays alive for the owning RankTask to destroy.
    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<promise_type> h) noexcept {
        promise_type& p = h.promise();
        if (p.continuation) return p.continuation;
        if (p.on_complete) p.on_complete(p.on_complete_arg, p);
        return std::noop_coroutine();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept { exception = std::current_exception(); }

    static void* operator new(std::size_t size) {
      return detail::frame_alloc(size);
    }
    static void operator delete(void* p) noexcept { detail::frame_free(p); }

    std::exception_ptr exception;
    std::coroutine_handle<> continuation;  ///< awaiting parent frame, if any
    void (*on_complete)(void*, promise_type&) = nullptr;  ///< top-level hook
    void* on_complete_arg = nullptr;
  };

  RankTask() = default;
  explicit RankTask(std::coroutine_handle<promise_type> h) : handle_(h) {}
  RankTask(RankTask&& other) noexcept : handle_(other.handle_) {
    other.handle_ = nullptr;
  }
  RankTask& operator=(RankTask&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = other.handle_;
      other.handle_ = nullptr;
    }
    return *this;
  }
  RankTask(const RankTask&) = delete;
  RankTask& operator=(const RankTask&) = delete;
  ~RankTask() { destroy(); }

  std::coroutine_handle<promise_type> handle() const noexcept { return handle_; }

  /// Awaiting a RankTask runs it as a child of the current coroutine: the
  /// child is started immediately (symmetric transfer), the parent resumes
  /// when it co_returns, and a child exception rethrows at the co_await.
  /// The awaited RankTask must outlive the co_await expression — awaiting
  /// the temporary returned by a schedule factory satisfies this, since the
  /// temporary lives to the end of the full-expression.
  struct Awaiter {
    std::coroutine_handle<promise_type> handle;

    bool await_ready() const noexcept { return !handle || handle.done(); }
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<> parent) noexcept {
      handle.promise().continuation = parent;
      return handle;
    }
    void await_resume() const {
      if (handle && handle.promise().exception) {
        std::rethrow_exception(handle.promise().exception);
      }
    }
  };
  Awaiter operator co_await() const noexcept { return Awaiter{handle_}; }

 private:
  void destroy() noexcept {
    if (handle_) handle_.destroy();
    handle_ = nullptr;
  }
  std::coroutine_handle<promise_type> handle_;
};

/// Identifier of an outstanding nonblocking operation.
using RequestId = std::uint32_t;

/// How an invocation treats payload bytes.
enum class PayloadMode {
  /// Move and verify real payload bytes on delivery (the default):
  /// collective implementations are correctness-testable.
  kVerify,
  /// Timing-only fast path: pending operations carry sizes only, the
  /// eager bounce-buffer copy is skipped, and collective implementations
  /// skip their local payload shuffling — the virtual-time result is
  /// bit-identical either way, because every data movement charges its
  /// time unconditionally.
  kTimingOnly,
};

/// Sends at or below this size complete eagerly at post time (the payload
/// is buffered), as in real MPI eager/rendezvous protocols; larger sends
/// complete when the NIC drains them.
inline constexpr std::uint64_t kEagerThreshold = 16 * 1024;

/// Engine configuration, and the options of one collective invocation
/// through coll::run_collective. Field defaults are documented centrally
/// in docs/API.md.
struct SimOptions {
  double noise_sigma = 0.0;   ///< log-normal jitter shape; 0 = deterministic
  std::uint64_t seed = 1;     ///< jitter stream seed
  PayloadMode payload = PayloadMode::kVerify;
  /// Deterministic fault injection (sim/fault.hpp). An empty plan (the
  /// default) is bit-identical to the pre-fault engine and costs one
  /// predictable branch on the hot paths.
  FaultPlan faults{};
  /// Intra-node shared-memory hierarchy (sim/network.hpp). The disabled
  /// default is bit-identical to the flat engine.
  HierarchySpec hierarchy{};

  bool payload_enabled() const noexcept {
    return payload == PayloadMode::kVerify;
  }
};

/// Non-owning reference to a callable `RankTask(int rank)` factory. Avoids
/// materialising a std::function (and its possible heap allocation) per
/// run() call; the referenced callable must outlive the run() invocation.
class RankFactoryRef {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, RankFactoryRef>)
  RankFactoryRef(const F& f)  // NOLINT(google-explicit-constructor)
      : object_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* object, int rank) {
          return (*static_cast<const F*>(object))(rank);
        }) {}

  RankTask operator()(int rank) const { return call_(object_, rank); }

 private:
  void* object_;
  RankTask (*call_)(void*, int);
};

/// Discrete-event engine. Construct (or reset()) per collective/application
/// invocation, call run() with a program factory, then read elapsed times.
class Engine {
 public:
  Engine(const ClusterSpec& cluster, Topology topo, SimOptions opts = {});

  /// Rewind for the next invocation: same semantics as constructing a fresh
  /// Engine(cluster, topo, opts), but every internal buffer keeps its
  /// capacity. Steady-state reuse performs no heap allocations.
  void reset(const ClusterSpec& cluster, Topology topo, SimOptions opts = {});

  /// Capacity hint from the caller's known message count: pre-sizes request,
  /// wait, and event storage so the first run() grows no vectors.
  void reserve(std::size_t expected_requests);

  int world_size() const noexcept { return topo_.world_size(); }
  const Topology& topology() const noexcept { return topo_; }
  const NetworkModel& model() const noexcept { return model_; }
  const SimOptions& options() const noexcept { return opts_; }

  /// Run `factory(rank)` as rank programs for all ranks to completion.
  /// Throws SimError on deadlock; rethrows the first rank exception.
  void run(RankFactoryRef factory);

  /// Latest rank clock after run(): the collective completion time (s).
  double elapsed() const;

  /// Per-rank completion times.
  const std::vector<double>& rank_clocks() const noexcept { return now_; }

  /// Requests posted by the last run() (one per isend/irecv).
  std::size_t posted_requests() const noexcept { return requests_.size(); }

  /// Per-rank reusable staging buffer for collective schedules (two slots
  /// per rank). Capacity persists across reset(), so a steady-state
  /// schedule that stages through scratch performs no heap allocations.
  /// Contents are unspecified on entry. In PayloadMode::kTimingOnly no
  /// byte is read or written, so every rank shares one buffer per slot.
  std::span<std::byte> scratch(int rank, std::size_t slot, std::size_t bytes);

  // --- Introspection for tests/benchmarks (capacity regression guards) ---

  /// Slots in the open-addressed channel table (power of two, high-water).
  std::size_t channel_table_slots() const noexcept { return channels_.size(); }
  /// Distinct (src, dst, tag) channels touched since the last reset.
  std::size_t channels_in_use() const noexcept { return channel_count_; }
  /// Pending-op nodes ever created (high-water; drained ops are recycled).
  std::size_t pending_pool_capacity() const noexcept { return pool_.size(); }
  /// Events popped by the last run() (always maintained; obs-independent).
  std::uint64_t events_processed() const noexcept { return stat_events_; }
  /// Channel-table probe steps since the last reset.
  std::uint64_t channel_probes() const noexcept { return stat_probes_; }
  /// Channel-table growth episodes since the last reset.
  std::uint64_t channel_resizes() const noexcept { return stat_resizes_; }

  // --- Fault-injection effect counts since the last reset (all zero when
  // the plan is empty); also flushed to `sim.faults.*` obs counters at the
  // end of run() when collection is enabled.

  /// CPU-side charges scaled up for a straggler rank.
  std::uint64_t fault_straggler_charges() const noexcept {
    return stat_fault_straggler_;
  }
  /// Inter-node transfers that ran degraded (slower wire or added latency).
  std::uint64_t fault_degraded_transfers() const noexcept {
    return stat_fault_degraded_;
  }
  /// Transfers stalled past the end of a NIC flap window.
  std::uint64_t fault_flap_stalls() const noexcept {
    return stat_fault_stalls_;
  }
  /// Delivered payloads with an injected bit flip (PayloadMode::kVerify).
  std::uint64_t fault_corrupted_payloads() const noexcept {
    return stat_fault_corrupted_;
  }

  // --- Interface used by Comm awaitables (not for direct use) ---

  double now(int rank) const { return now_.at(static_cast<std::size_t>(rank)); }
  RequestId post_send(int rank, int dst, std::span<const std::byte> data, int tag);
  RequestId post_recv(int rank, int src, std::span<std::byte> data, int tag);
  bool all_done(std::span<const RequestId> reqs) const;
  /// All requests done: fold their finish times into the rank clock.
  void complete_wait(int rank, std::span<const RequestId> reqs);
  /// Not all done: park `h` until the last request finishes.
  void suspend_wait(int rank, std::span<const RequestId> reqs,
                    std::coroutine_handle<> h);
  /// Advance a rank's clock by a pure-compute interval.
  void local_compute(int rank, double seconds);
  /// Advance a rank's clock by a local copy of `bytes` with `working_set`.
  void local_copy(int rank, std::uint64_t bytes, std::uint64_t working_set);

 private:
  struct WaitState {
    int remaining = 0;
    double ready = 0.0;
    int rank = -1;
    std::coroutine_handle<> handle;
  };

  struct Request {
    int rank = -1;             // posting rank
    bool done = false;
    double finish = 0.0;
    std::int32_t waiter = -1;  // index into waits_, -1 = none
  };

  /// Free-listed pending-operation node. `next` links the node into either
  /// a channel's FIFO queue or the pool free list.
  struct PendingOp {
    RequestId req = 0;
    double post_time = 0.0;
    const std::byte* send_data = nullptr;  // sends only
    std::byte* recv_data = nullptr;        // recvs only
    std::size_t bytes = 0;
    std::int32_t next = -1;
    /// Eager sends buffer their payload at post time (the sender may reuse
    /// its buffer immediately, as real MPI eager protocols allow). Unused —
    /// and unallocated — on the PayloadMode::kTimingOnly path; recycled
    /// nodes keep their capacity.
    std::vector<std::byte> buffered;
  };

  /// One (src, dst, tag) match point: FIFO queues of pending sends and
  /// recvs as head/tail indices into the node pool. Lives in a flat
  /// open-addressed table (linear probing, power-of-two sizing).
  struct Channel {
    std::uint64_t key = kEmptyKey;
    std::int32_t send_head = -1;
    std::int32_t send_tail = -1;
    std::int32_t recv_head = -1;
    std::int32_t recv_tail = -1;
  };

  struct Event {
    double time = 0.0;
    std::uint64_t seq = 0;
    std::coroutine_handle<> handle;
    int rank = -1;
    double clock = 0.0;  // rank clock to set on resume

    bool operator>(const Event& other) const noexcept {
      return time != other.time ? time > other.time : seq > other.seq;
    }
  };

  /// A resolved NIC flap window, sorted by (start, node) so a forward scan
  /// in flap_stall() visits candidate windows in stall order.
  struct FlapWindow {
    double start = 0.0;
    double end = 0.0;
    int node = -1;
  };

  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};
  static constexpr int kMaxTag = (1 << 16) - 1;
  static constexpr int kMaxChannelRank = (1 << 24) - 1;

  /// Pack (src, dst, tag) into the 24/24/16-bit channel key. Throws
  /// SimError when a component exceeds its field (a silent wrap would alias
  /// another channel and corrupt matching).
  static std::uint64_t channel_key(int src, int dst, int tag);

  void check_rank(int rank) const;
  Channel& channel_for(std::uint64_t key);
  void grow_channels(std::size_t capacity);
  std::size_t probe(std::uint64_t key) const noexcept;
  std::int32_t acquire_node();
  void release_node(std::int32_t index) noexcept;
  void try_match(Channel& channel, int src, int dst);
  void complete_transfer(int src, int dst, const PendingOp& send,
                         const PendingOp& recv);
  void request_finished(RequestId id, double finish);
  void schedule(double time, int rank, double clock, std::coroutine_handle<> h);

  /// Resolve opts_.faults into the flat per-rank/per-node tables below.
  /// Called from the constructor and reset(); validates the plan (throws
  /// ConfigError) only when it is non-empty.
  void resolve_faults();
  /// Scale a CPU-side charge by the rank's straggler factor. Only called
  /// when faults_active_.
  double straggle(int rank, double seconds) noexcept;
  /// Push an inter-node transfer start time past every flap window covering
  /// it on either endpoint's node. Only called when faults_active_.
  double flap_stall(std::size_t src_node, std::size_t dst_node,
                    double start) noexcept;

  ClusterSpec cluster_;
  Topology topo_;
  NetworkModel model_;
  SimOptions opts_;
  Rng rng_;

  std::vector<double> now_;
  std::vector<double> nic_tx_free_;
  std::vector<double> nic_rx_free_;

  std::vector<Request> requests_;
  std::vector<WaitState> waits_;  // Request::waiter holds indices: stable
                                  // across growth, reusable across reset()
  std::vector<Channel> channels_;
  std::size_t channel_count_ = 0;
  std::vector<PendingOp> pool_;
  std::int32_t pool_free_ = -1;

  std::vector<Event> events_;  // binary min-heap (std::push_heap/pop_heap)
  // rank * 2 + slot (slot alone when timing-only); survives reset()
  std::vector<std::vector<std::byte>> scratch_;
  std::vector<std::vector<std::byte>> scratch_retired_;  // until reset()
  std::uint64_t next_seq_ = 0;
  // Cheap always-on statistics (plain increments on members the hot loop
  // already owns); flushed to obs counters at the end of run() when
  // collection is enabled.
  std::uint64_t stat_events_ = 0;
  mutable std::uint64_t stat_probes_ = 0;  // probe() is logically const
  std::uint64_t stat_resizes_ = 0;
  // Fault-injection state, resolved from opts_.faults by resolve_faults().
  // With an empty plan faults_active_ is false and none of the tables are
  // read; every hot-path hook is behind that one branch.
  bool faults_active_ = false;
  std::vector<double> straggler_scale_;   // per rank, 1.0 = nominal
  std::vector<double> node_bw_scale_;     // per node, fraction of NIC bw
  std::vector<double> node_extra_alpha_;  // per node, added latency (s)
  std::vector<FlapWindow> flap_windows_;  // sorted by (start, node)
  std::uint64_t fault_transfer_seq_ = 0;  // corruption-draw ordinal
  std::uint64_t stat_fault_straggler_ = 0;
  std::uint64_t stat_fault_degraded_ = 0;
  std::uint64_t stat_fault_stalls_ = 0;
  std::uint64_t stat_fault_corrupted_ = 0;
  int completed_ranks_ = 0;
  /// First exception captured by a completed top-level task (set by the
  /// FinalAwaiter completion hook, rethrown by the run() event loop).
  std::exception_ptr pending_exception_;
  std::vector<RankTask> tasks_;
  bool ran_ = false;
};

}  // namespace pml::sim
