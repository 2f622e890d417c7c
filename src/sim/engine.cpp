#include "sim/engine.hpp"

#include <algorithm>
#include <cstring>
#include <new>
#include <string>
#include <utility>

#include "obs/obs.hpp"

namespace pml::sim {

// ---- coroutine frame pool ---------------------------------------------------

namespace detail {

namespace {

/// Size-bucketed free lists of coroutine frames. A rank program has a small
/// number of distinct frame sizes, so a linear bucket scan is cheap. Each
/// block stores its size in a max_align_t-sized header. thread_local and
/// touched only by its own thread's engine runs, so its destruction at
/// thread exit (pool workers included) is order-independent.
struct FramePool {
  struct Bucket {
    std::size_t size = 0;
    std::vector<void*> free;
  };
  std::vector<Bucket> buckets;

  ~FramePool() {
    for (Bucket& bucket : buckets) {
      for (void* block : bucket.free) ::operator delete(block);
    }
  }
};

constexpr std::size_t kFrameHeader = alignof(std::max_align_t);

FramePool& frame_pool() {
  thread_local FramePool pool;
  return pool;
}

}  // namespace

void warm_frame_pool() { frame_pool(); }

void* frame_alloc(std::size_t size) {
  FramePool& pool = frame_pool();
  for (FramePool::Bucket& bucket : pool.buckets) {
    if (bucket.size == size && !bucket.free.empty()) {
      void* block = bucket.free.back();
      bucket.free.pop_back();
      return static_cast<std::byte*>(block) + kFrameHeader;
    }
  }
  void* block = ::operator new(size + kFrameHeader);
  *static_cast<std::size_t*>(block) = size;
  return static_cast<std::byte*>(block) + kFrameHeader;
}

void frame_free(void* p) noexcept {
  void* block = static_cast<std::byte*>(p) - kFrameHeader;
  const std::size_t size = *static_cast<std::size_t*>(block);
  FramePool& pool = frame_pool();
  try {
    for (FramePool::Bucket& bucket : pool.buckets) {
      if (bucket.size == size) {
        bucket.free.push_back(block);
        return;
      }
    }
    pool.buckets.push_back(FramePool::Bucket{size, {block}});
  } catch (...) {
    ::operator delete(block);  // caching is best-effort; freeing never fails
  }
}

}  // namespace detail

// ---- engine -----------------------------------------------------------------

Engine::Engine(const ClusterSpec& cluster, Topology topo, SimOptions opts)
    : cluster_(cluster),
      topo_(topo),
      model_(cluster, topo, opts.hierarchy),
      opts_(opts),
      rng_(opts.seed),
      now_(static_cast<std::size_t>(topo.world_size()), 0.0),
      nic_tx_free_(static_cast<std::size_t>(topo.nodes), 0.0),
      nic_rx_free_(static_cast<std::size_t>(topo.nodes), 0.0) {
  // Pin the thread-local coroutine frame pool so it is constructed before —
  // and therefore destroyed after — any thread-storage-duration object that
  // holds this Engine (and through it, live coroutine frames).
  detail::warm_frame_pool();
  resolve_faults();
}

void Engine::reset(const ClusterSpec& cluster, Topology topo, SimOptions opts) {
  // Assignments reuse existing string/vector capacity; steady-state resets
  // with same-shaped inputs perform no heap allocations.
  cluster_ = cluster;
  topo_ = topo;
  model_ = NetworkModel(cluster, topo, opts.hierarchy);
  opts_ = opts;
  rng_ = Rng(opts.seed);
  now_.assign(static_cast<std::size_t>(topo.world_size()), 0.0);
  nic_tx_free_.assign(static_cast<std::size_t>(topo.nodes), 0.0);
  nic_rx_free_.assign(static_cast<std::size_t>(topo.nodes), 0.0);

  requests_.clear();
  waits_.clear();
  std::fill(channels_.begin(), channels_.end(), Channel{});
  channel_count_ = 0;
  // Re-thread the whole pool onto the free list; nodes keep their buffered
  // capacity for the next invocation's eager sends.
  pool_free_ = pool_.empty() ? -1 : 0;
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    pool_[i].next =
        i + 1 < pool_.size() ? static_cast<std::int32_t>(i + 1) : -1;
    pool_[i].buffered.clear();
  }
  events_.clear();
  scratch_retired_.clear();
  next_seq_ = 0;
  stat_events_ = 0;
  stat_probes_ = 0;
  stat_resizes_ = 0;
  completed_ranks_ = 0;
  pending_exception_ = nullptr;
  tasks_.clear();
  ran_ = false;
  resolve_faults();
}

void Engine::resolve_faults() {
  const FaultPlan& plan = opts_.faults;
  fault_transfer_seq_ = 0;
  stat_fault_straggler_ = 0;
  stat_fault_degraded_ = 0;
  stat_fault_stalls_ = 0;
  stat_fault_corrupted_ = 0;
  faults_active_ = !plan.empty();
  if (!faults_active_) {
    // The disabled path never reads the tables, so leaving stale contents
    // in place keeps steady-state reset() allocation-free.
    flap_windows_.clear();
    return;
  }
  plan.validate(topo_.nodes, topo_.world_size());
  straggler_scale_.assign(static_cast<std::size_t>(topo_.world_size()), 1.0);
  for (const Straggler& s : plan.stragglers) {
    straggler_scale_[static_cast<std::size_t>(s.rank)] *= s.slowdown;
  }
  node_bw_scale_.assign(static_cast<std::size_t>(topo_.nodes), 1.0);
  node_extra_alpha_.assign(static_cast<std::size_t>(topo_.nodes), 0.0);
  for (const LinkDegradation& d : plan.link_degradations) {
    node_bw_scale_[static_cast<std::size_t>(d.node)] *= d.bandwidth_factor;
    node_extra_alpha_[static_cast<std::size_t>(d.node)] += d.extra_latency;
  }
  flap_windows_.clear();
  for (const NicFlap& f : plan.flaps) {
    flap_windows_.push_back(FlapWindow{f.start, f.start + f.duration, f.node});
  }
  std::sort(flap_windows_.begin(), flap_windows_.end(),
            [](const FlapWindow& a, const FlapWindow& b) {
              return a.start != b.start ? a.start < b.start : a.node < b.node;
            });
}

double Engine::straggle(int rank, double seconds) noexcept {
  const double scale = straggler_scale_[static_cast<std::size_t>(rank)];
  if (scale == 1.0) return seconds;
  ++stat_fault_straggler_;
  return seconds * scale;
}

double Engine::flap_stall(std::size_t src_node, std::size_t dst_node,
                          double start) noexcept {
  // Windows are sorted by start. If `start` precedes a window it precedes
  // every later one too, and `start` only moves forward — so one forward
  // scan visits every window that can stall this transfer.
  for (const FlapWindow& w : flap_windows_) {
    if (start < w.start) break;
    if (start >= w.end) continue;
    const auto node = static_cast<std::size_t>(w.node);
    if (node != src_node && node != dst_node) continue;
    start = w.end;  // NIC is down: the queued transfer waits the window out
    ++stat_fault_stalls_;
  }
  return start;
}

std::span<std::byte> Engine::scratch(int rank, std::size_t slot,
                                     std::size_t bytes) {
  check_rank(rank);
  if (slot >= kScratchSlots) throw SimError("scratch slot out of range");
  // Timing-only schedules never read or write payload bytes, so every rank
  // and slot shares one arena: per-rank buffers would cost world_size
  // times the memory for nothing.
  const bool shared = !opts_.payload_enabled();
  const std::size_t idx =
      shared ? 0 : static_cast<std::size_t>(rank) * kScratchSlots + slot;
  if (idx >= scratch_.size()) {
    scratch_.resize(static_cast<std::size_t>(topo_.world_size()) *
                    kScratchSlots);
  }
  ScratchBuffer& buf = scratch_[idx];
  if (buf.bytes < bytes) {
    // Other ranks may still hold spans into the shared arena: keep it
    // alive until reset() instead of freeing it under them.
    if (shared && buf.data) scratch_retired_.push_back(std::move(buf.data));
    // Uninitialised, so pages no byte is written to stay unbacked.
    buf = {std::make_unique_for_overwrite<std::byte[]>(bytes), bytes};
  }
  return {buf.data.get(), bytes};
}

std::vector<RequestId>& Engine::request_list(int rank) {
  check_rank(rank);
  if (request_lists_.size() < now_.size()) request_lists_.resize(now_.size());
  std::vector<RequestId>& list = request_lists_[static_cast<std::size_t>(rank)];
  list.clear();
  return list;
}

std::uint64_t Engine::channel_key(int src, int dst, int tag) {
  if (tag < 0 || tag > kMaxTag) {
    throw SimError("message tag " + std::to_string(tag) +
                   " out of channel-key range [0, " +
                   std::to_string(kMaxTag + 1) + ")");
  }
  if (src < 0 || src > kMaxChannelRank || dst < 0 || dst > kMaxChannelRank) {
    throw SimError("rank out of channel-key range [0, 2^24): src " +
                   std::to_string(src) + ", dst " + std::to_string(dst));
  }
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 40) |
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst)) << 16) |
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag));
  if (key == kEmptyKey) {
    // Only reachable at the 16M-rank/65535-tag corner; reserved as the
    // open-addressed table's empty-slot sentinel.
    throw SimError("channel key reserved for internal use");
  }
  return key;
}

void Engine::check_rank(int rank) const {
  if (rank < 0 || rank >= topo_.world_size()) {
    throw SimError("rank " + std::to_string(rank) + " out of range [0, " +
                   std::to_string(topo_.world_size()) + ")");
  }
}

std::size_t Engine::probe(std::uint64_t key) const noexcept {
  const std::size_t mask = channels_.size() - 1;
  // splitmix64-style finalizer scatters the structured key bits.
  std::uint64_t h = key;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= h >> 31;
  std::size_t i = static_cast<std::size_t>(h) & mask;
  ++stat_probes_;
  while (channels_[i].key != kEmptyKey && channels_[i].key != key) {
    i = (i + 1) & mask;
    ++stat_probes_;
  }
  return i;
}

void Engine::grow_channels(std::size_t capacity) {
  ++stat_resizes_;
  std::vector<Channel> old = std::move(channels_);
  channels_.assign(capacity, Channel{});
  channel_count_ = 0;
  for (const Channel& channel : old) {
    if (channel.key == kEmptyKey) continue;
    channels_[probe(channel.key)] = channel;
    ++channel_count_;
  }
}

Engine::Channel& Engine::channel_for(std::uint64_t key) {
  // Grow at 3/4 load to keep probe sequences short.
  if ((channel_count_ + 1) * 4 > channels_.size() * 3) {
    grow_channels(std::max<std::size_t>(64, channels_.size() * 2));
  }
  Channel& channel = channels_[probe(key)];
  if (channel.key == kEmptyKey) {
    channel.key = key;
    ++channel_count_;
  }
  return channel;
}

std::int32_t Engine::acquire_node() {
  if (pool_free_ >= 0) {
    const std::int32_t index = pool_free_;
    pool_free_ = pool_[static_cast<std::size_t>(index)].next;
    return index;
  }
  pool_.emplace_back();
  return static_cast<std::int32_t>(pool_.size() - 1);
}

void Engine::release_node(std::int32_t index) noexcept {
  PendingOp& op = pool_[static_cast<std::size_t>(index)];
  op.send_data = nullptr;
  op.recv_data = nullptr;
  op.buffered.clear();  // keep capacity for reuse
  op.next = pool_free_;
  pool_free_ = index;
}

void Engine::schedule(double time, int rank, double clock,
                      std::coroutine_handle<> h) {
  events_.push_back(Event{time, next_seq_++, h, rank, clock});
  std::push_heap(events_.begin(), events_.end(), std::greater<Event>{});
}

RequestId Engine::post_send(int rank, int dst, std::span<const std::byte> data,
                            int tag) {
  check_rank(rank);
  check_rank(dst);
  auto& clock = now_[static_cast<std::size_t>(rank)];
  double overhead = model_.per_message_overhead();
  if (faults_active_) overhead = straggle(rank, overhead);
  clock += overhead;

  const auto id = static_cast<RequestId>(requests_.size());
  requests_.push_back(Request{rank, false, 0.0, -1});

  const std::uint64_t key = channel_key(rank, dst, tag);
  const std::int32_t node = acquire_node();
  PendingOp& op = pool_[static_cast<std::size_t>(node)];
  op.req = id;
  op.post_time = clock;
  op.send_data = data.data();
  op.recv_data = nullptr;
  op.bytes = data.size();
  op.next = -1;
  if (data.size() <= kEagerThreshold) {
    // Eager protocol: the payload is copied to a bounce buffer and the send
    // completes immediately; the sender may reuse its buffer right away.
    // The matched transfer below still sets the receive timing. Timing-only
    // mode skips the copy: the bounce time is charged regardless.
    if (opts_.payload_enabled() && !data.empty()) {
      op.buffered.assign(data.begin(), data.end());
      op.send_data = op.buffered.data();
    }
    double bounce = model_.memcpy_time(data.size(), data.size());
    if (faults_active_) bounce = straggle(rank, bounce);
    request_finished(id, clock + bounce);
  }
  Channel& channel = channel_for(key);
  if (channel.send_tail >= 0) {
    pool_[static_cast<std::size_t>(channel.send_tail)].next = node;
  } else {
    channel.send_head = node;
  }
  channel.send_tail = node;
  try_match(channel, rank, dst);
  return id;
}

RequestId Engine::post_recv(int rank, int src, std::span<std::byte> data,
                            int tag) {
  check_rank(rank);
  check_rank(src);
  auto& clock = now_[static_cast<std::size_t>(rank)];
  double overhead = model_.per_message_overhead();
  if (faults_active_) overhead = straggle(rank, overhead);
  clock += overhead;

  const auto id = static_cast<RequestId>(requests_.size());
  requests_.push_back(Request{rank, false, 0.0, -1});

  const std::uint64_t key = channel_key(src, rank, tag);
  const std::int32_t node = acquire_node();
  PendingOp& op = pool_[static_cast<std::size_t>(node)];
  op.req = id;
  op.post_time = clock;
  op.send_data = nullptr;
  op.recv_data = data.data();
  op.bytes = data.size();
  op.next = -1;
  Channel& channel = channel_for(key);
  if (channel.recv_tail >= 0) {
    pool_[static_cast<std::size_t>(channel.recv_tail)].next = node;
  } else {
    channel.recv_head = node;
  }
  channel.recv_tail = node;
  try_match(channel, src, rank);
  return id;
}

void Engine::try_match(Channel& channel, int src, int dst) {
  while (channel.send_head >= 0 && channel.recv_head >= 0) {
    const std::int32_t send = channel.send_head;
    const std::int32_t recv = channel.recv_head;
    channel.send_head = pool_[static_cast<std::size_t>(send)].next;
    if (channel.send_head < 0) channel.send_tail = -1;
    channel.recv_head = pool_[static_cast<std::size_t>(recv)].next;
    if (channel.recv_head < 0) channel.recv_tail = -1;
    // complete_transfer posts no new operations, so the pool is stable for
    // the duration of these references.
    complete_transfer(src, dst, pool_[static_cast<std::size_t>(send)],
                      pool_[static_cast<std::size_t>(recv)]);
    release_node(send);
    release_node(recv);
  }
}

void Engine::complete_transfer(int src, int dst, const PendingOp& send,
                               const PendingOp& recv) {
  if (send.bytes != recv.bytes) {
    throw SimError("message size mismatch on channel " + std::to_string(src) +
                   "->" + std::to_string(dst) + ": send " +
                   std::to_string(send.bytes) + "B, recv " +
                   std::to_string(recv.bytes) + "B");
  }
  const double jitter =
      opts_.noise_sigma > 0.0 ? rng_.lognormal_jitter(opts_.noise_sigma) : 1.0;

  double start = std::max(send.post_time, recv.post_time);
  double send_finish = 0.0;
  double recv_finish = 0.0;
  if (model_.internode(src, dst)) {
    const auto src_node = static_cast<std::size_t>(topo_.node_of(src));
    const auto dst_node = static_cast<std::size_t>(topo_.node_of(dst));
    auto& tx = nic_tx_free_[src_node];
    auto& rx = nic_rx_free_[dst_node];
    start = std::max({start, tx, rx});
    double occupancy = model_.wire_time(send.bytes) * jitter;
    double latency = model_.inter_alpha() * jitter;
    if (faults_active_) {
      start = flap_stall(src_node, dst_node, start);
      // A degraded endpoint slows the whole transfer: the wire runs at the
      // slower endpoint's bandwidth scale and both latency penalties apply.
      const double bw = std::min(node_bw_scale_[src_node],
                                 node_bw_scale_[dst_node]);
      const double extra =
          node_extra_alpha_[src_node] + node_extra_alpha_[dst_node];
      if (bw != 1.0 || extra != 0.0) ++stat_fault_degraded_;
      if (bw != 1.0) occupancy = model_.wire_time(send.bytes, bw) * jitter;
      latency += extra;
    }
    tx = start + occupancy;
    rx = start + occupancy;
    // The sender's nonblocking op completes once the NIC has drained its
    // buffer; the receiver additionally waits out the wire latency.
    send_finish = start + occupancy;
    recv_finish = start + occupancy + latency;
  } else {
    // intra_time reproduces the flat expression bit-identically when the
    // hierarchy is disabled, and the socket/NUMA-aware levels otherwise.
    const double duration = model_.intra_time(send.bytes, src, dst) * jitter;
    send_finish = start + duration;
    recv_finish = start + duration;
  }

  if (opts_.payload_enabled() && send.bytes > 0) {
    std::memcpy(recv.recv_data, send.send_data, send.bytes);
  }
  if (faults_active_) {
    // The ordinal advances for every matched transfer so draws depend only
    // on the transfer's identity, not on which fault knobs are set.
    const std::uint64_t ordinal = fault_transfer_seq_++;
    const double prob = opts_.faults.corruption.probability;
    if (prob > 0.0 && opts_.payload_enabled() && send.bytes > 0) {
      const std::uint64_t draw =
          fault_draw(opts_.faults.seed, ordinal, src, dst);
      if (static_cast<double>(draw >> 11) * 0x1.0p-53 < prob) {
        // Flip one deterministic payload bit. Timings are untouched, so
        // kVerify's verification pass is what surfaces the damage.
        std::uint64_t h = draw;
        const std::uint64_t bit =
            splitmix64(h) % (static_cast<std::uint64_t>(send.bytes) * 8);
        recv.recv_data[bit / 8] ^= std::byte{1} << static_cast<int>(bit % 8);
        ++stat_fault_corrupted_;
      }
    }
  }
  if (!requests_[send.req].done) {  // rendezvous sends finish on NIC drain
    request_finished(send.req, send_finish);
  }
  request_finished(recv.req, recv_finish);
}

void Engine::request_finished(RequestId id, double finish) {
  Request& req = requests_[id];
  req.done = true;
  req.finish = finish;
  if (req.waiter >= 0) {
    WaitState& w = waits_[static_cast<std::size_t>(req.waiter)];
    w.ready = std::max(w.ready, finish);
    if (--w.remaining == 0) {
      schedule(w.ready, w.rank, w.ready, w.handle);
    }
  }
}

bool Engine::all_done(std::span<const RequestId> reqs) const {
  return std::all_of(reqs.begin(), reqs.end(),
                     [&](RequestId id) { return requests_[id].done; });
}

void Engine::complete_wait(int rank, std::span<const RequestId> reqs) {
  auto& clock = now_[static_cast<std::size_t>(rank)];
  for (const RequestId id : reqs) {
    clock = std::max(clock, requests_[id].finish);
  }
}

void Engine::suspend_wait(int rank, std::span<const RequestId> reqs,
                          std::coroutine_handle<> h) {
  const auto index = static_cast<std::int32_t>(waits_.size());
  waits_.push_back(
      WaitState{0, now_[static_cast<std::size_t>(rank)], rank, h});
  WaitState& w = waits_.back();
  for (const RequestId id : reqs) {
    Request& req = requests_[id];
    if (req.done) {
      w.ready = std::max(w.ready, req.finish);
    } else {
      if (req.waiter != -1) {
        throw SimError("request waited on twice");
      }
      req.waiter = index;
      ++w.remaining;
    }
  }
  if (w.remaining == 0) {
    // Everything finished between the ready check and the suspension:
    // resume immediately at the fold of the finish times.
    schedule(w.ready, rank, w.ready, h);
  }
}

void Engine::local_compute(int rank, double seconds) {
  check_rank(rank);
  if (seconds < 0.0) throw SimError("negative compute interval");
  if (faults_active_) seconds = straggle(rank, seconds);
  now_[static_cast<std::size_t>(rank)] += seconds;
}

void Engine::local_copy(int rank, std::uint64_t bytes,
                        std::uint64_t working_set) {
  check_rank(rank);
  double seconds = model_.memcpy_time(bytes, working_set);
  if (faults_active_) seconds = straggle(rank, seconds);
  now_[static_cast<std::size_t>(rank)] += seconds;
}

void Engine::run(RankFactoryRef factory) {
  if (ran_) {
    throw SimError(
        "Engine::run called twice; reset() or construct a new Engine");
  }
  ran_ = true;

  const int p = topo_.world_size();
  tasks_.reserve(static_cast<std::size_t>(p));
  for (int rank = 0; rank < p; ++rank) {
    tasks_.push_back(factory(rank));
    // Top-level completion is observed through the promise hook rather than
    // by inspecting resumed handles: with composed (nested) RankTasks the
    // handle an event resumes is not necessarily the rank's root frame, and
    // a root may complete via symmetric transfer from a child.
    auto handle = tasks_.back().handle();
    auto& promise = handle.promise();
    promise.on_complete_arg = this;
    promise.on_complete = [](void* arg, RankTask::promise_type& done) {
      auto* self = static_cast<Engine*>(arg);
      ++self->completed_ranks_;
      if (done.exception && !self->pending_exception_) {
        self->pending_exception_ = done.exception;
      }
    };
    schedule(0.0, rank, 0.0, handle);
  }

  while (!events_.empty()) {
    std::pop_heap(events_.begin(), events_.end(), std::greater<Event>{});
    const Event ev = events_.back();
    events_.pop_back();
    ++stat_events_;
    auto& clock = now_[static_cast<std::size_t>(ev.rank)];
    clock = std::max(clock, ev.clock);
    ev.handle.resume();
    if (pending_exception_) {
      std::rethrow_exception(
          std::exchange(pending_exception_, std::exception_ptr{}));
    }
  }

  if (completed_ranks_ != p) {
    std::string stuck;
    for (int rank = 0; rank < p; ++rank) {
      if (!tasks_[static_cast<std::size_t>(rank)].handle().done()) {
        if (!stuck.empty()) stuck += ", ";
        stuck += std::to_string(rank);
        if (stuck.size() > 60) {
          stuck += ", ...";
          break;
        }
      }
    }
    throw SimError("deadlock: ranks {" + stuck + "} never completed");
  }

  if (obs::enabled()) {
    // Stats are maintained unconditionally (plain member increments on
    // hot-loop-owned cache lines); only the flush is gated.
    static obs::Counter events("sim.events_processed");
    static obs::Counter probes("sim.channel_probes");
    static obs::Counter resizes("sim.channel_resizes");
    static obs::Gauge pool_high_water("sim.pending_pool_high_water");
    events.add(stat_events_);
    probes.add(stat_probes_);
    resizes.add(stat_resizes_);
    pool_high_water.set(static_cast<std::int64_t>(pool_.size()));
    if (faults_active_) {
      static obs::Counter fault_straggler("sim.faults.straggler_charges");
      static obs::Counter fault_degraded("sim.faults.degraded_transfers");
      static obs::Counter fault_stalls("sim.faults.flap_stalls");
      static obs::Counter fault_corrupted("sim.faults.corrupted_payloads");
      fault_straggler.add(stat_fault_straggler_);
      fault_degraded.add(stat_fault_degraded_);
      fault_stalls.add(stat_fault_stalls_);
      fault_corrupted.add(stat_fault_corrupted_);
    }
  }
}

double Engine::elapsed() const {
  return *std::max_element(now_.begin(), now_.end());
}

}  // namespace pml::sim
