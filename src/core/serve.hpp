// pml::core serve — selector-as-a-service.
//
// A long-running, zero-new-dependency daemon that answers the online
// stage's two query shapes over a newline-delimited JSON protocol
// (docs/API.md, "Serve protocol"):
//
//   {"op":"table",  "cluster":...}                          -> tuning table
//   {"op":"select", "cluster":..., "collective":"allgather",
//    "nodes":8, "ppn":4, "msg_bytes":65536}                 -> one algorithm
//
// plus "ping", "stats", and "health" for health checks. One engine
// instance serves any number of transport threads (stdio pipe, TCP
// connections): all shared state is behind a sharded LRU cache of
// compiled tuning tables keyed by (model artifact checksum, cluster
// hardware fingerprint, resolved sweep grids), so a redeployed model or
// a respec'd cluster can never be answered from a stale table.
//
// Cache misses never block the reply (unless the client asks to "wait"):
// a recompile is posted to ThreadPool::shared(). The compile job
// re-hashes the model artifact while it compiles speculatively on the
// model it last served, and its sweep of cells fans out over whichever
// pool workers are idle (nested parallel_for, see common/parallel.hpp).
// The miss is answered immediately one rung down the degradation
// ladder: direct model inference for "select" (one scalar
// PmlFramework::select on the request thread, lock-free against the
// shared framework), HeuristicSelector for "table". Heuristic answers are
// marked "degraded" and are never cached, and each one bumps the
// online.fallback.heuristic counter.
//
// The stack is overload-safe by construction (docs/API.md, "Serve
// protocol > Limits"): the engine sheds misses past a bounded pending-
// compile queue straight to the heuristic rung (source:"shed"), runs a
// circuit breaker around model recompiles so a compile that keeps throwing
// stops burning compile threads (a missing or corrupt artifact is no such
// failure: its compile job re-reads the file, finds no model and counts as
// a success), honors per-request "deadline_ms" on waited recompiles, and
// can drain gracefully. The TCP transport bounds per-connection line
// buffers, caps concurrent connections, and evicts slow-loris/idle peers
// on a read deadline — every rejection is a structured one-line error,
// never a silent drop.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/artifact.hpp"
#include "core/framework.hpp"
#include "obs/obs.hpp"

namespace pml::core {

namespace detail {
struct SelectQuery;  // serve_internal.hpp
}  // namespace detail

struct ServeOptions {
  /// Model bundle path (pml-artifact-v1 "model" envelope or legacy
  /// bundle). Empty, unreadable, or corrupt => the engine starts in (or
  /// degrades to) heuristic-only serving instead of failing; every
  /// compile attempt re-reads the file, so replacing or repairing the
  /// artifact on disk is picked up without a restart.
  std::string model_path;
  /// LRU shards (>= 1). More shards = less lock contention across
  /// transport threads; keys spread by FNV-1a hash.
  int shards = 4;
  /// Compiled tables kept per shard (>= 1).
  std::size_t shard_capacity = 8;
  /// Base compile options for cache-miss recompiles: sweep grid defaults
  /// (empty axes = the target cluster's own grid) and sweep threads.
  CompileOptions compile;
  /// When false, cache misses compile synchronously on the request
  /// thread (deterministic tests); the reply still reports its rung.
  bool async_compile = true;

  // --- Transport limits (TcpServer) ---

  /// Longest request line (bytes, newline excluded) a connection may
  /// send. A connection whose unterminated buffer grows past this gets
  /// a structured error reply and is closed, so a never-newline byte
  /// flood cannot grow server memory.
  std::size_t max_line_bytes = 1 << 20;
  /// Hard cap on concurrent TCP connections. Excess accepts receive a
  /// single {"ok":false,"error":"overloaded",...} line and are closed.
  int max_connections = 256;
  /// Socket read deadline (SO_RCVTIMEO) and per-line completion
  /// deadline in one: a connection that sends nothing for this long, or
  /// drip-feeds bytes without ever completing a line (slow loris), is
  /// sent a structured error and evicted. 0 disables both deadlines.
  int read_timeout_ms = 30'000;

  // --- Engine admission control ---

  /// Max concurrently pending recompiles (>= 1). A miss that would push
  /// the pending-compile count past this is shed: answered immediately
  /// from the heuristic rung (source:"shed", degraded:true) instead of
  /// queueing without bound. Joining an already-pending compile for the
  /// same key adds no queue pressure and is never shed.
  int queue_limit = 32;
  /// Circuit breaker over model recompiles: `failure_threshold`
  /// consecutive compile failures (compiles that throw) stop compile
  /// attempts for a bounded-exponential backoff window (misses answer from
  /// the heuristic rung immediately), then a single half-open probe
  /// restores service.
  BreakerPolicy breaker;
  /// Chaos/test hook: when set, invoked at the top of every compile
  /// attempt (before model revalidation). Tests make it throw or block
  /// to script compile failures and slow compiles deterministically.
  std::function<void()> compile_fault;

  /// Throws pml::ConfigError on non-positive shards/capacity/limits or
  /// an invalid compile sweep.
  void validate() const;
};

/// One cached compile result: the table plus its pre-serialized compact
/// JSON, so "table" replies are built once and byte-stable across
/// requests, shards, and runs (lookup tie-breaks are deterministic too;
/// see TuningTable::lookup).
struct ServedTable {
  ServedTable() = default;
  /// Serializes `compiled`.
  explicit ServedTable(TuningTable compiled);

  TuningTable table;
  std::string json;
};

/// Sharded LRU map: cache key -> immutable ServedTable. Each shard has
/// its own mutex and LRU list; entries are shared_ptr so a hit can be
/// used lock-free after the (brief) shard lock drops, even if the entry
/// is evicted concurrently.
class ServeCache {
 public:
  ServeCache(int shards, std::size_t shard_capacity);

  ServeCache(const ServeCache&) = delete;
  ServeCache& operator=(const ServeCache&) = delete;

  /// nullptr on miss; refreshes LRU order on hit.
  std::shared_ptr<const ServedTable> get(const std::string& key);

  /// Insert (or replace) an entry, evicting the shard's least recently
  /// used entry when over capacity.
  void put(const std::string& key, std::shared_ptr<const ServedTable> entry);

  /// Total entries across shards (point-in-time; shards are sampled one
  /// at a time).
  std::size_t size() const;

 private:
  struct Shard {
    mutable std::mutex mutex;
    /// Front = most recently used.
    std::list<std::string> lru;
    std::unordered_map<std::string,
                       std::pair<std::list<std::string>::iterator,
                                 std::shared_ptr<const ServedTable>>>
        entries;
  };

  Shard& shard_for(const std::string& key);

  std::vector<Shard> shards_;
  std::size_t capacity_;
};

/// Owns the loaded model and its identity. The identity is the XXH64 of
/// the artifact's file bytes: cache keys embed it, so a model redeploy
/// (new bytes) naturally invalidates every cached table without an
/// explicit flush. revalidate() streams the whole file through the hash
/// and reloads only when the bytes changed; a now-corrupt artifact drops
/// the engine to heuristic-only serving (the file on disk is the source
/// of truth — the in-memory copy is not kept once it can no longer be
/// vouched for).
///
/// The model and its checksum are published together as one immutable
/// Snapshot, so no reader can pair one model with another's identity: a
/// reload re-reads the file and hashes exactly the bytes it parses.
/// revalidate() reads, hashes and parses without holding any lock; the
/// lock covers only the snapshot pointer, so selects never wait behind a
/// compile's I/O and concurrent revalidations do not queue.
class ModelHost {
 public:
  /// One published model state; never mutated after publication.
  struct Snapshot {
    /// The model, or nullptr while degraded. Safe for concurrent
    /// select()/compile_for() (see framework.hpp).
    std::shared_ptr<PmlFramework> framework;
    /// "xxh64:<16 hex>" over the artifact file bytes (the digest
    /// `xxhsum -H1` prints); "" while degraded.
    std::string checksum;
  };

  /// Lenient: a missing/corrupt artifact logs a warning and starts
  /// degraded instead of throwing. An empty path never loads.
  explicit ModelHost(std::string path);

  bool has_path() const noexcept { return !path_.empty(); }

  /// The current snapshot; never null.
  std::shared_ptr<const Snapshot> snapshot() const;
  /// One field of the current snapshot, without taking a reference to
  /// the snapshot itself (the cached-select path reads only the checksum).
  std::shared_ptr<PmlFramework> framework() const;
  std::string checksum() const;

  /// Re-hash every byte of the artifact; reload if its bytes changed. A
  /// reload ends by handing the heap's free pages back to the system.
  /// Bytes whose load failed are remembered by hash and not read again
  /// while the file still holds them. Returns true when a usable model is
  /// loaded afterwards.
  bool revalidate();

 private:
  /// Publish `next` unless a revalidation that took a later ticket has
  /// already published (or confirmed) its own reading of the file.
  /// Returns whether the published snapshot then holds a model.
  bool publish(std::uint64_t ticket, std::shared_ptr<const Snapshot> next);

  std::string path_;
  /// Handed out before each read, so results publish in read order.
  std::atomic<std::uint64_t> tickets_{0};
  mutable std::mutex mutex_;  ///< guards the three members below
  std::shared_ptr<const Snapshot> snapshot_;
  std::uint64_t published_ticket_ = 0;
  /// XXH64 of the bytes whose load last failed.
  std::optional<std::uint64_t> failed_hash_;
};

/// The transport-independent request handler. Thread-safe: handle_line
/// may be called concurrently from any number of transport threads.
class ServeEngine {
 public:
  explicit ServeEngine(ServeOptions options);
  /// Blocks until in-flight async recompiles finish (they capture
  /// `this`).
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Handle one request line (no trailing newline) and return the reply
  /// line (no trailing newline). Never throws: every failure becomes an
  /// {"ok":false,...} reply carrying the error-taxonomy code and the
  /// exit status `pml <verb>` would have returned for the same failure.
  std::string handle_line(const std::string& line);

  /// Every event the engine counts, one kServeEvents row each. note()
  /// bumps the engine's count and the row's obs counter together, so the
  /// `stats` reply and `--metrics` always agree.
  enum class Event {
    kRequest,
    kCacheHit,
    kCacheMiss,
    kCompile,
    kDegraded,
    kError,
    kShed,
    kDeadlineExpired,
    kCompileFailure,
    kEvicted,     ///< transport: read-deadline evictions
    kOverloaded,  ///< transport: accepts rejected at the cap
    kOverlong,    ///< transport: lines over max_line_bytes
    kCount,
  };
  static constexpr std::size_t kEvents = static_cast<std::size_t>(Event::kCount);
  /// Thread-safe; transports call it for their own rejections so the
  /// stats/health replies report one truth whichever transport saw them.
  void note(Event event);

  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t compiles = 0;
    std::uint64_t degraded = 0;
    std::uint64_t errors = 0;
    std::uint64_t shed = 0;              ///< misses answered via admission shedding
    std::uint64_t deadline_expired = 0;  ///< waited recompiles that hit deadline_ms
    std::uint64_t compile_failures = 0;  ///< recompile attempts that threw
    std::uint64_t evicted = 0;     ///< transport: read-deadline evictions
    std::uint64_t overloaded = 0;  ///< transport: accepts rejected at the cap
    std::uint64_t overlong = 0;    ///< transport: lines over max_line_bytes
  };
  Stats stats() const;

  std::size_t cached_tables() const { return cache_.size(); }
  bool model_loaded() const { return model_.framework() != nullptr; }

  const ServeOptions& options() const noexcept { return options_; }

  /// Stop admitting select/table work: those requests get a structured
  /// "draining" error reply while ping/stats/health keep answering (so
  /// ops can watch the drain finish). One-way; there is no undrain.
  void begin_drain();
  bool draining() const noexcept {
    return draining_.load(std::memory_order_relaxed);
  }

  BreakerState breaker_state() const { return breaker_.state(); }
  /// Pending recompile jobs right now (admitted, not yet finished).
  int queue_depth() const;
  int connections() const noexcept {
    return connections_.load(std::memory_order_relaxed);
  }

  /// Transport hook: the live connection count.
  void add_connection(int delta);

  /// Block until no async recompiles are in flight (tests).
  void drain();

 private:
  struct CompileJob {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    std::shared_ptr<const ServedTable> result;  ///< nullptr on failure
  };

  /// The select body both request readers feed (the single-pass scanner
  /// for plain selects, the Json DOM for the rest).
  std::string handle_select(const detail::SelectQuery& query);
  std::string handle_table(const Json& request);
  std::string handle_stats();
  std::string handle_health();

  /// How admit_compile disposed of a cache miss.
  enum class Admission {
    kAdmitted,     ///< a compile job exists (joined or freshly started),
                   ///< or none could help: the engine has no model path
    kShed,         ///< pending-compile queue full: answer heuristic now
    kBreakerOpen,  ///< compile breaker open: answer heuristic now
  };
  struct AdmitResult {
    std::shared_ptr<CompileJob> job;  ///< null unless kAdmitted
    Admission admission = Admission::kAdmitted;
  };

  /// What probe_cache found for one select/table request.
  struct CacheProbe {
    /// Cached or freshly waited-for table; null when the reply must come
    /// from a lower rung.
    std::shared_ptr<const ServedTable> entry;
    const char* cache = "hit";  ///< "hit", "compiled" or "miss"
    Admission admission = Admission::kAdmitted;
    bool timed_out = false;  ///< a waited compile hit deadline_ms
  };

  /// The one cache lookup of select and table: hit/miss accounting, and
  /// on a miss admit_compile for (`cluster`, `resolved`) plus the optional
  /// "wait" for it (read from `request`; a null request never waits).
  CacheProbe probe_cache(const std::string& key, const Json* request,
                         const sim::ClusterSpec& cluster,
                         const CompileOptions& resolved);

  /// The heuristic rung's accounting (serve.degraded and the batch online
  /// stage's online.fallback.heuristic); returns the reply `source`:
  /// "shed" when admission shed the miss, else "heuristic".
  const char* degrade(Admission admission);

  /// Find-or-start the compile job for `key`, subject to admission
  /// control. Joining an existing job always succeeds (no new queue
  /// pressure); starting a fresh one is shed when the pending-compile
  /// count is at queue_limit and rejected while the breaker is open. At
  /// most one job per key is in flight; duplicates wait on the same job.
  /// An engine without a model path starts none: no compile could
  /// produce a table.
  AdmitResult admit_compile(const std::string& key,
                            const sim::ClusterSpec& cluster,
                            const CompileOptions& resolved);
  void run_compile(const std::shared_ptr<CompileJob>& job,
                   const std::string& requested_key,
                   const sim::ClusterSpec& cluster,
                   const CompileOptions& resolved) noexcept;
  /// Wait for `job`, or for `deadline_ms` milliseconds when >= 0 and
  /// within the steady clock's range (sets `timed_out` and returns
  /// nullptr on expiry); a larger deadline waits unbounded.
  std::shared_ptr<const ServedTable> wait_for(CompileJob& job,
                                              std::int64_t deadline_ms,
                                              bool& timed_out);

  /// handle_select's answer once the cluster and sweep are known.
  std::string select_on(const detail::SelectQuery& query,
                        const std::string& key,
                        const sim::ClusterSpec& cluster,
                        const CompileOptions& resolved);

  /// A builtin cluster under the engine's default sweep: everything a
  /// named select needs but the model checksum, derived once.
  struct NamedCluster {
    const sim::ClusterSpec* cluster;  ///< into sim::builtin_clusters()
    CompileOptions resolved;          ///< options_.compile resolved for it
    std::string key_tail;             ///< the cache key after the checksum
  };

  ServeOptions options_;
  ModelHost model_;
  ServeCache cache_;
  /// One entry per builtin cluster whose sweep resolves, keyed by its
  /// name, built in the constructor and never changed: a named select's
  /// cache key is the model checksum plus an entry's key_tail, with no
  /// lock. A cluster left out takes the general path, to the error
  /// resolving it throws.
  const std::unordered_map<std::string_view, NamedCluster> named_;

  mutable std::mutex jobs_mutex_;
  std::condition_variable idle_cv_;
  std::unordered_map<std::string, std::shared_ptr<CompileJob>> jobs_;
  int in_flight_ = 0;

  CircuitBreaker breaker_;
  std::atomic<bool> draining_{false};
  std::atomic<int> connections_{0};

  /// Indexed by Event; note() is the only writer.
  std::array<std::atomic<std::uint64_t>, kEvents> events_{};
  std::vector<obs::Counter> event_counters_;
};

/// One row per ServeEngine::Event, in enum order (also the `stats` reply's
/// key order): the reply key, the obs counter note() bumps with it, and
/// the Stats field stats() copies it into.
struct ServeEventRow {
  const char* reply_key;
  const char* counter;
  std::uint64_t ServeEngine::Stats::*field;
};

inline constexpr std::array<ServeEventRow, ServeEngine::kEvents> kServeEvents{{
    {"requests", "serve.requests", &ServeEngine::Stats::requests},
    {"cache_hits", "serve.cache.hit", &ServeEngine::Stats::cache_hits},
    {"cache_misses", "serve.cache.miss", &ServeEngine::Stats::cache_misses},
    {"compiles", "serve.compiles", &ServeEngine::Stats::compiles},
    {"degraded", "serve.degraded", &ServeEngine::Stats::degraded},
    {"errors", "serve.errors", &ServeEngine::Stats::errors},
    {"shed", "serve.shed", &ServeEngine::Stats::shed},
    {"deadline_expired", "serve.deadline.expired",
     &ServeEngine::Stats::deadline_expired},
    {"compile_failures", "serve.compile_failed",
     &ServeEngine::Stats::compile_failures},
    {"evicted", "serve.evicted", &ServeEngine::Stats::evicted},
    {"overloaded", "serve.overloaded", &ServeEngine::Stats::overloaded},
    {"overlong", "serve.overlong_line", &ServeEngine::Stats::overlong},
}};

/// One structured {"ok":false,...} error line (no trailing newline) in
/// the engine's reply format, for transports that must reject before a
/// request ever reaches handle_line (overload, oversize, eviction).
std::string serve_error_line(const std::string& what, ErrorCode code);

/// Serve newline-delimited requests from `in` to `out` until EOF (the
/// `pml serve --stdio` transport; also what the protocol round-trip
/// tests drive through a shell pipe). Blank lines are ignored, a trailing
/// '\r' is stripped, and a last line without '\n' is still answered.
/// `in` is read with read(2) on its descriptor; each read's replies are
/// written with one fwrite and one fflush.
void serve_stdio(ServeEngine& engine, std::FILE* in, std::FILE* out);

/// Minimal TCP transport: accepts loopback connections and runs one
/// thread per connection, each feeding lines to the shared engine.
/// POSIX sockets only — no new dependencies. Enforces the engine's
/// ServeOptions transport limits: connection cap (excess accepts get
/// one {"error":"overloaded"} line), bounded line buffers, and read/
/// slow-loris deadlines via SO_RCVTIMEO. Sockets run with TCP_NODELAY;
/// the replies to one read go out in one send, in request order, sent
/// early only before a request that may wait on a compile or past 64 KiB.
/// Finished connection threads are reaped continuously (each accept
/// sweeps them), not only at stop(), so long-lived daemons don't
/// accumulate dead threads or fds.
class TcpServer {
 public:
  explicit TcpServer(ServeEngine& engine) : engine_(engine) {}
  ~TcpServer() { stop(); }

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Bind 127.0.0.1:`port` (0 = ephemeral), start the accept thread, and
  /// return the bound port. Throws pml::ConfigError for a port outside
  /// [0, 65535] (before any socket exists), pml::IoError on socket failure.
  int start(int port);

  /// Close the listener and terminate; join every thread. Idempotent.
  /// drain=false hard-closes live connections. drain=true is a graceful
  /// drain: the engine stops admitting select/table work, each live
  /// connection's read side is shut down so its buffered requests finish
  /// and their replies still send, then threads are joined.
  void stop(bool drain = false);

  /// Block until stop() is called from another thread (or the accept
  /// loop dies). The CLI foreground mode parks on this.
  void wait();

  int port() const noexcept { return port_; }

 private:
  /// One connection. The client thread only shuts the socket down and
  /// marks `done`; the fd is closed (and the thread joined) by whoever
  /// reaps it — the accept loop or stop() — so close() races with
  /// in-flight recv/send cannot happen.
  struct Client {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void client_loop(Client* client);
  /// Join and close every finished client; called from the accept loop
  /// on each accept and from stop().
  void reap_finished();

  ServeEngine& engine_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread acceptor_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<Client>> clients_;  ///< live + unreaped
};

}  // namespace pml::core
