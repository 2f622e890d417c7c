#include "core/serve.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "common/artifact.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/strings.hpp"
#include "common/version.hpp"
#include "core/selectors.hpp"
#include "core/serve_internal.hpp"
#include "sim/hardware.hpp"

namespace pml::core {

namespace {

std::string hex16(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return std::string(buf);
}

void warn(const std::string& message) {
  std::fprintf(stderr, "pml: warning: %s\n", message.c_str());
}

/// "/<fingerprint hex>/<sweep hash hex>": a cache key is the model
/// checksum followed by this tail.
std::string key_tail(const sim::ClusterSpec& cluster,
                     const CompileOptions& resolved) {
  std::string sweep;
  for (const int n : resolved.node_counts) {
    sweep += std::to_string(n);
    sweep += ',';
  }
  sweep += ';';
  for (const int p : resolved.ppn_values) {
    sweep += std::to_string(p);
    sweep += ',';
  }
  sweep += ';';
  for (const std::uint64_t m : resolved.message_sizes) {
    sweep += std::to_string(m);
    sweep += ',';
  }
  return "/" + hex16(cluster.hardware_fingerprint()) + "/" +
         hex16(fnv1a64(sweep));
}

// --- request parsing --------------------------------------------------------

const Json& require_field(const Json& request, const char* key) {
  if (!request.contains(key)) {
    throw ConfigError(std::string("serve: request missing \"") + key +
                      "\" field");
  }
  return request.at(key);
}

/// `value` (the request's `key` field, or one entry of that array) as an
/// integer. A fraction is rejected, not truncated: 4.9 nodes is no request
/// for 4. Integral spellings such as 1e3 stay valid.
std::int64_t require_integer(const Json& value, const char* key) {
  const std::int64_t v = value.as_int();
  if (static_cast<double>(v) != value.as_number()) {
    throw ConfigError(std::string("serve: \"") + key +
                      "\" must be an integer");
  }
  return v;
}

/// `v` (the request's `key` field) as a positive 32-bit integer.
int positive_int(std::int64_t v, const char* key) {
  if (v < 1 || v > std::numeric_limits<int>::max()) {
    throw ConfigError(std::string("serve: \"") + key +
                      "\" must be a positive 32-bit integer");
  }
  return static_cast<int>(v);
}

/// `v` (the request's `key` field) as a non-negative byte count.
std::uint64_t nonneg_u64(std::int64_t v, const char* key) {
  if (v < 0) {
    throw ConfigError(std::string("serve: \"") + key + "\" must be >= 0");
  }
  return static_cast<std::uint64_t>(v);
}

int require_positive_int(const Json& value, const char* key) {
  return positive_int(require_integer(value, key), key);
}

std::uint64_t require_nonneg_u64(const Json& value, const char* key) {
  return nonneg_u64(require_integer(value, key), key);
}

/// Optional "deadline_ms" on waited requests; -1 = wait forever.
std::int64_t deadline_ms_of(const Json& request) {
  if (!request.contains("deadline_ms")) return -1;
  const std::int64_t v =
      require_integer(request.at("deadline_ms"), "deadline_ms");
  if (v < 0) throw ConfigError("serve: \"deadline_ms\" must be >= 0");
  return v;
}

bool truthy_flag(const Json& request, const char* key) {
  return request.contains(key) && request.at(key).is_bool() &&
         request.at(key).as_bool();
}

/// The "cluster" field `c` is either a builtin cluster name or an inline
/// ClusterSpec document — the same shapes `pml compile --cluster` accepts.
sim::ClusterSpec parse_cluster(const Json& c) {
  if (c.is_string()) return sim::cluster_by_name(c.as_string());
  if (c.is_object()) return sim::ClusterSpec::from_json(c);
  throw ConfigError(
      "serve: \"cluster\" must be a builtin name or a cluster spec object");
}

/// Optional per-request sweep override for "table" requests.
void apply_sweep_overrides(const Json& request, CompileOptions& options) {
  if (request.contains("node_counts")) {
    options.node_counts.clear();
    for (const Json& n : request.at("node_counts").as_array()) {
      options.node_counts.push_back(require_positive_int(n, "node_counts"));
    }
  }
  if (request.contains("ppn_values")) {
    options.ppn_values.clear();
    for (const Json& p : request.at("ppn_values").as_array()) {
      options.ppn_values.push_back(require_positive_int(p, "ppn_values"));
    }
  }
  if (request.contains("msg_sizes")) {
    options.message_sizes.clear();
    for (const Json& m : request.at("msg_sizes").as_array()) {
      options.message_sizes.push_back(require_nonneg_u64(m, "msg_sizes"));
    }
  }
}

/// A select read through the Json DOM. Checks run in protocol order, and
/// the scanned overload below keeps that order and every error text.
detail::SelectQuery select_query(const Json& request) {
  detail::SelectQuery query;
  query.collective = coll::collective_from_string(
      require_field(request, "collective").as_string());
  query.nodes = require_positive_int(require_field(request, "nodes"), "nodes");
  query.ppn = require_positive_int(require_field(request, "ppn"), "ppn");
  query.msg_bytes =
      require_nonneg_u64(require_field(request, "msg_bytes"), "msg_bytes");
  const Json& cluster = require_field(request, "cluster");
  if (cluster.is_string()) {
    query.cluster_name = cluster.as_string();
  } else {
    query.cluster_spec = &cluster;
  }
  query.request = &request;
  return query;
}

/// A select read by scan_select: every field is present and well typed,
/// and the integer tokens are below 10^15, so only the range checks remain.
detail::SelectQuery select_query(const detail::ScannedSelect& scanned) {
  detail::SelectQuery query;
  query.collective =
      coll::collective_from_string(std::string(scanned.collective));
  query.nodes = positive_int(static_cast<std::int64_t>(scanned.nodes), "nodes");
  query.ppn = positive_int(static_cast<std::int64_t>(scanned.ppn), "ppn");
  query.msg_bytes = scanned.msg_bytes;
  query.cluster_name = scanned.cluster;
  return query;
}

std::string error_reply(const std::string& what, ErrorCode code,
                        bool draining = false) {
  Json j = Json::object();
  j["ok"] = false;
  j["error"] = what;
  j["code"] = std::string(to_string(code));
  j["status"] = exit_status(code);
  if (draining) j["draining"] = true;
  return j.dump();
}

}  // namespace

std::string serve_error_line(const std::string& what, ErrorCode code) {
  return error_reply(what, code);
}

// --- select fast path -------------------------------------------------------

namespace detail {

namespace {

/// `"display_name":…,"selection":{…},`: the select reply's members that
/// depend on the selection alone. No name holds a byte JSON escapes.
std::string selection_fragment(const coll::Selection& selection) {
  return "\"display_name\":\"" + selection.display() +
         "\",\"selection\":{\"kind\":\"" + coll::to_string(selection.kind) +
         "\",\"algorithm\":\"" + coll::to_string(selection.algorithm) +
         "\",\"intra\":\"" + coll::to_string(selection.intra) +
         "\",\"encoded\":\"" + selection.encode() + "\"},";
}

/// (kind, algorithm, intra) packed into one integer.
std::uint32_t fragment_key(const coll::Selection& s) {
  return static_cast<std::uint32_t>(s.kind) << 16 |
         static_cast<std::uint32_t>(s.algorithm) << 8 |
         static_cast<std::uint32_t>(s.intra);
}

}  // namespace

bool scan_select(std::string_view line, ScannedSelect& out) {
  using Token = JsonReader::Token;
  static constexpr std::string_view kKeys[] = {"op",    "cluster", "collective",
                                               "nodes", "ppn",     "msg_bytes"};
  std::uint64_t* const integers[] = {&out.nodes, &out.ppn, &out.msg_bytes};
  try {
    JsonReader reader(line);
    if (reader.next() != Token::kBeginObject) return false;
    unsigned seen = 0;
    while (reader.next() == Token::kKey) {
      if (!reader.string_views_text()) return false;
      const auto index = static_cast<std::size_t>(
          std::find(std::begin(kKeys), std::end(kKeys), reader.string()) -
          std::begin(kKeys));
      if (index == std::size(kKeys) || ((seen >> index) & 1u) != 0) {
        return false;
      }
      seen |= 1u << index;
      const Token token = reader.next();
      if (index >= 3) {
        if (token != Token::kNumber || !reader.exact_unsigned()) return false;
        *integers[index - 3] = static_cast<std::uint64_t>(reader.number());
        continue;
      }
      if (token != Token::kString || !reader.string_views_text()) return false;
      if (index == 0) {
        if (reader.string() != "select") return false;
      } else {
        (index == 1 ? out.cluster : out.collective) = reader.string();
      }
    }
    // The object closed; the line must hold nothing after it.
    return seen == (1u << std::size(kKeys)) - 1 &&
           reader.next() == Token::kEnd;
  } catch (const JsonError&) {
    return false;  // malformed: Json::parse reports the error
  }
}

std::string select_reply(const coll::Selection& selection, const char* cache,
                         const char* source, bool degraded, bool timed_out,
                         bool breaker_open) {
  // The fragments of the selections of every selection space.
  static const std::unordered_map<std::uint32_t, std::string> fragments = [] {
    std::unordered_map<std::uint32_t, std::string> all;
    for (const coll::Collective c : coll::all_collectives()) {
      for (const coll::Selection& s : coll::selection_space(c)) {
        all.emplace(fragment_key(s), selection_fragment(s));
      }
    }
    return all;
  }();
  std::string reply;
  reply.reserve(320);  // no reply is longer
  reply += R"({"ok":true,"op":"select",)";
  const auto fragment = fragments.find(fragment_key(selection));
  if (fragment != fragments.end()) {
    reply += fragment->second;
  } else {
    reply += selection_fragment(selection);
  }
  reply += R"("cache":")";
  reply += cache;
  reply += R"(","source":")";
  reply += source;
  reply += degraded ? R"(","degraded":true)" : R"(","degraded":false)";
  if (timed_out) reply += R"(,"deadline":"expired")";
  if (breaker_open) reply += R"(,"breaker":"open")";
  reply += '}';
  return reply;
}

}  // namespace detail

// --- ServedTable ------------------------------------------------------------

ServedTable::ServedTable(TuningTable compiled)
    : table(std::move(compiled)), json(table.to_json().dump()) {}

// --- ServeOptions -----------------------------------------------------------

void ServeOptions::validate() const {
  if (shards < 1) throw ConfigError("serve: shards must be >= 1");
  if (shard_capacity < 1) {
    throw ConfigError("serve: shard_capacity must be >= 1");
  }
  if (max_line_bytes < 64) {
    throw ConfigError("serve: max_line_bytes must be >= 64");
  }
  if (max_connections < 1) {
    throw ConfigError("serve: max_connections must be >= 1");
  }
  if (read_timeout_ms < 0) {
    throw ConfigError("serve: read_timeout_ms must be >= 0");
  }
  if (queue_limit < 1) throw ConfigError("serve: queue_limit must be >= 1");
  compile.validate();
}

// --- ServeCache -------------------------------------------------------------

ServeCache::ServeCache(int shards, std::size_t shard_capacity)
    : shards_(static_cast<std::size_t>(std::max(1, shards))),
      capacity_(std::max<std::size_t>(1, shard_capacity)) {}

ServeCache::Shard& ServeCache::shard_for(const std::string& key) {
  return shards_[fnv1a64(key) % shards_.size()];
}

std::shared_ptr<const ServedTable> ServeCache::get(const std::string& key) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.entries.find(key);
  if (it == shard.entries.end()) return nullptr;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.first);
  return it->second.second;
}

void ServeCache::put(const std::string& key,
                     std::shared_ptr<const ServedTable> entry) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    it->second.second = std::move(entry);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.first);
    return;
  }
  shard.lru.push_front(key);
  shard.entries.emplace(key, std::make_pair(shard.lru.begin(), std::move(entry)));
  if (shard.entries.size() > capacity_) {
    shard.entries.erase(shard.lru.back());
    shard.lru.pop_back();
  }
}

std::size_t ServeCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.entries.size();
  }
  return total;
}

// --- ModelHost --------------------------------------------------------------

ModelHost::ModelHost(std::string path)
    : path_(std::move(path)), snapshot_(std::make_shared<const Snapshot>()) {
  if (!path_.empty()) revalidate();
}

std::shared_ptr<const ModelHost::Snapshot> ModelHost::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_;
}

std::shared_ptr<PmlFramework> ModelHost::framework() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_->framework;
}

std::string ModelHost::checksum() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_->checksum;
}

bool ModelHost::revalidate() {
  if (path_.empty()) return false;
  static obs::Counter unusable("serve.model.unusable");
  // Ticket first: a revalidation that read the file earlier must never
  // overwrite what a later reading published.
  const std::uint64_t ticket = tickets_.fetch_add(1) + 1;
  const auto unreadable = [&](const Error& err) {
    if (snapshot()->framework != nullptr) {
      unusable.increment();
      warn("serve: model artifact became unreadable (" +
           std::string(err.what()) + "); degrading to heuristic serving");
    }
    return publish(ticket, std::make_shared<const Snapshot>());
  };
  // With a model loaded, or the bytes of a failed load remembered, every
  // call hashes every byte of the file (no size or mtime shortcut: a
  // same-length in-place edit must be caught), streamed, so the common
  // unchanged case never holds the artifact in memory. Otherwise nothing
  // can match, so go straight to the read.
  const bool known = [&] {
    std::lock_guard<std::mutex> lock(mutex_);
    return snapshot_->framework != nullptr || failed_hash_.has_value();
  }();
  if (known) {
    std::uint64_t hash = 0;
    try {
      hash = hash_file(path_);
    } catch (const Error& err) {
      return unreadable(err);
    }
    const std::string sum = "xxh64:" + hex16(hash);
    std::lock_guard<std::mutex> lock(mutex_);
    if (ticket < published_ticket_) return snapshot_->framework != nullptr;
    if (snapshot_->framework != nullptr && snapshot_->checksum == sum) {
      published_ticket_ = ticket;  // unchanged: confirm, don't reload
      return true;
    }
    if (snapshot_->framework == nullptr && failed_hash_ == hash) {
      // Still the bytes that failed to load: they would fail again, so
      // stay degraded without re-reading or warning again.
      published_ticket_ = ticket;
      return false;
    }
  }
  // Changed or not yet loaded: read the bytes to parse, and take the
  // identity from exactly those bytes, since the file may have changed
  // again since the hash.
  std::string bytes;
  try {
    obs::Span span("model.read");
    bytes = read_file(path_);
  } catch (const Error& err) {
    return unreadable(err);
  }
  const std::uint64_t hash = xxh64(bytes);
  std::string sum = "xxh64:" + hex16(hash);
  auto next = std::make_shared<Snapshot>();
  try {
    next->framework =
        std::make_shared<PmlFramework>(PmlFramework::load_artifact(bytes));
    next->checksum = std::move(sum);
    static obs::Counter reloaded("serve.model.loaded");
    reloaded.increment();
  } catch (const Error& err) {
    // The artifact on disk is the model's source of truth: once its
    // bytes no longer validate, keep serving heuristics rather than
    // answers from a bundle we can no longer vouch for. Tables already
    // cached under the old checksum stay servable (they were compiled
    // from a then-valid model), so established clients see no errors.
    unusable.increment();
    warn("serve: model artifact failed to load (" + std::string(err.what()) +
         "); degrading to heuristic serving");
    std::lock_guard<std::mutex> lock(mutex_);
    failed_hash_ = hash;
  }
  bytes = std::string();
  const bool loaded = publish(ticket, std::move(next));
#if defined(__GLIBC__)
  // The reload has freed the file bytes, the parse's buffers and the
  // replaced model, in whichever malloc arenas their threads used. Hand
  // the free pages back: otherwise how much stays resident depends on
  // where earlier allocations left each arena's top (the same daemon
  // start held 35 MB or 75 MB).
  malloc_trim(0);
#endif
  return loaded;
}

bool ModelHost::publish(std::uint64_t ticket,
                        std::shared_ptr<const Snapshot> next) {
  // Declared before the lock so a replaced model is freed after unlock.
  std::shared_ptr<const Snapshot> replaced;
  std::lock_guard<std::mutex> lock(mutex_);
  if (ticket > published_ticket_) {
    published_ticket_ = ticket;
    replaced = std::exchange(snapshot_, std::move(next));
  }
  return snapshot_->framework != nullptr;
}

// --- ServeEngine ------------------------------------------------------------

ServeEngine::ServeEngine(ServeOptions options)
    : options_(std::move(options)),
      model_(options_.model_path),
      cache_(options_.shards, options_.shard_capacity),
      named_([this] {
        std::unordered_map<std::string_view, NamedCluster> named;
        for (const sim::ClusterSpec& cluster : sim::builtin_clusters()) {
          try {
            const CompileOptions resolved =
                resolve_compile_sweep(cluster, options_.compile);
            named.emplace(cluster.name,
                          NamedCluster{&cluster, resolved,
                                       key_tail(cluster, resolved)});
          } catch (const ConfigError&) {
            // Left out: a select naming it resolves again, and throws.
          }
        }
        return named;
      }()),
      breaker_(options_.breaker) {
  options_.validate();
  event_counters_.reserve(kEvents);
  for (const ServeEventRow& row : kServeEvents) {
    event_counters_.emplace_back(row.counter);
  }
}

ServeEngine::~ServeEngine() { drain(); }

void ServeEngine::drain() {
  std::unique_lock<std::mutex> lock(jobs_mutex_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void ServeEngine::begin_drain() {
  if (!draining_.exchange(true)) {
    static obs::Counter draining("serve.drain.begin");
    draining.increment();
  }
}

int ServeEngine::queue_depth() const {
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  return in_flight_;
}

void ServeEngine::add_connection(int delta) {
  const int now = connections_.fetch_add(delta) + delta;
  static obs::Gauge gauge("serve.connections");
  gauge.set(now);
}

void ServeEngine::note(Event event) {
  const auto i = static_cast<std::size_t>(event);
  events_[i].fetch_add(1);
  event_counters_[i].increment();
}

ServeEngine::Stats ServeEngine::stats() const {
  Stats s;
  for (std::size_t i = 0; i < kEvents; ++i) {
    s.*kServeEvents[i].field = events_[i].load();
  }
  return s;
}

ServeEngine::AdmitResult ServeEngine::admit_compile(
    const std::string& key, const sim::ClusterSpec& cluster,
    const CompileOptions& resolved) {
  // Without a model path a compile has no file to re-read and can never
  // produce a table; with one, misses keep posting, so a repaired file
  // restores service without a restart.
  if (!model_.has_path()) return {nullptr, Admission::kAdmitted};
  static obs::Gauge queue_gauge("serve.queue.depth");
  std::shared_ptr<CompileJob> job;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    const auto it = jobs_.find(key);
    if (it != jobs_.end()) {
      // Joining an existing job adds no queue pressure and must not be
      // shed: the work is already paid for.
      return {it->second, Admission::kAdmitted};
    }
    if (in_flight_ >= options_.queue_limit) {
      note(Event::kShed);
      return {nullptr, Admission::kShed};
    }
    // Breaker checked after the queue-limit gate so a request that would
    // be shed anyway never consumes the half-open probe token.
    switch (breaker_.try_acquire()) {
      case CircuitBreaker::Decision::kReject: {
        static obs::Counter rejected("serve.breaker.rejected");
        rejected.increment();
        return {nullptr, Admission::kBreakerOpen};
      }
      case CircuitBreaker::Decision::kProbe: {
        static obs::Counter probe("serve.breaker.probe");
        probe.increment();
        break;
      }
      case CircuitBreaker::Decision::kAllow:
        break;
    }
    job = std::make_shared<CompileJob>();
    jobs_.emplace(key, job);
    ++in_flight_;
    queue_gauge.set(in_flight_);
  }
  // Captures by value: the transport thread that triggered the miss
  // may be gone (client hung up) before the compile runs.
  auto run = [this, job, key, cluster, resolved] {
    run_compile(job, key, cluster, resolved);
  };
  if (options_.async_compile) {
    ThreadPool::shared().post(std::move(run));
  } else {
    run();
  }
  return {job, Admission::kAdmitted};
}

void ServeEngine::run_compile(const std::shared_ptr<CompileJob>& job,
                              const std::string& requested_key,
                              const sim::ClusterSpec& cluster,
                              const CompileOptions& resolved) noexcept {
  std::shared_ptr<const ServedTable> result;
  bool failed = false;
  try {
    obs::Span span("serve.compile");
    if (options_.compile_fault) options_.compile_fault();
    // Re-read the artifact: this is both how a redeployed model is picked
    // up and how a corrupted one drops the ladder to heuristics. The read
    // hashes every byte, so overlap it with a speculative compile on the
    // model served before it, which an unchanged artifact then confirms.
    const std::shared_ptr<const ModelHost::Snapshot> before =
        model_.snapshot();
    std::optional<TuningTable> table;
    std::exception_ptr compile_error;
    parallel_for(2, 2, [&](std::size_t i) {
      if (i == 1) {
        model_.revalidate();
      } else if (before->framework != nullptr) {
        try {
          table = before->framework->compile_for(cluster, resolved);
        } catch (...) {
          compile_error = std::current_exception();
        }
      }
    });
    const std::shared_ptr<const ModelHost::Snapshot> model = model_.snapshot();
    if (model != before) {
      // The artifact changed (or became unusable): the speculative table,
      // or its failure, belongs to a model that is no longer served.
      table.reset();
      compile_error = nullptr;
      if (model->framework != nullptr) {
        table = model->framework->compile_for(cluster, resolved);
      }
    }
    if (compile_error) std::rethrow_exception(compile_error);
    if (table.has_value()) {
      auto entry = std::make_shared<const ServedTable>(std::move(*table));
      // Key under the checksum of the model that compiled the table: both
      // come from one snapshot, so a reload landing mid-compile cannot
      // file model A's table under model B's key. The snapshot postdates
      // the revalidation, so if the artifact was swapped while this job
      // sat in the queue the table lands under the new checksum, which
      // the next request recomputes and hits.
      cache_.put(model->checksum + key_tail(cluster, resolved), entry);
      note(Event::kCompile);
      result = std::move(entry);
    }
  } catch (const std::exception& err) {
    failed = true;
    note(Event::kCompileFailure);
    warn("serve: recompile failed (" + std::string(err.what()) +
         "); waiters fall back to heuristics");
  }
  if (failed) {
    if (breaker_.record_failure()) {
      static obs::Counter opened("serve.breaker.open");
      opened.increment();
      warn(
          "serve: compile circuit breaker opened after repeated failures; "
          "misses answer from the heuristic rung until a probe succeeds");
    }
  } else {
    // "Nothing to compile" (no model) resolves the breaker too: a probe
    // must always be accounted for or the breaker would stay half-open
    // rejecting forever, and a model-less compile pass costs nothing.
    breaker_.record_success();
  }
  {
    std::lock_guard<std::mutex> lock(job->mutex);
    job->result = result;
    job->done = true;
  }
  job->cv.notify_all();
  {
    // Erase strictly after the cache put + done flag above: a concurrent
    // request either finds the job (and waits on it) or misses the map
    // and sees the freshly cached entry — never neither. Notify while
    // still holding the lock: once it drops with in_flight_ == 0 the
    // destructor's drain() may return and destroy the condition variable.
    static obs::Gauge queue_gauge("serve.queue.depth");
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    jobs_.erase(requested_key);
    --in_flight_;
    queue_gauge.set(in_flight_);
    idle_cv_.notify_all();
  }
}

std::shared_ptr<const ServedTable> ServeEngine::wait_for(
    CompileJob& job, std::int64_t deadline_ms, bool& timed_out) {
  timed_out = false;
  // A deadline too far out for the steady clock (now + deadline would
  // overflow it) bounds nothing: wait as if none was given.
  const std::int64_t headroom_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::time_point::max() -
          std::chrono::steady_clock::now())
          .count();
  std::unique_lock<std::mutex> lock(job.mutex);
  if (deadline_ms < 0 || deadline_ms >= headroom_ms) {
    job.cv.wait(lock, [&job] { return job.done; });
    return job.result;
  }
  if (!job.cv.wait_for(lock, std::chrono::milliseconds(deadline_ms),
                       [&job] { return job.done; })) {
    // Deadline lapsed: the compile keeps running (the next request will
    // hit its cached result); this reply degrades to the current rung.
    timed_out = true;
    note(Event::kDeadlineExpired);
    return nullptr;
  }
  return job.result;
}

ServeEngine::CacheProbe ServeEngine::probe_cache(
    const std::string& key, const Json* request,
    const sim::ClusterSpec& cluster, const CompileOptions& resolved) {
  CacheProbe probe;
  probe.entry = cache_.get(key);
  if (probe.entry != nullptr) {
    note(Event::kCacheHit);
    return probe;
  }
  note(Event::kCacheMiss);
  probe.cache = "miss";
  const AdmitResult admitted = admit_compile(key, cluster, resolved);
  probe.admission = admitted.admission;
  if (admitted.job != nullptr && request != nullptr &&
      truthy_flag(*request, "wait")) {
    probe.entry =
        wait_for(*admitted.job, deadline_ms_of(*request), probe.timed_out);
    if (probe.entry != nullptr) probe.cache = "compiled";
  }
  return probe;
}

const char* ServeEngine::degrade(Admission admission) {
  note(Event::kDegraded);
  return admission == Admission::kShed ? "shed" : "heuristic";
}

std::string ServeEngine::handle_select(const detail::SelectQuery& query) {
  // A builtin name under the default sweep keys from the named table; an
  // inline spec, or a name the table lacks, is resolved here (and an
  // unknown name or an unresolvable sweep throws its error).
  if (query.cluster_spec == nullptr) {
    const auto named = named_.find(query.cluster_name);
    if (named != named_.end()) {
      const NamedCluster& n = named->second;
      return select_on(query, model_.checksum() + n.key_tail, *n.cluster,
                       n.resolved);
    }
  }
  const sim::ClusterSpec cluster =
      query.cluster_spec != nullptr
          ? parse_cluster(*query.cluster_spec)
          : sim::cluster_by_name(std::string(query.cluster_name));
  const CompileOptions resolved =
      resolve_compile_sweep(cluster, options_.compile);
  return select_on(query, model_.checksum() + key_tail(cluster, resolved),
                   cluster, resolved);
}

std::string ServeEngine::select_on(const detail::SelectQuery& query,
                                   const std::string& key,
                                   const sim::ClusterSpec& cluster,
                                   const CompileOptions& resolved) {
  const CacheProbe probe = probe_cache(key, query.request, cluster, resolved);

  const sim::Topology topo{query.nodes, query.ppn};
  const char* source = "table";
  bool degraded = false;
  coll::Selection selection = coll::Selection::flat(coll::Algorithm::kAgRing);
  std::shared_ptr<PmlFramework> framework;
  if (probe.entry != nullptr) {
    selection = probe.entry->table.lookup(query.collective, query.nodes,
                                          query.ppn, query.msg_bytes);
  } else if (static_cast<std::int64_t>(query.nodes) * query.ppn >
             std::numeric_limits<int>::max()) {
    // The lower rungs rank the job shape by its rank count, an int; a
    // table hit above needs no rank count and answers any such shape.
    throw ConfigError(
        "serve: \"nodes\" * \"ppn\" must be at most 2147483647 ranks");
  } else if (probe.admission == Admission::kAdmitted &&
             (framework = model_.framework()) != nullptr) {
    // Miss, model healthy: answer by one direct select() on this thread
    // while the table compiles in the background. Same model, same
    // quality — not a degraded reply. The model is read after the probe,
    // not with the keying checksum: a waited compile may just have found
    // the artifact corrupt, and then this reply must degrade too. Nothing
    // is cached from it, so no checksum is paired with this framework.
    source = "model";
    selection =
        framework->select(query.collective, cluster, topo, query.msg_bytes);
  } else {
    // Heuristic rung: no model, or a shed / breaker-open miss (both exist
    // to spend nothing extra on this request, so they skip even direct
    // inference). The reply is still a valid selection, one rung down.
    source = degrade(probe.admission);
    degraded = true;
    selection = HeuristicSelector().select(query.collective, cluster, topo,
                                           query.msg_bytes);
  }
  return detail::select_reply(selection, probe.cache, source, degraded,
                              probe.timed_out,
                              probe.admission == Admission::kBreakerOpen);
}

std::string ServeEngine::handle_table(const Json& request) {
  const sim::ClusterSpec cluster =
      parse_cluster(require_field(request, "cluster"));
  CompileOptions options = options_.compile;
  apply_sweep_overrides(request, options);
  const CompileOptions resolved = resolve_compile_sweep(cluster, options);
  const std::string key = model_.checksum() + key_tail(cluster, resolved);
  const CacheProbe probe = probe_cache(key, &request, cluster, resolved);

  if (probe.entry != nullptr) {
    // Splice the pre-serialized table in verbatim: replies for one cache
    // entry are byte-identical, request after request.
    std::string reply = "{\"ok\":true,\"op\":\"table\",\"cache\":\"";
    reply += probe.cache;
    reply += "\",\"source\":\"model\",\"degraded\":false,\"table\":";
    reply += probe.entry->json;
    reply += "}";
    return reply;
  }

  // Heuristic rung: answer now, never cache (a later compile supersedes
  // this, and the ladder contract is that heuristic output is transient).
  // Shed misses carry source:"shed" so clients can tell overload apart
  // from an absent model.
  const char* source = degrade(probe.admission);
  const TuningTable table = heuristic_table(cluster, resolved);
  std::string reply = "{\"ok\":true,\"op\":\"table\",\"cache\":\"miss\","
                      "\"source\":\"";
  reply += source;
  reply += "\",\"degraded\":true,";
  if (probe.timed_out) reply += "\"deadline\":\"expired\",";
  if (probe.admission == Admission::kBreakerOpen) {
    reply += "\"breaker\":\"open\",";
  }
  reply += "\"table\":";
  reply += table.to_json().dump();
  reply += "}";
  return reply;
}

std::string ServeEngine::handle_stats() {
  const Stats s = stats();
  Json reply = Json::object();
  reply["ok"] = true;
  reply["op"] = std::string("stats");
  reply["version"] = std::string(kPmlVersion);
  for (const ServeEventRow& row : kServeEvents) {
    reply[row.reply_key] = static_cast<std::int64_t>(s.*row.field);
  }
  reply["queue_depth"] = queue_depth();
  reply["connections"] = connections();
  reply["breaker"] = std::string(to_string(breaker_state()));
  reply["draining"] = draining();
  reply["tables_cached"] = static_cast<std::int64_t>(cache_.size());
  const std::shared_ptr<const ModelHost::Snapshot> model = model_.snapshot();
  reply["model_loaded"] = model->framework != nullptr;
  if (!model->checksum.empty()) reply["model_checksum"] = model->checksum;
  return reply.dump();
}

std::string ServeEngine::handle_health() {
  Json reply = Json::object();
  reply["ok"] = true;
  reply["op"] = std::string("health");
  reply["version"] = std::string(kPmlVersion);
  reply["artifacts"] = version_json().at("artifacts");
  reply["breaker"] = std::string(to_string(breaker_state()));
  reply["queue_depth"] = queue_depth();
  reply["queue_limit"] = options_.queue_limit;
  reply["connections"] = connections();
  reply["max_connections"] = options_.max_connections;
  reply["draining"] = draining();
  reply["tables_cached"] = static_cast<std::int64_t>(cache_.size());
  const std::shared_ptr<const ModelHost::Snapshot> model = model_.snapshot();
  reply["model_loaded"] = model->framework != nullptr;
  if (!model->checksum.empty()) reply["model_checksum"] = model->checksum;
  // Which degradation-ladder rungs can answer right now. "heuristic" is
  // definitionally always available — that is the ladder's floor.
  Json rungs = Json::object();
  rungs["table"] = cache_.size() > 0;
  rungs["model"] = model->framework != nullptr;
  rungs["heuristic"] = true;
  reply["rungs"] = std::move(rungs);
  return reply.dump();
}

std::string ServeEngine::handle_line(const std::string& line) {
  note(Event::kRequest);
  obs::Span span("serve.request");
  // Reject new work with an identifiable error; ping/stats/health keep
  // answering so ops can watch the drain complete.
  const auto reject_draining = [this] {
    static obs::Counter rejected("serve.rejected.draining");
    rejected.increment();
    note(Event::kError);
    return error_reply("serve: draining; not accepting new work",
                       ErrorCode::kConfig, /*draining=*/true);
  };
  try {
    // A plain select (the hot path) is read in one scan, with no DOM.
    detail::ScannedSelect scanned;
    if (detail::scan_select(line, scanned)) {
      if (draining()) return reject_draining();
      return handle_select(select_query(scanned));
    }
    const Json request = Json::parse(line);
    const std::string op = require_field(request, "op").as_string();
    if ((op == "select" || op == "table") && draining()) {
      return reject_draining();
    }
    if (op == "select") return handle_select(select_query(request));
    if (op == "table") return handle_table(request);
    if (op == "stats") return handle_stats();
    if (op == "health") return handle_health();
    if (op == "ping") {
      Json pong = Json::object();
      pong["ok"] = true;
      pong["op"] = std::string("ping");
      pong["version"] = std::string(kPmlVersion);
      pong["model_loaded"] = model_loaded();
      return pong.dump();
    }
    throw ConfigError("serve: unknown op \"" + op + "\"");
  } catch (const Error& err) {
    note(Event::kError);
    return error_reply(err.what(), err.code());
  } catch (const std::exception& err) {
    note(Event::kError);
    return error_reply(err.what(), ErrorCode::kUnknown);
  }
}

// --- Line framing (both transports) -----------------------------------------

namespace {

/// Bytes read per recv/read call.
constexpr std::size_t kReadChunk = 4096;

/// Replies pending past this many bytes are sent before the rest of the
/// read is answered, so one read full of "table" requests cannot grow a
/// connection's output without bound.
constexpr std::size_t kFlushBytes = 64 * 1024;

/// Whether a request may block on a compile. With async compiles (the
/// default) only a request that asks to "wait" can; the synchronous test
/// mode compiles every miss inline. Any mention of wait, or any \u escape
/// that could spell it, counts: a false positive only sends early.
bool may_wait(const std::string& line) {
  return line.find("wait") != std::string::npos ||
         line.find("\\u") != std::string::npos;
}

/// One connection's request framing and reply batching, shared by the
/// stdio and TCP transports. Bytes go in with append(); answer() runs
/// every complete line through the engine, in order, and hands the
/// replies to the transport's sink in one call per read. A trailing '\r'
/// is stripped and blank lines are skipped. Lines are cut at a head
/// offset, the consumed prefix is dropped once per read, and the '\n'
/// scan never revisits a byte: the cost is linear in the bytes read.
class LineFramer {
 public:
  void append(const char* data, std::size_t n) { buffer_.append(data, n); }

  /// Answer every complete line. Replies are sent once at the end, and
  /// early before a request that may wait on a compile (a computed reply
  /// never waits behind one) or once kFlushBytes are pending. `send`
  /// takes the bytes and returns false when the peer is gone; answer()
  /// then stops and returns false.
  template <class Send>
  bool answer(ServeEngine& engine, Send&& send) {
    bool sent = true;
    const auto flush = [&] {
      if (!replies_.empty()) sent = send(replies_);
      replies_.clear();
      return sent;
    };
    while (sent && next()) {
      if (!replies_.empty() && may_wait(line_) && !flush()) break;
      replies_ += engine.handle_line(line_);
      replies_.push_back('\n');
      if (replies_.size() >= kFlushBytes) flush();
    }
    if (sent) flush();
    buffer_.erase(0, head_);
    scan_ -= head_;
    head_ = 0;
    return sent;
  }

  /// Bytes after the last complete line: the unterminated partial line.
  std::size_t partial() const noexcept { return buffer_.size() - head_; }

 private:
  /// Cut the next complete non-blank line into line_; false once only a
  /// partial line, or nothing, is left.
  bool next() {
    for (;;) {
      const std::size_t end = buffer_.find('\n', scan_);
      if (end == std::string::npos) {
        scan_ = buffer_.size();
        return false;
      }
      std::size_t length = end - head_;
      if (length > 0 && buffer_[end - 1] == '\r') --length;
      const std::size_t start = head_;
      head_ = scan_ = end + 1;
      if (length > 0) {
        line_.assign(buffer_, start, length);
        return true;
      }
    }
  }

  std::string buffer_;
  std::size_t head_ = 0;  ///< first byte not yet answered
  std::size_t scan_ = 0;  ///< no '\n' in [head_, scan_)
  std::string line_;      ///< the line being answered (capacity reused)
  std::string replies_;   ///< replies not yet sent
};

}  // namespace

// --- stdio transport --------------------------------------------------------

void serve_stdio(ServeEngine& engine, std::FILE* in, std::FILE* out) {
  const int fd = ::fileno(in);
  LineFramer framer;
  const auto write = [out](const std::string& replies) {
    std::fwrite(replies.data(), 1, replies.size(), out);
    std::fflush(out);
    return true;
  };
  char chunk[kReadChunk];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF, or a read error that ends input the same way
    framer.append(chunk, static_cast<std::size_t>(n));
    framer.answer(engine, write);
  }
  // A final line without its newline is still a request.
  framer.append("\n", 1);
  framer.answer(engine, write);
}

// --- TCP transport ----------------------------------------------------------

int TcpServer::start(int port) {
  if (port < 0 || port > 65535) {
    throw ConfigError("serve: port " + std::to_string(port) +
                      " outside [0, 65535]");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw IoError("serve: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw IoError("serve: cannot bind 127.0.0.1:" + std::to_string(port));
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = static_cast<int>(ntohs(addr.sin_port));
  acceptor_ = std::thread([this] { accept_loop(); });
  return port_;
}

namespace {

bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t w =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (w <= 0) return false;
    sent += static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace

void TcpServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) return;
      continue;  // transient accept failure (e.g. EINTR)
    }
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    reap_finished();
    const ServeOptions& options = engine_.options();
    if (engine_.connections() >= options.max_connections) {
      // Over the cap: one structured line, then close. Best effort — a
      // peer that already hung up just loses the courtesy reply.
      engine_.note(ServeEngine::Event::kOverloaded);
      std::string line = serve_error_line("overloaded", ErrorCode::kConfig);
      line.push_back('\n');
      send_all(fd, line);
      ::shutdown(fd, SHUT_WR);
      // Discard whatever request bytes already arrived: closing with
      // unread data pending makes the kernel RST the connection, which
      // can destroy the reject line before the peer reads it.
      char sink[256];
      while (::recv(fd, sink, sizeof sink, MSG_DONTWAIT) > 0) {
      }
      ::close(fd);
      continue;
    }
    if (options.read_timeout_ms > 0) {
      timeval tv{};
      tv.tv_sec = options.read_timeout_ms / 1000;
      tv.tv_usec = static_cast<decltype(tv.tv_usec)>(
          (options.read_timeout_ms % 1000) * 1000);
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    }
    // Send each reply as soon as it exists. Under Nagle a reply waits for
    // the ACK of the previous one, which a delayed-ACK client sends only
    // with its next request: every reply would lag one request period.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto client = std::make_unique<Client>();
    client->fd = fd;
    Client* raw = client.get();
    // Counted before the thread starts so the cap check never overshoots.
    engine_.add_connection(1);
    std::lock_guard<std::mutex> lock(mutex_);
    clients_.push_back(std::move(client));
    raw->thread = std::thread([this, raw] { client_loop(raw); });
  }
}

void TcpServer::client_loop(Client* client) {
  const ServeOptions& options = engine_.options();
  const int fd = client->fd;
  LineFramer framer;
  const auto send = [fd](const std::string& replies) {
    return send_all(fd, replies);
  };
  char chunk[kReadChunk];
  // Structured error to send before disconnecting, when the connection
  // itself (not a request) breaks a limit.
  std::string close_reason;
  auto line_deadline = std::chrono::steady_clock::time_point{};
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n == 0) break;  // peer closed
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_RCVTIMEO fired: nothing at all for read_timeout_ms.
        engine_.note(ServeEngine::Event::kEvicted);
        close_reason = serve_error_line(
            "serve: read deadline exceeded; closing connection",
            ErrorCode::kIo);
      }
      break;
    }
    const std::size_t carried = framer.partial();
    if (carried == 0) {
      line_deadline = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(options.read_timeout_ms);
    }
    framer.append(chunk, static_cast<std::size_t>(n));
    if (!framer.answer(engine_, send)) break;  // peer gone
    const std::size_t partial = framer.partial();
    if (partial > 0) {
      if (partial > options.max_line_bytes) {
        engine_.note(ServeEngine::Event::kOverlong);
        close_reason = serve_error_line(
            "serve: request line exceeds max_line_bytes (" +
                std::to_string(options.max_line_bytes) +
                "); closing connection",
            ErrorCode::kConfig);
        break;
      }
      if (partial < carried + static_cast<std::size_t>(n)) {
        // A line completed this round; restart the partial line's clock.
        line_deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options.read_timeout_ms);
      } else if (options.read_timeout_ms > 0 &&
                 std::chrono::steady_clock::now() > line_deadline) {
        // Slow loris: bytes keep trickling in but no line ever completes,
        // so SO_RCVTIMEO alone would never fire.
        engine_.note(ServeEngine::Event::kEvicted);
        close_reason = serve_error_line(
            "serve: read deadline exceeded; closing connection",
            ErrorCode::kIo);
        break;
      }
    }
  }
  if (!close_reason.empty()) {
    close_reason.push_back('\n');
    send_all(fd, close_reason);
  }
  // Only shut down here; the fd is closed by whoever reaps this client
  // (accept loop or stop), after joining the thread — so a close can
  // never race the recv/send above.
  ::shutdown(fd, SHUT_RDWR);
  engine_.add_connection(-1);
  client->done.store(true);
}

void TcpServer::reap_finished() {
  std::vector<std::unique_ptr<Client>> finished;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = clients_.begin();
    while (it != clients_.end()) {
      if ((*it)->done.load()) {
        finished.push_back(std::move(*it));
        it = clients_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const std::unique_ptr<Client>& client : finished) {
    if (client->thread.joinable()) client->thread.join();
    ::close(client->fd);
  }
}

void TcpServer::stop(bool drain) {
  if (stopping_.exchange(true)) {
    // Second caller (e.g. dtor after explicit stop): nothing to do.
    return;
  }
  if (drain) engine_.begin_drain();
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  if (acceptor_.joinable()) acceptor_.join();
  std::vector<std::unique_ptr<Client>> clients;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    clients.swap(clients_);
  }
  // Hard stop cuts both directions; drain cuts only the read side, so
  // each connection's already-buffered requests finish and their replies
  // still send before the recv loop sees EOF.
  for (const std::unique_ptr<Client>& c : clients) {
    ::shutdown(c->fd, drain ? SHUT_RD : SHUT_RDWR);
  }
  for (const std::unique_ptr<Client>& c : clients) {
    if (c->thread.joinable()) c->thread.join();
  }
  for (const std::unique_ptr<Client>& c : clients) ::close(c->fd);
  if (drain) engine_.drain();  // let in-flight recompiles land too
  listen_fd_ = -1;
}

void TcpServer::wait() {
  if (acceptor_.joinable()) acceptor_.join();
}

}  // namespace pml::core
