#include "common/artifact.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>

#include "common/parallel.hpp"
#include "common/strings.hpp"

namespace pml {

namespace {

/// True when a parsed-but-unenveloped document looks like one of ours: every
/// pre-envelope artifact carries a "format" key starting with "pml-".
bool looks_like_pml_document(const Json& doc) noexcept {
  if (!doc.is_object() || !doc.contains("format")) return false;
  const Json& format = doc.at("format");
  return format.is_string() && format.as_string().rfind("pml-", 0) == 0;
}

}  // namespace

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// XXH64 from the public specification (github.com/Cyan4973/xxHash,
// doc/xxhash_spec.md): four lanes over 32-byte stripes, then the tail
// in 8-, 4- and 1-byte steps, then the avalanche.
namespace {

constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ULL;

template <typename T>
T read_le(const unsigned char* p) noexcept {
  T v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    if constexpr (sizeof v == 8) v = __builtin_bswap64(v);
    else v = __builtin_bswap32(v);
  }
  return v;
}

std::uint64_t xxh_round(std::uint64_t acc, std::uint64_t input) noexcept {
  return std::rotl(acc + input * kP2, 31) * kP1;
}

std::uint64_t xxh_merge(std::uint64_t acc, std::uint64_t lane) noexcept {
  return (acc ^ xxh_round(0, lane)) * kP1 + kP4;
}

}  // namespace

Xxh64::Xxh64() noexcept : lanes_{kP1 + kP2, kP2, 0, 0 - kP1} {}

void Xxh64::update(std::string_view bytes) noexcept {
  auto p = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t len = bytes.size();
  total_ += len;
  const auto consume = [this](const unsigned char* stripe) {
    for (int i = 0; i < 4; ++i) {
      lanes_[i] = xxh_round(lanes_[i], read_le<std::uint64_t>(stripe + 8 * i));
    }
  };
  if (buffered_ > 0) {
    const std::size_t take = std::min(len, sizeof stripe_ - buffered_);
    std::memcpy(stripe_ + buffered_, p, take);
    buffered_ += take;
    p += take;
    len -= take;
    if (buffered_ < sizeof stripe_) return;
    consume(stripe_);
    buffered_ = 0;
  }
  for (; len >= sizeof stripe_; p += sizeof stripe_, len -= sizeof stripe_) {
    consume(p);
  }
  std::memcpy(stripe_, p, len);
  buffered_ = len;
}

std::uint64_t Xxh64::digest() const noexcept {
  std::uint64_t h;
  if (total_ >= sizeof stripe_) {
    h = std::rotl(lanes_[0], 1) + std::rotl(lanes_[1], 7) +
        std::rotl(lanes_[2], 12) + std::rotl(lanes_[3], 18);
    for (const std::uint64_t lane : lanes_) h = xxh_merge(h, lane);
  } else {
    h = kP5;  // seed + PRIME64_5
  }
  h += total_;
  const unsigned char* p = stripe_;
  std::size_t len = buffered_;
  for (; len >= 8; p += 8, len -= 8) {
    h = std::rotl(h ^ xxh_round(0, read_le<std::uint64_t>(p)), 27) * kP1 + kP4;
  }
  if (len >= 4) {
    h = std::rotl(h ^ read_le<std::uint32_t>(p) * kP1, 23) * kP2 + kP3;
    p += 4;
    len -= 4;
  }
  for (; len > 0; ++p, --len) h = std::rotl(h ^ *p * kP5, 11) * kP1;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  return h ^ (h >> 32);
}

std::uint64_t xxh64(std::string_view bytes) noexcept {
  Xxh64 state;
  state.update(bytes);
  return state.digest();
}

namespace {

/// Arrays of at least this many arrays or objects (a forest's trees, a
/// table's jobs) are written on the shared pool.
constexpr std::size_t kFanOutMin = 16;

/// Append exactly v.dump() to `out`. The elements of each large array of
/// containers are written in parallel and joined in order, so the bytes
/// are those of the serial dump.
void dump_compact(const Json& v, std::string& out) {
  if (v.is_object() && !v.as_object().empty()) {
    char sep = '{';
    for (const auto& [key, value] : v.as_object()) {
      out += sep;
      sep = ',';
      out += Json(key).dump();
      out += ':';
      dump_compact(value, out);
    }
    out += '}';
    return;
  }
  if (!v.is_array() || v.as_array().size() < kFanOutMin ||
      !(v.as_array().front().is_array() || v.as_array().front().is_object())) {
    out += v.dump();
    return;
  }
  const Json::Array& items = v.as_array();
  std::vector<std::string> text(items.size());
  parallel_for(0, items.size(), [&](std::size_t i) { text[i] = items[i].dump(); });
  std::size_t size = out.size() + items.size() + 1;
  for (const std::string& item : text) size += item.size();
  out.reserve(size);
  char sep = '[';
  for (const std::string& item : text) {
    out += sep;
    sep = ',';
    out += item;
  }
  out += ']';
}

/// The payload's compact dump, the text the envelope checksum covers.
std::string compact_dump(const Json& payload) {
  std::string out;
  dump_compact(payload, out);
  return out;
}

std::string checksum_of_dump(std::string_view payload_dump) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "fnv1a64:%016llx",
                static_cast<unsigned long long>(fnv1a64(payload_dump)));
  return buf;
}

}  // namespace

std::string payload_checksum(const Json& payload) {
  return checksum_of_dump(compact_dump(payload));
}

void write_artifact(const std::string& path, const Json& payload,
                    std::string_view kind, int schema_version) {
  // The envelope's compact dump(), spliced by hand: the payload is dumped
  // once (that text is also what the checksum covers) and never
  // deep-copied into an envelope Json.
  const std::string body = compact_dump(payload);
  Json head = Json::object();
  head["format"] = std::string(kArtifactFormat);
  head["kind"] = std::string(kind);
  head["schema"] = schema_version;
  head["checksum"] = checksum_of_dump(body);
  std::string text = head.dump();
  text.pop_back();  // reopen the object: "payload" is its last key
  text.reserve(text.size() + body.size() + 14);
  text += ",\"payload\":";
  text += body;
  text += "}\n";
  write_file_atomic(path, text);
}

bool is_artifact_envelope(const Json& doc) noexcept {
  if (!doc.is_object() || !doc.contains("format")) return false;
  const Json& format = doc.at("format");
  return format.is_string() && format.as_string() == kArtifactFormat;
}

Json artifact_payload(Json doc, std::string_view kind,
                      int schema_version, bool allow_legacy) {
  if (!is_artifact_envelope(doc)) {
    if (allow_legacy) return doc;
    throw JsonError("expected a " + std::string(kArtifactFormat) +
                    " envelope of kind '" + std::string(kind) + "'");
  }
  if (!doc.contains("kind") || !doc.at("kind").is_string() ||
      doc.at("kind").as_string() != kind) {
    throw JsonError("artifact kind mismatch: expected '" + std::string(kind) +
                    "'");
  }
  if (!doc.contains("schema") || !doc.at("schema").is_number() ||
      doc.at("schema").as_int() != schema_version) {
    throw JsonError("artifact schema mismatch for kind '" + std::string(kind) +
                    "': expected version " + std::to_string(schema_version));
  }
  if (!doc.contains("payload")) {
    throw JsonError("artifact envelope has no payload");
  }
  const std::string expected = payload_checksum(doc.at("payload"));
  if (!doc.contains("checksum") || !doc.at("checksum").is_string() ||
      doc.at("checksum").as_string() != expected) {
    throw JsonError("artifact checksum mismatch for kind '" +
                    std::string(kind) + "' (content corrupt?)");
  }
  return std::move(doc["payload"]);
}

const char* to_string(ArtifactStatus status) noexcept {
  switch (status) {
    case ArtifactStatus::kOk: return "ok";
    case ArtifactStatus::kLegacy: return "legacy";
    case ArtifactStatus::kStaleSchema: return "stale-schema";
    case ArtifactStatus::kCorrupt: return "corrupt";
    case ArtifactStatus::kUnreadable: return "unreadable";
  }
  return "unknown";
}

ArtifactInfo inspect_artifact(const std::string& path) {
  ArtifactInfo info;

  std::string text;
  try {
    text = read_file(path);
  } catch (const Error& err) {
    info.status = ArtifactStatus::kUnreadable;
    info.detail = err.what();
    return info;
  }

  Json doc;
  try {
    doc = Json::parse(text);
  } catch (const Error& err) {
    info.status = ArtifactStatus::kCorrupt;
    info.detail = std::string("not valid JSON: ") + err.what();
    return info;
  }

  if (!is_artifact_envelope(doc)) {
    if (looks_like_pml_document(doc)) {
      info.status = ArtifactStatus::kLegacy;
      info.kind = doc.at("format").as_string();
      info.detail = "pre-envelope artifact (no checksum); rewrite to upgrade";
    } else {
      info.status = ArtifactStatus::kCorrupt;
      info.detail = "not a pml artifact (no recognised format key)";
    }
    return info;
  }

  if (doc.contains("kind") && doc.at("kind").is_string()) {
    info.kind = doc.at("kind").as_string();
  }
  if (doc.contains("schema") && doc.at("schema").is_number()) {
    info.schema = static_cast<int>(doc.at("schema").as_int());
  }
  if (info.kind.empty() || !doc.contains("payload") ||
      !doc.contains("checksum") || !doc.at("checksum").is_string()) {
    info.status = ArtifactStatus::kCorrupt;
    info.detail = "incomplete envelope (missing kind/checksum/payload)";
    return info;
  }
  if (doc.at("checksum").as_string() != payload_checksum(doc.at("payload"))) {
    info.status = ArtifactStatus::kCorrupt;
    info.detail = "checksum mismatch (content corrupt)";
    return info;
  }
  if (info.schema != 1) {
    info.status = ArtifactStatus::kStaleSchema;
    info.detail = "schema version " + std::to_string(info.schema) +
                  " (this build expects 1)";
    return info;
  }
  info.status = ArtifactStatus::kOk;
  return info;
}

const char* to_string(RepairAction action) noexcept {
  switch (action) {
    case RepairAction::kNone: return "none";
    case RepairAction::kUpgraded: return "upgraded";
    case RepairAction::kQuarantined: return "quarantined";
    case RepairAction::kFailed: return "failed";
  }
  return "unknown";
}

std::string legacy_kind_for_format(std::string_view format) noexcept {
  if (format == "pml-mpi-model-v2" || format == "pml-mpi-model-v1") {
    return "model";
  }
  if (format == "pml-mpi-tuning-table-v2") return "tuning-table";
  if (format == "pml-fault-plan-v1") return "fault-plan";
  if (format == "pml-dataset-v2") return "dataset";
  return {};
}

namespace {

/// Move `path` into a `.quarantine/` directory beside it, appending ".1",
/// ".2", ... on name collisions so repeated repairs never overwrite an
/// earlier capture.
std::string quarantine_file(const std::filesystem::path& path) {
  namespace fs = std::filesystem;
  const fs::path dir = path.parent_path() / ".quarantine";
  fs::create_directories(dir);
  fs::path dest = dir / path.filename();
  for (int suffix = 1; fs::exists(dest); ++suffix) {
    dest = dir / (path.filename().string() + "." + std::to_string(suffix));
  }
  fs::rename(path, dest);
  return dest.string();
}

}  // namespace

RepairResult repair_artifact(const std::string& path) {
  RepairResult result;
  result.info = inspect_artifact(path);
  try {
    switch (result.info.status) {
      case ArtifactStatus::kOk:
      case ArtifactStatus::kStaleSchema:
        result.action = RepairAction::kNone;
        result.detail = result.info.status == ArtifactStatus::kOk
                            ? "already a valid envelope"
                            : "stale schema: version skew, not damage";
        break;
      case ArtifactStatus::kLegacy: {
        const std::string kind = legacy_kind_for_format(result.info.kind);
        if (kind.empty()) {
          result.action = RepairAction::kFailed;
          result.detail = "no envelope kind mapping for legacy format '" +
                          result.info.kind + "'";
          break;
        }
        // Re-parse and rewrap: write_artifact computes the checksum and
        // replaces the file atomically, so a crash mid-repair leaves the
        // original legacy document intact.
        write_artifact(path, Json::parse(read_file(path)), kind);
        result.action = RepairAction::kUpgraded;
        result.detail = "wrapped legacy '" + result.info.kind +
                        "' document in a checksummed envelope (kind '" +
                        kind + "')";
        break;
      }
      case ArtifactStatus::kCorrupt:
        result.action = RepairAction::kQuarantined;
        result.detail = "moved to " + quarantine_file(path);
        break;
      case ArtifactStatus::kUnreadable:
        result.action = RepairAction::kFailed;
        result.detail = "unreadable: " + result.info.detail;
        break;
    }
  } catch (const std::exception& err) {
    result.action = RepairAction::kFailed;
    result.detail = err.what();
  }
  return result;
}

namespace detail {

void retry_sleep(const RetryPolicy& policy, double seconds) {
  if (policy.sleep) {
    policy.sleep(seconds);
    return;
  }
  if (seconds <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

}  // namespace detail

// --- CircuitBreaker ----------------------------------------------------------

const char* to_string(BreakerState state) noexcept {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: break;
  }
  return "half-open";
}

CircuitBreaker::CircuitBreaker(BreakerPolicy policy)
    : policy_(std::move(policy)) {
  if (policy_.failure_threshold < 1) policy_.failure_threshold = 1;
}

double CircuitBreaker::clock() const {
  if (policy_.now) return policy_.now();
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

CircuitBreaker::Decision CircuitBreaker::try_acquire() {
  std::lock_guard<std::mutex> lock(mutex_);
  switch (state_) {
    case BreakerState::kClosed:
      return Decision::kAllow;
    case BreakerState::kOpen:
      if (clock() < open_until_) return Decision::kReject;
      state_ = BreakerState::kHalfOpen;
      probe_in_flight_ = true;
      return Decision::kProbe;
    case BreakerState::kHalfOpen:
      if (probe_in_flight_) return Decision::kReject;
      probe_in_flight_ = true;
      return Decision::kProbe;
  }
  return Decision::kReject;  // unreachable
}

void CircuitBreaker::record_success() {
  std::lock_guard<std::mutex> lock(mutex_);
  state_ = BreakerState::kClosed;
  failures_ = 0;
  open_count_ = 0;
  probe_in_flight_ = false;
}

bool CircuitBreaker::record_failure() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++failures_;
  const bool opens = state_ == BreakerState::kHalfOpen ||
                     (state_ == BreakerState::kClosed &&
                      failures_ >= policy_.failure_threshold);
  if (!opens) return false;
  probe_in_flight_ = false;
  state_ = BreakerState::kOpen;
  ++open_count_;
  double window = policy_.open_seconds;
  for (int i = 1; i < open_count_ && window < policy_.max_open_seconds; ++i) {
    window *= policy_.backoff_multiplier;
  }
  if (window > policy_.max_open_seconds) window = policy_.max_open_seconds;
  open_until_ = clock() + window;
  return true;
}

BreakerState CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

int CircuitBreaker::consecutive_failures() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failures_;
}

}  // namespace pml
