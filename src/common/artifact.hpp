// Versioned, checksummed JSON artifact envelopes and the circuit breaker.
//
// Every JSON artifact the framework persists (model bundles, tuning tables,
// cluster specs, fault plans) is wrapped in a small "pml-artifact-v1"
// envelope:
//
//   {
//     "format":   "pml-artifact-v1",
//     "kind":     "model" | "tuning-table" | ...,
//     "schema":   1,
//     "checksum": "fnv1a64:<16 hex digits>",   // over payload.dump()
//     "payload":  { ...the artifact document... }
//   }
//
// Writes are atomic (temp file + fsync + rename), so readers never observe
// a torn file; loads validate kind, schema version, and content checksum,
// so a flipped byte or a truncation is detected instead of silently
// consumed. Pre-envelope ("legacy") documents remain loadable, and
// `pml doctor` classifies any on-disk artifact without throwing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "common/json.hpp"

namespace pml {

inline constexpr std::string_view kArtifactFormat = "pml-artifact-v1";

/// FNV-1a 64-bit hash of a byte string.
std::uint64_t fnv1a64(std::string_view bytes) noexcept;

/// Streaming XXH64 (seed 0): feed bytes through update() in any split,
/// then digest(). Digests equal stock `xxhsum -H1` output. Unlike
/// fnv1a64 it consumes 32-byte stripes on four independent lanes, so it
/// hashes multi-MB files at memory speed.
class Xxh64 {
 public:
  Xxh64() noexcept;
  void update(std::string_view bytes) noexcept;
  /// Hash of everything fed so far; does not consume the state.
  std::uint64_t digest() const noexcept;

 private:
  std::uint64_t lanes_[4];
  std::uint64_t total_ = 0;
  unsigned char stripe_[32] = {};  ///< a partial stripe awaiting bytes
  std::size_t buffered_ = 0;
};

/// One-shot XXH64 (seed 0) of a byte string.
std::uint64_t xxh64(std::string_view bytes) noexcept;

/// Canonical checksum string for an artifact payload: "fnv1a64:" plus 16
/// hex digits over the payload's compact dump(). Json objects preserve
/// insertion order, so a parse -> dump round-trip reproduces the bytes and
/// the checksum can be re-validated after loading. Arrays of 16 or more
/// containers (a forest's trees) are dumped on the shared thread pool and
/// joined in order, so the text is exactly payload.dump().
std::string payload_checksum(const Json& payload);

/// Wrap `payload` in a pml-artifact-v1 envelope and write it atomically
/// (write_file_atomic) as compact single-line JSON plus a newline. Readers
/// accept any JSON whitespace, so pretty-printed artifacts from earlier
/// releases load and verify unchanged. Throws IoError on filesystem failure.
void write_artifact(const std::string& path, const Json& payload,
                    std::string_view kind, int schema_version = 1);

/// True if `doc` carries the pml-artifact-v1 envelope format key.
bool is_artifact_envelope(const Json& doc) noexcept;

/// Validate an envelope's kind, schema version, and checksum, returning its
/// payload; throws JsonError on any mismatch (a checksum mismatch means the
/// content is corrupt). A document without the envelope is returned
/// unchanged, so pre-envelope artifacts stay loadable. Pass the document as
/// an rvalue to move the payload out instead of copying it.
Json artifact_payload(Json doc, std::string_view kind,
                      int schema_version = 1);

/// `pml doctor` verdict for one on-disk artifact.
enum class ArtifactStatus {
  kOk,           ///< valid envelope, current schema, checksum matches
  kLegacy,       ///< parseable pml document without the envelope (no checksum)
  kStaleSchema,  ///< valid envelope but a schema version this build can't vouch for
  kCorrupt,      ///< unparseable JSON, broken envelope, or checksum mismatch
  kUnreadable,   ///< the file itself could not be read
};

/// Stable verdict name ("ok", "legacy", "stale-schema", "corrupt",
/// "unreadable").
const char* to_string(ArtifactStatus status) noexcept;

struct ArtifactInfo {
  ArtifactStatus status = ArtifactStatus::kUnreadable;
  std::string kind;    ///< envelope kind, or the legacy document's format key
  int schema = 0;      ///< envelope schema version; 0 when absent
  std::string detail;  ///< human-readable reason for non-ok verdicts
};

/// Classify one artifact file for `pml doctor`. Failures become verdicts,
/// not exceptions.
ArtifactInfo inspect_artifact(const std::string& path);

/// What `pml doctor --repair` did to one file.
enum class RepairAction {
  kNone,         ///< ok or stale-schema: left untouched
  kUpgraded,     ///< legacy document rewrapped in a checksummed envelope
  kQuarantined,  ///< corrupt file moved to the .quarantine/ sibling directory
  kFailed,       ///< unreadable, unmappable legacy format, or the fix itself failed
};

/// Stable action name ("none", "upgraded", "quarantined", "failed").
const char* to_string(RepairAction action) noexcept;

struct RepairResult {
  ArtifactInfo info;  ///< verdict the repair decision was based on
  RepairAction action = RepairAction::kNone;
  std::string detail;  ///< what happened (quarantine destination, skip reason)
};

/// Envelope kind for a legacy document's format key ("pml-mpi-model-v2" ->
/// "model", ...), or "" when this build knows no mapping (such files are
/// left untouched: quarantining data we merely fail to recognise would be
/// destructive).
std::string legacy_kind_for_format(std::string_view format) noexcept;

/// Fix one artifact file in place for `pml doctor --repair`:
///  - legacy documents with a known format key are rewrapped in a fresh
///    checksummed envelope via an atomic rewrite;
///  - corrupt files are moved to a `.quarantine/` directory next to the
///    file (created on demand; name collisions get a numeric suffix);
///  - ok/stale-schema files are never touched (stale schemas are a
///    version skew for a human, not damage to erase).
/// Failures become RepairAction::kFailed verdicts, not exceptions.
RepairResult repair_artifact(const std::string& path);

// --- Circuit breaker ---------------------------------------------------------
//
// The breaker handles an operation that keeps failing across calls (e.g.
// serve-side model recompiles against a broken artifact). After a
// threshold of consecutive failures the breaker opens for a bounded-
// exponential backoff window — callers skip the doomed operation and
// take their fallback immediately — then lets exactly one half-open
// probe through; the probe's outcome closes or re-opens it.

/// Breaker tuning: a bounded-exponential backoff (base window,
/// multiplicative growth, cap) with an injectable clock. The breaker
/// never sleeps, it timestamps.
struct BreakerPolicy {
  int failure_threshold = 3;       ///< consecutive failures that open it
  double open_seconds = 5.0;       ///< first open window
  double backoff_multiplier = 2.0; ///< window growth per re-open
  double max_open_seconds = 60.0;  ///< window cap
  /// Injectable monotonic clock (seconds) for tests; a steady_clock
  /// read when unset.
  std::function<double()> now;
};

enum class BreakerState {
  kClosed,    ///< failures below threshold: all calls allowed
  kOpen,      ///< backoff window running: all calls rejected
  kHalfOpen,  ///< window expired: one probe in flight, others rejected
};

/// Stable state name ("closed", "open", "half-open").
const char* to_string(BreakerState state) noexcept;

/// Thread-safe circuit breaker. Callers bracket the guarded operation
/// with try_acquire() / record_success() / record_failure(); a rejected
/// caller takes its degradation path without touching the operation.
class CircuitBreaker {
 public:
  explicit CircuitBreaker(BreakerPolicy policy = {});

  enum class Decision {
    kAllow,   ///< closed: run the operation
    kProbe,   ///< half-open: run it as the recovery probe
    kReject,  ///< open (or a probe is already in flight): take the fallback
  };

  /// Ask to attempt the operation. kProbe is handed to exactly one
  /// caller per expired window; that caller must report the outcome via
  /// record_success()/record_failure() or the breaker stays half-open.
  Decision try_acquire();

  /// The operation succeeded: close, reset failure count and backoff.
  void record_success();

  /// The operation failed. Returns true when *this* failure opened (or
  /// re-opened) the breaker — callers use it to count open transitions.
  bool record_failure();

  BreakerState state() const;
  int consecutive_failures() const;

 private:
  double clock() const;

  mutable std::mutex mutex_;
  BreakerPolicy policy_;
  BreakerState state_ = BreakerState::kClosed;
  int failures_ = 0;        ///< consecutive failures since last success
  int open_count_ = 0;      ///< consecutive open windows (backoff exponent)
  double open_until_ = 0.0; ///< clock() time the current window expires
  bool probe_in_flight_ = false;
};

}  // namespace pml
