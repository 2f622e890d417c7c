// pml::core serve internals: the cached-select fast path's request scanner
// and reply renderer, declared here so tests can hold them against the
// Json DOM they stand in for. Not part of the library's API.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "coll/selection.hpp"
#include "common/json.hpp"

namespace pml::core::detail {

/// A plain select request as scan_select() read it. The strings view the
/// scanned line; the integers are the raw tokens' values, not yet
/// range-checked.
struct ScannedSelect {
  std::string_view cluster;
  std::string_view collective;
  std::uint64_t nodes = 0;
  std::uint64_t ppn = 0;
  std::uint64_t msg_bytes = 0;
};

/// One pass over `line`. True, with `out` filled, when the line is a flat
/// JSON object (JSON whitespace allowed anywhere between tokens) with
/// exactly the keys op, cluster, collective, nodes, ppn and msg_bytes in
/// any order: "op" is "select", "cluster" and "collective" are strings
/// without a backslash, and the three integers are unsigned tokens of 1-15
/// digits without a leading zero. Anything else — "wait", "deadline_ms",
/// an inline cluster, escapes, unknown or repeated keys, signs, fractions,
/// exponents, malformed JSON — returns false and takes the DOM path. Every
/// accepted line parses with Json::parse to the same values.
bool scan_select(std::string_view line, ScannedSelect& out);

/// The select request handle_select() answers, whichever path read it:
/// fields validated, in the order the protocol has always checked them
/// (collective, nodes, ppn, msg_bytes, cluster).
struct SelectQuery {
  coll::Collective collective = coll::Collective::kAllgather;
  int nodes = 0;
  int ppn = 0;
  std::uint64_t msg_bytes = 0;
  /// The "cluster" field when it is a string (a builtin name).
  std::string_view cluster_name;
  /// The "cluster" field when it is anything else; null when named.
  const Json* cluster_spec = nullptr;
  /// The parsed request ("wait", "deadline_ms"); null for a scanned one.
  const Json* request = nullptr;
};

/// The one-line select reply (no trailing newline). Every select reply is
/// rendered here: cache-hit replies once per cached table, the other rungs
/// per request.
std::string select_reply(const coll::Selection& selection, const char* cache,
                         const char* source, bool degraded, bool timed_out,
                         bool breaker_open);

}  // namespace pml::core::detail
