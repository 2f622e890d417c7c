#include "common/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace pml {

Json& JsonObject::operator[](const std::string& key) {
  for (auto& [k, v] : entries_) {
    if (k == key) return v;
  }
  entries_.emplace_back(key, Json());
  return entries_.back().second;
}

const Json& JsonObject::at(const std::string& key) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) return v;
  }
  throw JsonError("missing key: " + key);
}

bool JsonObject::contains(const std::string& key) const noexcept {
  for (const auto& [k, v] : entries_) {
    if (k == key) return true;
  }
  return false;
}

std::int64_t Json::as_int() const {
  const double d = as_number();
  // 2^63 is exactly representable as a double; the valid range is
  // [-2^63, 2^63) because the cast truncates toward zero.
  if (!(d >= -9223372036854775808.0 && d < 9223372036854775808.0)) {
    throw JsonError("number out of integer range");
  }
  return static_cast<std::int64_t>(d);
}

namespace {

void dump_string(const std::string& s, std::string& out) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void dump_number(double d, std::string& out) {
  if (!std::isfinite(d)) throw JsonError("cannot serialize non-finite number");
  // std::to_chars with a precision formats exactly as printf does in the
  // "C" locale, so these are the bytes of "%lld" and "%.17g", at several
  // times their speed.
  char buf[32];
  std::to_chars_result res;
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    res = std::to_chars(buf, buf + sizeof buf, static_cast<long long>(d));
  } else {
    res = std::to_chars(buf, buf + sizeof buf, d, std::chars_format::general,
                        17);
  }
  out.append(buf, res.ptr);
}

void indent_to(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

void dump_value(const Json& v, std::string& out, int indent, int depth);

void dump_array(const Json::Array& a, std::string& out, int indent, int depth) {
  if (a.empty()) {
    out += "[]";
    return;
  }
  out += '[';
  bool first = true;
  for (const auto& item : a) {
    if (!first) out += ',';
    first = false;
    indent_to(out, indent, depth + 1);
    dump_value(item, out, indent, depth + 1);
  }
  indent_to(out, indent, depth);
  out += ']';
}

void dump_object(const JsonObject& o, std::string& out, int indent, int depth) {
  if (o.empty()) {
    out += "{}";
    return;
  }
  out += '{';
  bool first = true;
  for (const auto& [key, value] : o) {
    if (!first) out += ',';
    first = false;
    indent_to(out, indent, depth + 1);
    dump_string(key, out);
    out += indent < 0 ? ":" : ": ";
    dump_value(value, out, indent, depth + 1);
  }
  indent_to(out, indent, depth);
  out += '}';
}

void dump_value(const Json& v, std::string& out, int indent, int depth) {
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_number()) {
    dump_number(v.as_number(), out);
  } else if (v.is_string()) {
    dump_string(v.as_string(), out);
  } else if (v.is_array()) {
    dump_array(v.as_array(), out, indent, depth);
  } else {
    dump_object(v.as_object(), out, indent, depth);
  }
}

}  // namespace

namespace detail {

/// Recursive-descent JSON parser over a string_view. Elements of the open
/// arrays and objects collect on two scratch stacks shared by every
/// nesting level; each container is then built at its exact size when its
/// closing bracket is read, instead of growing one push_back at a time.
/// The stacks belong to the thread and outlive the parse, so a parse
/// allocates only the containers it returns.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  ~JsonParser() {
    // A failed parse leaves its open elements behind; and one huge
    // document must not pin its stack memory to the thread.
    values_.clear();
    members_.clear();
    if (values_.capacity() > kStackKeep) values_.shrink_to_fit();
    if (members_.capacity() > kStackKeep) members_.shrink_to_fit();
  }

  JsonParser(const JsonParser&) = delete;
  JsonParser& operator=(const JsonParser&) = delete;

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw JsonError(msg + " at offset " + std::to_string(pos_));
  }

  void skip_ws() noexcept {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  /// The parser recurses once per nesting level, so adversarial input
  /// ("[[[[..." from a network peer) must hit a JsonError long before it
  /// can exhaust the thread's stack. 192 levels is far beyond any
  /// artifact or protocol document this library exchanges.
  static constexpr int kMaxDepth = 192;

  /// Largest scratch stack capacity kept for the thread's next parse.
  static constexpr std::size_t kStackKeep = 4096;

  Json parse_value() {
    if (depth_ >= kMaxDepth) fail("nesting deeper than 192 levels");
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("invalid literal");
      default: return parse_number();
    }
  }

  Json parse_object() {
    ++depth_;
    expect('{');
    JsonObject obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return Json(std::move(obj));
    }
    const std::size_t base = members_.size();
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      Json value = parse_value();
      // A repeated key keeps its first position and takes the last value.
      const auto open = members_.begin() + static_cast<std::ptrdiff_t>(base);
      const auto dup = std::find_if(open, members_.end(), [&](const auto& m) {
        return m.first == key;
      });
      if (dup != members_.end()) {
        dup->second = std::move(value);
      } else {
        members_.emplace_back(std::move(key), std::move(value));
      }
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' in object");
    }
    const auto open = members_.begin() + static_cast<std::ptrdiff_t>(base);
    obj.entries_.assign(std::make_move_iterator(open),
                        std::make_move_iterator(members_.end()));
    members_.erase(open, members_.end());
    --depth_;
    return Json(std::move(obj));
  }

  Json parse_array() {
    ++depth_;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return Json(Json::Array());
    }
    const std::size_t base = values_.size();
    while (true) {
      values_.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in array");
    }
    const auto open = values_.begin() + static_cast<std::ptrdiff_t>(base);
    Json::Array arr(std::make_move_iterator(open),
                    std::make_move_iterator(values_.end()));
    values_.erase(open, values_.end());
    --depth_;
    return Json(std::move(arr));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      // Copy the run up to the next quote or backslash in one append.
      const std::size_t run = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\') {
        ++pos_;
      }
      out.append(text_.data() + run, pos_ - run);
      if (pos_ >= text_.size()) fail("unterminated string");
      if (text_[pos_++] == '"') break;
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("invalid hex digit in \\u escape");
          }
          // Encode BMP code point as UTF-8 (surrogate pairs not needed for
          // the artefacts this library writes).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default: fail("invalid escape character");
      }
    }
    return out;
  }

  static bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    const std::size_t digits = pos_;
    std::uint64_t magnitude = 0;  // wraps past 19 digits; used only for <= 15
    while (pos_ < text_.size() && is_digit(text_[pos_])) {
      magnitude = magnitude * 10 + static_cast<std::uint64_t>(text_[pos_] - '0');
      ++pos_;
    }
    const std::size_t digit_count = pos_ - digits;
    while (pos_ < text_.size() &&
           (is_digit(text_[pos_]) || text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E' || text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    // Fast path: the token is an optional '-' and 1 to 15 digits without a
    // leading zero (a lone "0" included). Such an integer is below 2^53, so
    // the conversion is exact and equals what from_chars returns.
    if (pos_ == digits + digit_count && digit_count >= 1 &&
        digit_count <= 15 && text_[start] != '+' &&
        (digit_count == 1 || text_[digits] != '0')) {
      const double value = static_cast<double>(magnitude);
      return Json(digits != start ? -value : value);
    }
    double value = 0.0;
    const auto* first = text_.data() + start;
    const auto* last = text_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc() || ptr != last || first == last) {
      pos_ = start;
      fail("invalid number");
    }
    return Json(value);
  }

  static thread_local std::vector<Json> thread_values_;
  static thread_local std::vector<std::pair<std::string, Json>>
      thread_members_;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  /// Elements of the open arrays, innermost array last.
  std::vector<Json>& values_ = thread_values_;
  /// Members of the open objects, innermost object last.
  std::vector<std::pair<std::string, Json>>& members_ = thread_members_;
};

thread_local std::vector<Json> JsonParser::thread_values_;
thread_local std::vector<std::pair<std::string, Json>>
    JsonParser::thread_members_;

}  // namespace detail

std::string Json::dump(int indent) const {
  std::string out;
  dump_value(*this, out, indent, 0);
  return out;
}

Json Json::parse(std::string_view text) {
  return detail::JsonParser(text).parse_document();
}

}  // namespace pml
