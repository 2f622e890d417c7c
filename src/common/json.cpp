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

/// One dump: the output and the indent (< 0: compact).
struct Dumper {
  std::string& out;
  int indent;

  void number(double d) {
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

  void indent_to(int depth) {
    if (indent < 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * depth), ' ');
  }

  void array(const Json::Array& a, int depth) {
    if (a.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    bool first = true;
    for (const auto& item : a) {
      if (!first) out += ',';
      first = false;
      indent_to(depth + 1);
      value(item, depth + 1);
    }
    indent_to(depth);
    out += ']';
  }

  void object(const JsonObject& o, int depth) {
    if (o.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    bool first = true;
    for (const auto& [key, item] : o) {
      if (!first) out += ',';
      first = false;
      indent_to(depth + 1);
      dump_string(key, out);
      out += indent < 0 ? ":" : ": ";
      value(item, depth + 1);
    }
    indent_to(depth);
    out += '}';
  }

  void value(const Json& v, int depth) {
    if (v.is_null()) {
      out += "null";
    } else if (v.is_bool()) {
      out += v.as_bool() ? "true" : "false";
    } else if (v.is_number()) {
      number(v.as_number());
    } else if (v.is_string()) {
      dump_string(v.as_string(), out);
    } else if (v.is_array()) {
      array(v.as_array(), depth);
    } else {
      object(v.as_object(), depth);
    }
  }
};

}  // namespace

// --- JsonReader ---------------------------------------------------------------

void JsonReader::fail(const char* what) {
  failed_ = true;
  throw JsonError(std::string(what) + " at offset " + std::to_string(pos_));
}

void JsonReader::fail_expected(char c) {
  if (pos_ == text_.size()) fail("unexpected end of input");
  fail((std::string("expected '") + c + "'").c_str());
}

JsonReader::Token JsonReader::end() {
  state_ = State::kDone;
  if (pos_ != text_.size()) fail("trailing characters after document");
  return Token::kEnd;
}

JsonReader::Token JsonReader::literal() {
  const auto [word, token] =
      text_[pos_] == 't'   ? std::pair{std::string_view("true"), Token::kTrue}
      : text_[pos_] == 'f' ? std::pair{std::string_view("false"), Token::kFalse}
                           : std::pair{std::string_view("null"), Token::kNull};
  if (text_.substr(pos_, word.size()) != word) fail("invalid literal");
  pos_ += word.size();
  return token;
}

void JsonReader::read_escaped(std::size_t start) {
  std::string& out = unescaped_;
  out.assign(text_.data() + start, pos_ - start);
  while (true) {
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
    // Copy the run up to the next quote or backslash in one append.
    const std::size_t run = pos_;
    while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\') {
      ++pos_;
    }
    out.append(text_.data() + run, pos_ - run);
  }
  string_ = out;
  escaped_ = true;
}

JsonReader::Token JsonReader::read_other_number(std::size_t start) {
  pos_ = start;
  if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
  while (pos_ < text_.size() &&
         (is_digit(text_[pos_]) || text_[pos_] == '.' || text_[pos_] == 'e' ||
          text_[pos_] == 'E' || text_[pos_] == '+' || text_[pos_] == '-')) {
    ++pos_;
  }
  const auto* first = text_.data() + start;
  const auto* last = text_.data() + pos_;
  const auto [ptr, ec] = std::from_chars(first, last, number_);
  if (ec != std::errc() || ptr != last || first == last) {
    pos_ = start;
    fail("invalid number");
  }
  exact_unsigned_ = false;
  return Token::kNumber;
}

// --- Json ---------------------------------------------------------------------

namespace {

/// Elements of the open arrays and members of the open objects, innermost
/// last, on two stacks shared by every nesting level; each container is
/// built at its exact size when it closes, instead of growing one
/// push_back at a time. The stacks belong to the thread and outlive the
/// read, so a read allocates only the containers it returns.
thread_local std::vector<Json> t_values;
thread_local std::vector<std::pair<std::string, Json>> t_members;

/// Largest scratch stack capacity kept for the thread's next read.
constexpr std::size_t kStackKeep = 4096;

}  // namespace

std::string Json::dump(int indent) const {
  std::string out;
  Dumper{out, indent}.value(*this, 0);
  return out;
}

Json Json::read(JsonReader& reader, JsonReader::Token first) {
  struct Release {
    ~Release() {
      // A failed read leaves its open elements behind; and one huge
      // document must not pin its stack memory to the thread.
      t_values.clear();
      t_members.clear();
      if (t_values.capacity() > kStackKeep) t_values.shrink_to_fit();
      if (t_members.capacity() > kStackKeep) t_members.shrink_to_fit();
    }
  } release;
  return build(reader, first);
}

Json Json::build(JsonReader& reader, JsonReader::Token first) {
  using Token = JsonReader::Token;
  switch (first) {
    case Token::kNull: return Json(nullptr);
    case Token::kFalse: return Json(false);
    case Token::kTrue: return Json(true);
    case Token::kNumber: return Json(reader.number());
    case Token::kString: return Json(std::string(reader.string()));
    case Token::kBeginArray: {
      const std::size_t base = t_values.size();
      for (Token t; (t = reader.next()) != Token::kEndArray;) {
        t_values.push_back(build(reader, t));
      }
      const auto open = t_values.begin() + static_cast<std::ptrdiff_t>(base);
      Array array(std::make_move_iterator(open),
                  std::make_move_iterator(t_values.end()));
      t_values.erase(open, t_values.end());
      return Json(std::move(array));
    }
    default: break;  // kBeginObject: next() returns no other first token
  }
  const std::size_t base = t_members.size();
  while (reader.next() == Token::kKey) {
    std::string key(reader.string());
    Json value = build(reader, reader.next());
    // A repeated key keeps its first position and takes the last value.
    const auto open = t_members.begin() + static_cast<std::ptrdiff_t>(base);
    const auto dup = std::find_if(open, t_members.end(), [&](const auto& m) {
      return m.first == key;
    });
    if (dup != t_members.end()) {
      dup->second = std::move(value);
    } else {
      t_members.emplace_back(std::move(key), std::move(value));
    }
  }
  const auto open = t_members.begin() + static_cast<std::ptrdiff_t>(base);
  JsonObject object;
  object.entries_.assign(std::make_move_iterator(open),
                         std::make_move_iterator(t_members.end()));
  t_members.erase(open, t_members.end());
  return Json(std::move(object));
}

Json Json::parse(std::string_view text) {
  JsonReader reader(text);
  Json value = read(reader, reader.next());
  reader.next();  // kEnd, or the trailing-characters error
  return value;
}

}  // namespace pml
