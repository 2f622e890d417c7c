// Minimal JSON value type with a pull tokenizer and a serializer.
//
// The tuning framework ships its artefacts (tuning tables, trained models,
// cluster descriptions) as JSON, exactly as the paper's framework emits
// "tuning tables ... stored in a readily accessible JSON format". This is a
// deliberately small, dependency-free implementation: objects preserve
// insertion order (stable, diff-able output) and numbers are stored as
// double (sufficient for every artefact we write).
//
// JsonReader is the lexer of every document but one. Json::parse builds
// its tree from the reader's tokens; the model bundle's pull pass skips
// the tree for its bulk and pulls the tokens itself, and pull_last_member
// reads an object's small members with Json::read, so a document's
// grammar, its number conversion and its error texts are the same
// whichever reads it. The exception is the serve daemon's plain select
// line: detail::SelectScanner (src/core/serve.cpp) is a second lexer, kept
// on purpose. It accepts only the one flat shape every hot select has and
// hands anything else to Json::parse, so it never reports an error of its
// own, and on that shape it takes about half the time of a scan built on
// JsonReader: 108-114 against 212-221 ns per select, and 82-144 against
// 204-259 ns in a rerun (one million lines, 4-vCPU Xeon, gcc 12.2).
#pragma once

#include <bitset>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/error.hpp"

namespace pml {

class Json;

/// Pull tokenizer over JSON text. next() checks the grammar as it goes and
/// throws JsonError("<what> at offset N") at the first malformed byte, the
/// error Json::parse reports for the same text.
class JsonReader {
 public:
  /// kKey is an object member's key (its value follows); kEnd, that the
  /// document is complete.
  enum class Token : std::uint8_t {
    kNull, kFalse, kTrue, kNumber, kString, kKey,
    kBeginArray, kEndArray, kBeginObject, kEndObject, kEnd,
  };

  /// Reads the whole document `text`: one value, then only whitespace.
  explicit JsonReader(std::string_view text = {}) noexcept : text_(text) {}

  /// The next token; kEnd once the value is complete. Throws JsonError on
  /// malformed input, after which failed() is true.
  Token next();

  /// After kBeginArray: reads the array's elements while they are numbers,
  /// appending each to `out`, and returns the token that stopped it
  /// (kEndArray when all were). The tokens and errors of next(), faster.
  Token next_numbers(std::vector<double>& out);

  /// Value of the kNumber just read.
  double number() const noexcept { return number_; }
  /// The kString or kKey just read, unescaped. Valid until the next call.
  std::string_view string() const noexcept { return string_; }

  /// Byte offset where the next token's text (or its leading whitespace)
  /// starts: after a kKey, where the member's value starts.
  std::size_t offset() const noexcept { return pos_; }
  std::string_view text() const noexcept { return text_; }
  bool failed() const noexcept { return failed_; }

  /// Given the token next() just returned, read through the rest of its
  /// value: a container up to its closing bracket, a scalar not at all.
  void skip(Token token) {
    if (token == Token::kBeginArray || token == Token::kBeginObject) {
      for (const int depth = depth_ - 1; depth_ > depth;) next();
    }
  }

  /// Nesting bound: adversarial input ("[[[[..." from a network peer) hits
  /// a JsonError here long before any recursive reader of the tokens could
  /// exhaust its stack. Far beyond any artifact or protocol document.
  static constexpr int kMaxDepth = 192;

 private:
  /// What comes next: a value; after '[' a value or ']'; after '{' a key
  /// or '}'; after a value ',' or a closing bracket, or the end.
  enum class State : std::uint8_t {
    kValue, kArrayFirst, kObjectFirst, kAfterValue, kDone,
  };

  [[noreturn]] void fail(const std::string& what);
  void skip_ws() noexcept {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char peek();
  void expect(char c);
  Token value();
  Token key();
  Token open(bool array);
  Token close(Token token) noexcept {
    --depth_;
    state_ = State::kAfterValue;
    return token;
  }
  Token literal(std::string_view word, Token token);
  void read_string();
  Token read_number();

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  State state_ = State::kValue;
  bool failed_ = false;
  double number_ = 0.0;
  std::string_view string_;
  std::string unescaped_;  ///< string_'s bytes when the token had escapes
  std::bitset<kMaxDepth + 1> in_array_;  ///< open container kinds by depth
};

/// Order-preserving string->Json map (insertion order kept for stable dumps).
class JsonObject {
 public:
  Json& operator[](const std::string& key);
  const Json& at(const std::string& key) const;
  bool contains(const std::string& key) const noexcept;
  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }

  auto begin() const noexcept { return entries_.begin(); }
  auto end() const noexcept { return entries_.end(); }
  auto begin() noexcept { return entries_.begin(); }
  auto end() noexcept { return entries_.end(); }

 private:
  friend class Json;  // Json::read builds entries_ at their exact size

  std::vector<std::pair<std::string, Json>> entries_;
};

/// A JSON value: null, bool, number, string, array, or object.
class Json {
 public:
  using Array = std::vector<Json>;

  Json() noexcept : value_(nullptr) {}
  Json(std::nullptr_t) noexcept : value_(nullptr) {}
  Json(bool b) noexcept : value_(b) {}
  Json(double d) noexcept : value_(d) {}
  Json(int i) noexcept : value_(static_cast<double>(i)) {}
  Json(unsigned i) noexcept : value_(static_cast<double>(i)) {}
  Json(long i) noexcept : value_(static_cast<double>(i)) {}
  Json(unsigned long i) noexcept : value_(static_cast<double>(i)) {}
  Json(long long i) noexcept : value_(static_cast<double>(i)) {}
  Json(unsigned long long i) noexcept : value_(static_cast<double>(i)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(Array a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  static Json object() { return Json(JsonObject{}); }
  static Json array() { return Json(Array{}); }

  bool is_null() const noexcept { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const noexcept { return std::holds_alternative<bool>(value_); }
  bool is_number() const noexcept { return std::holds_alternative<double>(value_); }
  bool is_string() const noexcept { return std::holds_alternative<std::string>(value_); }
  bool is_array() const noexcept { return std::holds_alternative<Array>(value_); }
  bool is_object() const noexcept { return std::holds_alternative<JsonObject>(value_); }

  bool as_bool() const { return get<bool>("bool"); }
  double as_number() const { return get<double>("number"); }
  /// Integral view of a number. Throws JsonError when the value does not
  /// fit in int64 (NaN, ±inf, |x| >= 2^63): casting such doubles is UB,
  /// and every legitimate artifact field is far below the limit.
  std::int64_t as_int() const;
  const std::string& as_string() const { return get<std::string>("string"); }
  const Array& as_array() const { return get<Array>("array"); }
  Array& as_array() { return get<Array>("array"); }
  const JsonObject& as_object() const { return get<JsonObject>("object"); }
  JsonObject& as_object() { return get<JsonObject>("object"); }

  /// Object access; creates the key if the value is an object.
  Json& operator[](const std::string& key) { return as_object()[key]; }
  const Json& at(const std::string& key) const { return as_object().at(key); }
  bool contains(const std::string& key) const {
    return is_object() && as_object().contains(key);
  }

  /// Array append.
  void push_back(Json v) { as_array().push_back(std::move(v)); }

  /// Serialize. indent < 0 → compact single-line output. A -0.0 prints
  /// as 0, the bytes every artifact has always carried.
  std::string dump(int indent = -1) const;

  /// Parse a complete JSON document; throws JsonError on malformed input.
  static Json parse(std::string_view text);
  /// The value whose first token `first` the reader just returned.
  static Json read(JsonReader& reader, JsonReader::Token first);

  friend bool operator==(const Json& a, const Json& b) noexcept {
    return a.value_ == b.value_;
  }

 private:
  /// read() without its scratch release, once per nested value.
  static Json build(JsonReader& reader, JsonReader::Token first);

  template <typename T>
  const T& get(const char* name) const {
    if (const T* p = std::get_if<T>(&value_)) return *p;
    throw JsonError(std::string("value is not a ") + name);
  }
  template <typename T>
  T& get(const char* name) {
    if (T* p = std::get_if<T>(&value_)) return *p;
    throw JsonError(std::string("value is not a ") + name);
  }

  std::variant<std::nullptr_t, bool, double, std::string, Array, JsonObject>
      value_;
};

inline bool operator==(const JsonObject& a, const JsonObject& b) noexcept {
  if (a.size() != b.size()) return false;
  auto ita = a.begin();
  auto itb = b.begin();
  for (; ita != a.end(); ++ita, ++itb) {
    if (ita->first != itb->first || !(ita->second == itb->second)) return false;
  }
  return true;
}

/// Pulls the object `reader` is at up to its member `last`, which must be
/// its last: the members before it are read into a Json object (a repeated
/// key keeps its first position and takes its last value, as Json::parse
/// does), `pull(head)` reads `last`'s value from the reader, and the object
/// must close after it. Throws JsonError when the value is not an object,
/// has no member `last`, or a member follows it.
template <typename Pull>
auto pull_last_member(JsonReader& reader, std::string_view last, Pull&& pull) {
  using Token = JsonReader::Token;
  if (reader.next() != Token::kBeginObject) {
    throw JsonError("value is not a object");
  }
  Json head = Json::object();
  while (true) {
    if (reader.next() != Token::kKey) {
      throw JsonError("missing key: " + std::string(last));
    }
    if (reader.string() == last) break;
    const std::string key(reader.string());
    head[key] = Json::read(reader, reader.next());
  }
  auto value = pull(head);
  if (reader.next() != Token::kEndObject) {
    throw JsonError("member " + std::string(last) + " is not the last");
  }
  return value;
}

}  // namespace pml
