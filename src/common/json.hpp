// Minimal JSON value type with a pull tokenizer and a serializer.
//
// The tuning framework ships its artefacts (tuning tables, trained models,
// cluster descriptions) as JSON, exactly as the paper's framework emits
// "tuning tables ... stored in a readily accessible JSON format". This is a
// deliberately small, dependency-free implementation: objects preserve
// insertion order (stable, diff-able output) and numbers are stored as
// double (sufficient for every artefact we write).
//
// JsonReader is the only lexer. Json::parse builds its tree from the
// reader's tokens; readers that need no tree (model bundles, select
// requests) pull the tokens themselves, so a document's grammar, its
// number conversion and its error texts are the same whichever reads it.
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
  /// document (or at()'s one value) is complete.
  enum class Token : std::uint8_t {
    kNull, kFalse, kTrue, kNumber, kString, kKey,
    kBeginArray, kEndArray, kBeginObject, kEndObject, kEnd,
  };

  /// Reads the whole document `text`: one value, then only whitespace.
  explicit JsonReader(std::string_view text = {}) noexcept : text_(text) {}

  /// Reads the one value that starts at byte `offset` of `text` (an
  /// offset() an earlier reader reported) and ignores what follows it.
  static JsonReader at(std::string_view text, std::size_t offset) noexcept {
    JsonReader reader(text);
    reader.pos_ = offset;
    reader.whole_ = false;
    return reader;
  }

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
  bool whole_ = true;
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
  /// Compact dump that prints -0.0 as -0, so parsing it restores every
  /// number bit for bit.
  std::string dump_lossless() const;

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

/// The members of one object in a JsonReader's text, as Json keeps them (a
/// repeated key holds its first position and takes its last value), each
/// value left unread at its byte offset. Lets a reader that makes one pass
/// visit members in its own order: reader() and value() find a member as
/// Json::at() does, with its errors.
class JsonFields {
 public:
  /// Gathers the value `reader` is at, pulling its first token. With
  /// `stop`, gathering pauses at the member of that name, `reader` at its
  /// value (stopped()); close() then requires the object to end there.
  explicit JsonFields(JsonReader& reader, const char* stop = nullptr);
  explicit JsonFields(JsonReader&& reader) : JsonFields(reader) {}

  bool is_object() const noexcept { return object_; }
  bool stopped() const noexcept { return stopped_; }
  /// Byte offset of the gathered value.
  std::size_t offset() const noexcept { return offset_; }
  bool contains(std::string_view key) const noexcept;
  /// A reader at member `key`'s value; throws as Json::at(key) does.
  JsonReader reader(std::string_view key) const;
  /// Member `key`'s value as a Json.
  Json value(std::string_view key) const;

  /// (key, value offset) in first-position order.
  auto begin() const noexcept { return members_.begin(); }
  auto end() const noexcept { return members_.end(); }

  /// After the stop member's value: the object must close next, or a
  /// later member could override what was read (throws JsonReorder).
  void close(JsonReader& reader) const;

 private:
  std::string_view text_;
  std::size_t offset_;
  bool object_ = false;
  bool stopped_ = false;
  std::vector<std::pair<std::string, std::size_t>> members_;
};

/// Thrown by a one-pass read that met a member order only a read by offset
/// takes in the DOM's order; decode_json() then reads again by offset.
struct JsonReorder {};

/// Runs `decode(reader, in_place)` on the value `reader` is at, returning
/// what Json::parse plus a DOM decoder would, verdicts included. The first
/// pass reads in place, in one sweep of the text, and after the value only
/// closing brackets may follow. If it throws anything but a syntax error,
/// the whole text is checked and the value decoded again from its offset
/// with in_place = false: the first syntax error anywhere wins, then the
/// decoder's own checks in its own order.
template <typename Decode>
auto decode_json(JsonReader& reader, Decode&& decode) {
  using Token = JsonReader::Token;
  const std::size_t offset = reader.offset();
  try {
    auto value = decode(reader, true);
    for (Token t; (t = reader.next()) != Token::kEnd;) {
      if (t != Token::kEndArray && t != Token::kEndObject) throw JsonReorder{};
    }
    return value;
  } catch (const Error&) {
    if (reader.failed()) throw;
  } catch (const JsonReorder&) {
  }
  for (JsonReader whole(reader.text()); whole.next() != Token::kEnd;) {
  }
  JsonReader again = JsonReader::at(reader.text(), offset);
  return decode(again, false);
}

}  // namespace pml
