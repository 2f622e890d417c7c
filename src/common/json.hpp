// Minimal JSON value type with parser and serializer.
//
// The tuning framework ships its artefacts (tuning tables, trained models,
// cluster descriptions) as JSON, exactly as the paper's framework emits
// "tuning tables ... stored in a readily accessible JSON format". This is a
// deliberately small, dependency-free implementation: objects preserve
// insertion order (stable, diff-able output) and numbers are stored as
// double (sufficient for every artefact we write).
#pragma once

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

namespace detail {
class JsonParser;
}  // namespace detail

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
  friend class detail::JsonParser;  // builds entries_ at their exact size

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

  /// Serialize. indent < 0 → compact single-line output.
  std::string dump(int indent = -1) const;

  /// Parse a complete JSON document; throws JsonError on malformed input.
  static Json parse(std::string_view text);

  friend bool operator==(const Json& a, const Json& b) noexcept {
    return a.value_ == b.value_;
  }

 private:
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

}  // namespace pml
