#include "common/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace pml {
namespace {

TEST(Json, DefaultIsNull) {
  Json j;
  EXPECT_TRUE(j.is_null());
  EXPECT_FALSE(j.is_object());
}

TEST(Json, ScalarRoundTrips) {
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(nullptr).dump(), "null");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-7).dump(), "-7");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, DoubleSerialization) {
  EXPECT_EQ(Json(2.5).dump(), "2.5");
  EXPECT_EQ(Json(1e15).dump(), "1000000000000000");
  // Integral doubles print without a fraction.
  EXPECT_EQ(Json(1024.0).dump(), "1024");
}

TEST(Json, NonFiniteThrows) {
  EXPECT_THROW(Json(std::numeric_limits<double>::infinity()).dump(), JsonError);
  EXPECT_THROW(Json(std::numeric_limits<double>::quiet_NaN()).dump(), JsonError);
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Json j = Json::object();
  j["zebra"] = 1;
  j["apple"] = 2;
  j["mango"] = 3;
  EXPECT_EQ(j.dump(), R"({"zebra":1,"apple":2,"mango":3})");
}

TEST(Json, ObjectAccessors) {
  Json j = Json::object();
  j["x"] = 5;
  EXPECT_TRUE(j.contains("x"));
  EXPECT_FALSE(j.contains("y"));
  EXPECT_EQ(j.at("x").as_int(), 5);
  EXPECT_THROW(j.at("y"), JsonError);
}

TEST(Json, ArrayBuildAndAccess) {
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back("two");
  arr.push_back(Json::array());
  EXPECT_EQ(arr.as_array().size(), 3u);
  EXPECT_EQ(arr.dump(), R"([1,"two",[]])");
}

TEST(Json, TypeMismatchThrows) {
  Json j(3.5);
  EXPECT_THROW(j.as_string(), JsonError);
  EXPECT_THROW(j.as_array(), JsonError);
  EXPECT_THROW(Json("s").as_number(), JsonError);
}

TEST(Json, StringEscapes) {
  Json j(std::string("a\"b\\c\nd\te"));
  const std::string dumped = j.dump();
  EXPECT_EQ(dumped, "\"a\\\"b\\\\c\\nd\\te\"");
  EXPECT_EQ(Json::parse(dumped).as_string(), "a\"b\\c\nd\te");
}

TEST(Json, ParseScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("-12.5e2").as_number(), -1250.0);
  EXPECT_EQ(Json::parse("  \"x\"  ").as_string(), "x");
}

TEST(Json, ParseNested) {
  const Json j = Json::parse(R"({"a": [1, {"b": null}], "c": {"d": 2}})");
  EXPECT_EQ(j.at("a").as_array().size(), 2u);
  EXPECT_TRUE(j.at("a").as_array()[1].at("b").is_null());
  EXPECT_EQ(j.at("c").at("d").as_int(), 2);
}

TEST(Json, ParseUnicodeEscape) {
  EXPECT_EQ(Json::parse(R"("A")").as_string(), "A");
  EXPECT_EQ(Json::parse(R"("é")").as_string(), "\xc3\xa9");
}

TEST(Json, ParseErrors) {
  EXPECT_THROW(Json::parse(""), JsonError);
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("[1,]"), JsonError);
  EXPECT_THROW(Json::parse("tru"), JsonError);
  EXPECT_THROW(Json::parse("1 2"), JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), JsonError);
}

TEST(Json, DeepNestingIsBoundedNotStackOverflow) {
  // 100k unclosed brackets used to recurse once per level; the parser
  // now fails structurally at its depth bound instead of crashing.
  EXPECT_THROW(Json::parse(std::string(100'000, '[')), JsonError);
  EXPECT_THROW(Json::parse(std::string(100'000, '{')), JsonError);
  std::string alternating;
  for (int i = 0; i < 50'000; ++i) alternating += "[{\"k\":";
  EXPECT_THROW(Json::parse(alternating), JsonError);

  // Nesting under the bound still parses.
  std::string shallow(64, '[');
  shallow += "1";
  shallow.append(64, ']');
  EXPECT_EQ(Json::parse(shallow).as_array().size(), 1u);
}

TEST(Json, AsIntRejectsValuesOutsideInt64) {
  EXPECT_THROW(Json::parse("1e300").as_int(), JsonError);
  EXPECT_THROW(Json::parse("-1e300").as_int(), JsonError);
  EXPECT_THROW(Json::parse("9223372036854775808").as_int(), JsonError);
  EXPECT_EQ(Json::parse("-9223372036854775808").as_int(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(Json::parse("4611686018427387904").as_int(),
            std::int64_t{1} << 62);
  EXPECT_EQ(Json::parse("-42").as_int(), -42);
}

TEST(Json, RoundTripComplexDocument) {
  Json doc = Json::object();
  doc["name"] = "cluster";
  doc["sizes"] = Json::array();
  for (int i = 0; i < 8; ++i) doc["sizes"].push_back(1 << i);
  doc["nested"] = Json::object();
  doc["nested"]["flag"] = true;
  doc["nested"]["ratio"] = 0.125;

  const Json reparsed = Json::parse(doc.dump());
  EXPECT_EQ(reparsed, doc);
  const Json pretty = Json::parse(doc.dump(2));
  EXPECT_EQ(pretty, doc);
}

TEST(Json, PrettyPrintIndents) {
  Json doc = Json::object();
  doc["k"] = Json::array();
  doc["k"].push_back(1);
  EXPECT_EQ(doc.dump(2), "{\n  \"k\": [\n    1\n  ]\n}");
}

TEST(Json, EqualityIsStructural) {
  EXPECT_EQ(Json::parse("[1,2]"), Json::parse("[1, 2]"));
  EXPECT_FALSE(Json::parse("[1,2]") == Json::parse("[2,1]"));
}

/// What dump() printed before it moved to std::to_chars, kept here as the
/// oracle: "%lld" for integral values below 1e15, "%.17g" otherwise.
std::string printf_number(double d) {
  char buf[48];
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(d));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", d);
  }
  return buf;
}

TEST(Json, NumberDumpMatchesPrintfOracle) {
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.5, 0.1, 1.0 / 3.0, 2.0 / 3.0, 72.55, 19.32,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::nextafter(std::numeric_limits<double>::min(), 0.0),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::epsilon(),
      9007199254740991.0, 9007199254740992.0, 9007199254740994.0,
      -9007199254740991.0, -9007199254740992.0,
      1e15, -1e15, 999999999999999.0, -999999999999999.0,
      std::nextafter(1e15, 0.0), std::nextafter(-1e15, 0.0),
      std::nextafter(1e15, 2e15), 1e15 - 0.5, 1e15 + 1.0,
      9223372036854775807.0, -9223372036854775808.0, 1e300, -1e-300};
  Rng rng(2024);
  for (int i = 0; i < 50'000; ++i) {
    // Any finite bit pattern: covers every exponent, subnormals included.
    const double any = std::bit_cast<double>(rng());
    if (std::isfinite(any)) values.push_back(any);
    // A uniform mantissa at a uniform binary exponent in [-1074, 1023].
    const int exponent = static_cast<int>(rng.uniform_index(2098)) - 1074;
    values.push_back(std::ldexp(rng.uniform(1.0, 2.0), exponent));
    // Integers around the 1e15 switch and the 2^53 exactness limit.
    const auto near = static_cast<double>(rng.uniform_index(1ULL << 54));
    values.push_back(rng() & 1 ? near : -near);
    values.push_back(std::floor(rng.uniform(-2e15, 2e15)));
    // Probabilities like the ones forest leaves carry.
    values.push_back(static_cast<double>(rng.uniform_index(50)) /
                     static_cast<double>(1 + rng.uniform_index(200)));
  }
  for (const double d : values) {
    ASSERT_EQ(Json(d).dump(), printf_number(d)) << std::hexfloat << d;
  }
}

/// The number grammar before the integer fast path: the token's
/// characters, all of them converted by std::from_chars.
std::optional<double> from_chars_number(std::string_view token) {
  double value = 0.0;
  const char* first = token.data();
  const char* last = first + token.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || ptr != last || first == last) return std::nullopt;
  return value;
}

TEST(Json, IntegerFastPathMatchesFromChars) {
  std::vector<std::string> tokens = {
      "0", "-0", "00", "-00", "007", "-007", "1", "-1", "9", "10",
      "123456789012345", "-123456789012345", "999999999999999",
      "1000000000000000", "9007199254740993", "-9007199254740993",
      "12345678901234567890", "-12345678901234567890",
      "99999999999999999999", "+1", "+0", "-", "+", "--1", "-+1", "1-",
      "1+", "1.", "-1.", "1e", "1e+", "1e5", "1E5", "-0e0", "1.0", "0.5",
      ".5", "-.5", "1.5e", "1..2", "1e5e5", "1-2"};
  Rng rng(7);
  for (int digits = 1; digits <= 20; ++digits) {
    for (int k = 0; k < 200; ++k) {
      std::string token;
      for (int i = 0; i < digits; ++i) {
        token += static_cast<char>('0' + rng.uniform_index(10));
      }
      tokens.push_back(token);
      tokens.push_back("-" + token);
    }
  }
  for (const std::string& token : tokens) {
    const std::optional<double> want = from_chars_number(token);
    // Bare, and as the second element of an array: the same value or the
    // same error at the same offset.
    for (const auto& [text, offset] :
         {std::pair{token, 0}, std::pair{"[1, " + token + "]", 4}}) {
      std::optional<double> got;
      std::string error;
      try {
        const Json doc = Json::parse(text);
        got = (doc.is_array() ? doc.as_array().back() : doc).as_number();
      } catch (const JsonError& err) {
        error = err.what();
      }
      ASSERT_EQ(got.has_value(), want.has_value()) << text;
      if (want) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(*got),
                  std::bit_cast<std::uint64_t>(*want))
            << text;
      } else {
        EXPECT_NE(error.find("invalid number at offset " +
                             std::to_string(offset)),
                  std::string::npos)
            << text << ": " << error;
      }
    }
  }
}

}  // namespace
}  // namespace pml
