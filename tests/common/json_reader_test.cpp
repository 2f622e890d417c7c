// JsonReader, the one JSON lexer: Json::parse is built on its tokens, and
// the model reader and the select scanner pull them directly. These cases
// hold every reader of the tokens to one verdict per document: a tree
// assembled from next() here equals Json::parse's, or both fail with the
// same text and offset; and over a fixed corpus both equal the verdicts
// of the recursive-descent parser the reader replaced, pinned below.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/artifact.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace pml {
namespace {

using Token = JsonReader::Token;

/// A tree assembled from the reader's tokens without Json::read: the
/// reference a second reader of the same tokens must agree with.
Json assemble(JsonReader& reader, Token token) {
  switch (token) {
    case Token::kNull: return Json(nullptr);
    case Token::kFalse: return Json(false);
    case Token::kTrue: return Json(true);
    case Token::kNumber: return Json(reader.number());
    case Token::kString: return Json(std::string(reader.string()));
    case Token::kBeginArray: {
      Json array = Json::array();
      for (Token t; (t = reader.next()) != Token::kEndArray;) {
        array.push_back(assemble(reader, t));
      }
      return array;
    }
    default: break;
  }
  EXPECT_EQ(token, Token::kBeginObject);
  Json object = Json::object();
  while (reader.next() == Token::kKey) {
    const std::string key(reader.string());
    object[key] = assemble(reader, reader.next());  // last value, first place
  }
  return object;
}

/// "ok:" plus the compact dump, or "error:" plus the JsonError text.
std::string parse_verdict(const std::string& text) {
  try {
    return "ok:" + Json::parse(text).dump();
  } catch (const JsonError& err) {
    return std::string("error:") + err.what();
  }
}

std::string pull_verdict(const std::string& text) {
  try {
    JsonReader reader(text);
    const Json value = assemble(reader, reader.next());
    EXPECT_EQ(reader.next(), Token::kEnd) << text;
    return "ok:" + value.dump();
  } catch (const JsonError& err) {
    return std::string("error:") + err.what();
  }
}

/// `line` after 1-4 seeded single-byte flips, inserts or deletes.
std::string garble(std::string line, std::uint64_t& state) {
  const int edits = 1 + static_cast<int>(splitmix64(state) % 4);
  for (int e = 0; e < edits && !line.empty(); ++e) {
    const std::size_t at = splitmix64(state) % line.size();
    switch (splitmix64(state) % 3) {
      case 0: line[at] = static_cast<char>(splitmix64(state) & 0xff); break;
      case 1:
        line.insert(at, 1, static_cast<char>(splitmix64(state) & 0xff));
        break;
      default: line.erase(at, 1); break;
    }
  }
  return line;
}

/// The documents of json_test.cpp, the serve fuzz shapes (random bytes,
/// garbled requests, pathological numbers, broken UTF-8, deep nesting) and
/// a garbled model-bundle fragment, 1,832 in all.
std::vector<std::string> corpus() {
  std::vector<std::string> docs = {
      "null", "true", "false", "-12.5e2", "  \"x\"  ", "42", "-7", "2.5",
      R"({"a": [1, {"b": null}], "c": {"d": 2}})", R"("A")", R"("é")",
      R"("a\"b\\c\nd\te")", "", "{", "[1,]", "tru", "1 2", "\"unterminated",
      "{\"a\" 1}", "[1,2]", "[1, 2]", "[2,1]", "{}", "[]", "[[]]", "{\"k\":[1]}",
      R"({"a":1,"a":2})", R"({"a":1,"b":2,"a":3})", "nul", "fals", "[1 2]",
      "{\"a\":1 \"b\":2}", "{1:2}", "{\"a\":}", "[,1]", "\"\\x\"", "\"\\u12\"",
      "\"\\u12g4\"", "\"\\", "\"abc\\", "-", "+1", "01", "1.", ".5", "1e5e5",
      "1e400", "-0", "1e-400", "[-]", "{\"a\"", "{\"a\":", "[1,", "\t\n\r 7 ",
      "\"\\ud83d\\ude00\"", "\"\\/\\b\\f\"", R"({"op":"select","nodes":2})",
      std::string(193, '[') + std::string(193, ']'),
      std::string(192, '[') + std::string(192, ']'),
      std::string(191, '[') + "1" + std::string(191, ']'),
      std::string(192, '[') + "1" + std::string(192, ']'),
      std::string(300, '{'), std::string(1000, '['), std::string("\0", 1),
      std::string("[1,\0]", 5), std::string("\"a\0b\"", 5)};
  for (const char* number :
       {"1e308", "1e309", "-1e308", "9223372036854775808",
        "18446744073709551616", "-9223372036854775809", "1e-300", "0.5", "-1",
        "-0", "1e999999", "123456789012345678901234567890", "0x10", "1_000",
        "Infinity", "NaN", "-Infinity", "1e", "1e+", "--1", "1-2"}) {
    docs.push_back(number);
    docs.push_back(std::string(R"({"op":"select","nodes":)") + number + "}");
  }
  for (const std::string& bytes :
       {std::string("\xff\xfe\xfd"), std::string("\xc3"),
        std::string("\xe2\x82"), std::string("a\x00vb", 4),
        std::string("\x01\x02\x03\x1f"), std::string("\xed\xa0\x80")}) {
    docs.push_back(bytes);
    docs.push_back(R"({"cluster":")" + bytes + R"("})");
  }
  std::uint64_t state = 0x5eedf00d2024ULL;
  for (int i = 0; i < 512; ++i) {
    std::string line(splitmix64(state) % 256, ' ');
    for (char& c : line) c = static_cast<char>(splitmix64(state) & 0xff);
    docs.push_back(line);
  }
  const std::vector<std::string> seeds = {
      R"({"op":"select","cluster":"MRI","collective":"allgather","nodes":2,"ppn":16,"msg_bytes":1024})",
      R"({"op":"table","cluster":"RI","wait":true,"deadline_ms":1.5e3})",
      R"({"op":"stats"})",
      R"({"k":"tr\u0065es","v":[1,-2.5,3e-7,null,true,{"x":[]}]})",
      R"({"depth":3,"feature":[0,-1,1,-1,-1],"threshold":[0.5,2.25],"leaf_nnz":[1,2,1],"leaf_class":[0,0,2,1],"leaf_proba":[1,0.5,0.5,1]})",
  };
  state = 0xfacadeULL;
  for (int i = 0; i < 1200; ++i) {
    docs.push_back(garble(seeds[splitmix64(state) % seeds.size()], state));
  }
  return docs;
}

TEST(JsonReader, TokensRebuildWhatParseReturnsOrFailTheSameWay) {
  for (const std::string& doc : corpus()) {
    ASSERT_EQ(pull_verdict(doc), parse_verdict(doc)) << doc;
  }
}

TEST(JsonReader, CorpusVerdictsMatchTheReplacedParser) {
  // FNV-1a over every corpus verdict, one per line, as the recursive
  // descent parser this reader replaced returned them.
  constexpr std::uint64_t kParentVerdicts = 0xa7a00af47a026b97ULL;
  std::string all;
  for (const std::string& doc : corpus()) all += parse_verdict(doc) + "\n";
  EXPECT_EQ(fnv1a64(all), kParentVerdicts);
}

TEST(JsonReader, ErrorTextsAndOffsets) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"", "unexpected end of input at offset 0"},
      {"[1,]", "invalid number at offset 3"},
      {"{\"a\" 1}", "expected ':' at offset 5"},
      {"[1 2]", "expected ',' or ']' in array at offset 4"},
      {"{\"a\":1 \"b\":2}", "expected ',' or '}' in object at offset 8"},
      {"{1:2}", "expected '\"' at offset 1"},
      {"tru", "invalid literal at offset 0"},
      {"1 2", "trailing characters after document at offset 2"},
      {"\"abc", "unterminated string at offset 4"},
      {"\"\\", "unterminated escape at offset 2"},
      {"\"\\q\"", "invalid escape character at offset 3"},
      {"\"\\u12\"", "truncated \\u escape at offset 3"},
      {"\"\\u12g4\"", "invalid hex digit in \\u escape at offset 6"},
      {std::string(193, '['), "nesting deeper than 192 levels at offset 192"},
  };
  for (const auto& [text, want] : cases) {
    EXPECT_EQ(parse_verdict(text), "error:json: " + want) << text;
    EXPECT_EQ(pull_verdict(text), "error:json: " + want) << text;
  }
}

TEST(JsonReader, FailureIsSticky) {
  JsonReader reader("[1,}");
  EXPECT_EQ(reader.next(), Token::kBeginArray);
  EXPECT_EQ(reader.next(), Token::kNumber);
  EXPECT_FALSE(reader.failed());
  EXPECT_THROW(reader.next(), JsonError);
  EXPECT_TRUE(reader.failed());
}

TEST(JsonReader, StringsViewTheTextUnlessEscaped) {
  const std::string text = R"(["plain","es\"caped"])";
  JsonReader reader(text);
  ASSERT_EQ(reader.next(), Token::kBeginArray);
  ASSERT_EQ(reader.next(), Token::kString);
  EXPECT_EQ(reader.string(), "plain");
  EXPECT_EQ(reader.string().data(), text.data() + 2);
  ASSERT_EQ(reader.next(), Token::kString);
  EXPECT_EQ(reader.string(), "es\"caped");
}

TEST(JsonReader, SkipValidatesWhatItPasses) {
  JsonReader good(R"([[1,{"a":[true]}],2])");
  ASSERT_EQ(good.next(), Token::kBeginArray);
  good.skip(good.next());
  EXPECT_EQ(good.next(), Token::kNumber);
  EXPECT_EQ(good.number(), 2.0);

  JsonReader bad(R"([[1,{"a":[tru]}],2])");
  ASSERT_EQ(bad.next(), Token::kBeginArray);
  const Token inner = bad.next();
  EXPECT_THROW(bad.skip(inner), JsonError);
}

/// pull_last_member's verdict on `text`: the head's dump and the last
/// member's sum, or the JsonError text.
std::string pull_sum(const std::string& text) {
  try {
    JsonReader reader(text);
    const std::string got =
        pull_last_member(reader, "items", [&](const Json& head) {
          const Json items = Json::read(reader, reader.next());
          double sum = 0;
          for (const Json& item : items.as_array()) sum += item.as_number();
          return head.dump() + " " + Json(sum).dump();
        });
    EXPECT_EQ(reader.next(), Token::kEnd) << text;
    return got;
  } catch (const JsonError& err) {
    return std::string("error:") + err.what();
  }
}

TEST(JsonReader, PullLastMemberReadsTheHeadAsParseDoes) {
  EXPECT_EQ(pull_sum(R"({"n":2,"items":[1,2,3]})"), R"({"n":2} 6)");
  // A repeated head key keeps its first position and its last value.
  EXPECT_EQ(pull_sum(R"({"n":1,"m":0,"n":3,"items":[]})"), R"({"n":3,"m":0} 0)");
  EXPECT_EQ(pull_sum(R"({"items":[1]})"), "{} 1");
  // The last member must be there, and last.
  EXPECT_EQ(pull_sum(R"({"n":2})"), "error:json: missing key: items");
  EXPECT_EQ(pull_sum(R"({"items":[1],"n":2})"),
            "error:json: member items is not the last");
  EXPECT_EQ(pull_sum(R"({"items":[9],"items":[1]})"),
            "error:json: member items is not the last");
  EXPECT_EQ(pull_sum("[1]"), "error:json: value is not a object");
  // A syntax error fails as Json::parse fails.
  const std::string broken = R"({"n":[1,},"items":[]})";
  EXPECT_EQ(pull_sum(broken), parse_verdict(broken));
}

}  // namespace
}  // namespace pml
