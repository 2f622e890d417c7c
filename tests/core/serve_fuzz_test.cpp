// Adversarial-input matrix for ServeEngine::handle_line: random bytes,
// deeply nested and truncated JSON, huge numbers, invalid UTF-8,
// shuffled/garbled real requests. The contract under test is absolute —
// every input line yields exactly one parseable {"ok":...} reply line,
// and nothing ever throws or crashes the engine. Seeded with splitmix64
// so a failure reproduces from the printed case index.
//
// The ServeFastPath cases hold the single-pass select scanner to the Json
// DOM path it bypasses: the same request must get the same reply bytes
// whichever path reads it.
#include "core/serve.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/artifact.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/serve_internal.hpp"

namespace pml::core {
namespace {

/// Model-less engine: the heuristic floor answers everything, so the
/// fuzz loop exercises parsing/validation without paying for compiles.
ServeOptions fuzz_options() {
  ServeOptions o;
  o.async_compile = false;
  o.compile = CompileOptions::sweep({2}, {16}, {1024});
  return o;
}

/// The one invariant: a structured reply, never an exception. Replies to
/// broken input must be ok:false with the error taxonomy attached.
void expect_structured_reply(ServeEngine& engine, const std::string& line,
                             const std::string& label) {
  std::string reply;
  ASSERT_NO_THROW(reply = engine.handle_line(line)) << label;
  ASSERT_FALSE(reply.empty()) << label;
  Json parsed;
  ASSERT_NO_THROW(parsed = Json::parse(reply)) << label << ": " << reply;
  ASSERT_TRUE(parsed.contains("ok")) << label << ": " << reply;
  if (!parsed.at("ok").as_bool()) {
    EXPECT_TRUE(parsed.contains("error")) << label << ": " << reply;
    EXPECT_TRUE(parsed.contains("code")) << label << ": " << reply;
    EXPECT_TRUE(parsed.contains("status")) << label << ": " << reply;
  }
}

TEST(ServeFuzz, RandomByteLinesAlwaysGetStructuredErrors) {
  ServeEngine engine(fuzz_options());
  std::uint64_t state = 0x5eedf00d2024ULL;
  for (int i = 0; i < 512; ++i) {
    const std::size_t len = splitmix64(state) % 256;
    std::string line;
    line.reserve(len);
    for (std::size_t b = 0; b < len; ++b) {
      char c = static_cast<char>(splitmix64(state) & 0xff);
      if (c == '\n') c = ' ';  // transports never hand the engine a newline
      line.push_back(c);
    }
    expect_structured_reply(engine, line, "random bytes case " +
                                              std::to_string(i));
  }
}

TEST(ServeFuzz, DeeplyNestedAndTruncatedJson) {
  ServeEngine engine(fuzz_options());
  // Nesting past the parser's depth bound, in every bracket flavor.
  expect_structured_reply(engine, std::string(100'000, '['), "deep arrays");
  expect_structured_reply(engine, std::string(100'000, '{'), "deep objects");
  std::string mixed;
  for (int i = 0; i < 50'000; ++i) mixed += "{\"op\":[";
  expect_structured_reply(engine, mixed, "deep mixed");

  // Every prefix of a valid request is itself an input the engine must
  // survive (mid-request disconnects surface exactly these).
  const std::string valid =
      R"({"op":"select","cluster":"MRI","collective":"allgather",)"
      R"("nodes":2,"ppn":16,"msg_bytes":1024,"wait":true})";
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    expect_structured_reply(engine, valid.substr(0, cut),
                            "truncation at " + std::to_string(cut));
  }
}

TEST(ServeFuzz, HugeAndPathologicalNumbers) {
  ServeEngine engine(fuzz_options());
  for (const char* number :
       {"1e308", "1e309", "-1e308", "9223372036854775808",
        "18446744073709551616", "-9223372036854775809", "1e-300", "0.5",
        "-1", "-0", "1e999999", "123456789012345678901234567890"}) {
    for (const char* field : {"nodes", "ppn", "msg_bytes", "deadline_ms"}) {
      std::string line =
          R"({"op":"select","cluster":"MRI","collective":"allgather",)"
          R"("nodes":2,"ppn":16,"msg_bytes":1024,"wait":false)";
      line += ",\"";
      line += field;
      line += "\":";
      line += number;
      line += "}";
      // Duplicate keys are fine (last wins in most parsers, first here —
      // either way the reply must be structured).
      expect_structured_reply(
          engine, line, std::string(field) + " = " + number);
    }
  }
}

TEST(ServeFuzz, InvalidUtf8AndControlBytesInStrings) {
  ServeEngine engine(fuzz_options());
  const std::vector<std::string> payloads = {
      std::string("\xff\xfe\xfd"),            // not UTF-8 at all
      std::string("\xc3"),                    // truncated 2-byte sequence
      std::string("\xe2\x82"),                // truncated 3-byte sequence
      std::string("\xf0\x9f\x92"),            // truncated 4-byte sequence
      std::string("a\x00vb", 4),              // embedded NUL
      std::string("\x01\x02\x03\x1f"),        // raw control characters
      std::string("\xed\xa0\x80"),            // UTF-16 surrogate half
  };
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    std::string line = R"({"op":"select","cluster":")";
    line += payloads[i];
    line += R"(","collective":"allgather","nodes":2,"ppn":16,)"
            R"("msg_bytes":1024})";
    expect_structured_reply(engine, line,
                            "utf8 payload " + std::to_string(i));
    // The raw bytes as the whole line, too.
    expect_structured_reply(engine, payloads[i],
                            "raw payload " + std::to_string(i));
  }
}

/// `line` after 1-4 random single-byte mutations (flip, insert, or
/// delete), with newlines dropped as a transport would.
std::string garble(std::string line, std::uint64_t& state) {
  const int edits = 1 + static_cast<int>(splitmix64(state) % 4);
  for (int e = 0; e < edits && !line.empty(); ++e) {
    const std::size_t at = splitmix64(state) % line.size();
    switch (splitmix64(state) % 3) {
      case 0:
        line[at] = static_cast<char>(splitmix64(state) & 0xff);
        break;
      case 1:
        line.insert(at, 1, static_cast<char>(splitmix64(state) & 0xff));
        break;
      default:
        line.erase(at, 1);
        break;
    }
  }
  std::erase(line, '\n');
  return line;
}

TEST(ServeFuzz, GarbledRealRequestsNeverCrash) {
  ServeEngine engine(fuzz_options());
  const std::vector<std::string> seeds = {
      R"({"op":"select","cluster":"MRI","collective":"allgather","nodes":2,"ppn":16,"msg_bytes":1024})",
      R"({"op":"table","cluster":"RI","wait":true})",
      R"({"op":"stats"})",
      R"({"op":"health"})",
      R"({"op":"ping"})",
  };
  std::uint64_t state = 0xfacadeULL;
  for (int i = 0; i < 512; ++i) {
    const std::string line =
        garble(seeds[splitmix64(state) % seeds.size()], state);
    expect_structured_reply(engine, line, "garble case " + std::to_string(i));
  }
  // The engine survived; it must still answer real requests afterwards.
  const Json pong = Json::parse(engine.handle_line(R"({"op":"ping"})"));
  EXPECT_TRUE(pong.at("ok").as_bool());
}

// --- select fast path -------------------------------------------------------

std::string pick(std::uint64_t& state, const std::vector<std::string>& from) {
  return from[splitmix64(state) % from.size()];
}

/// An integer token for nodes/ppn/msg_bytes: 0, 1-16 digits, a leading
/// zero, a value past INT_MAX, or (most often) a grid value that answers.
std::string number_token(std::uint64_t& state) {
  switch (splitmix64(state) % 6) {
    case 0:
      return "0";
    case 1: {
      const std::size_t digits = 1 + splitmix64(state) % 16;
      std::string token(1, static_cast<char>('1' + splitmix64(state) % 9));
      while (token.size() < digits) {
        token.push_back(static_cast<char>('0' + splitmix64(state) % 10));
      }
      return token;
    }
    case 2:
      return std::string(1 + splitmix64(state) % 2, '0') +
             std::to_string(1 + splitmix64(state) % 64);
    case 3:
      return std::to_string(2147483648ULL + splitmix64(state) % 10000000000ULL);
    default:
      return pick(state, {"1", "2", "4", "16", "32", "1024", "65536"});
  }
}

using SelectMembers = std::array<std::string, 6>;

/// The six members of a plain select, "key":value each, in random order:
/// known and unknown clusters and collectives, and number_token integers.
SelectMembers select_members(std::uint64_t& state) {
  SelectMembers members = {
      R"("op":"select")",
      R"("cluster":")" +
          pick(state, {"MRI", "RI", "Rome", "Nowhere", ""}) + "\"",
      R"("collective":")" +
          pick(state, {"allgather", "alltoall", "bcast", "gatherv"}) + "\"",
      R"("nodes":)" + number_token(state),
      R"("ppn":)" + number_token(state),
      R"("msg_bytes":)" + number_token(state),
  };
  for (std::size_t i = members.size() - 1; i > 0; --i) {
    std::swap(members[i], members[splitmix64(state) % (i + 1)]);
  }
  return members;
}

/// `members` as one request line, with random JSON whitespace around every
/// token. `pad` adds a seventh member, which forces the DOM path.
std::string select_line(std::uint64_t& state, const SelectMembers& members,
                        bool pad) {
  const auto space = [&state] {
    return pick(state, {"", "", "", " ", "\t", " \r\n ", "\n"});
  };
  std::string line = space() + "{";
  if (pad) line += R"("pad":0,)";
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i > 0) line += space() + ",";
    const std::size_t colon = members[i].find(':');
    line += space() + members[i].substr(0, colon) + space() + ":" + space() +
            members[i].substr(colon + 1) + space();
  }
  return line + "}" + space();
}

/// A model-backed synchronous engine with every cluster the generator
/// names as a builtin already compiled and cached, so a select hits.
class ServeFastPath : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pml_fastpath_" + std::string(::testing::UnitTest::GetInstance()
                                              ->current_test_info()
                                              ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    TrainOptions train;
    train.forest.n_trees = 4;
    const std::vector<sim::ClusterSpec> clusters = {
        sim::cluster_by_name("RI"), sim::cluster_by_name("Rome")};
    const std::string model = (dir_ / "model.json").string();
    write_artifact(model, PmlFramework::train(clusters, train).to_json(),
                   "model");
    ServeOptions o = fuzz_options();
    o.model_path = model;
    o.compile = CompileOptions::sweep({2, 4}, {16}, {1024, 65536});
    engine_ = std::make_unique<ServeEngine>(std::move(o));
    for (const std::string cluster : {"MRI", "RI", "Rome"}) {
      engine_->handle_line(R"({"op":"table","wait":true,"cluster":")" +
                           cluster + "\"}");
    }
  }
  void TearDown() override {
    engine_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::filesystem::path dir_;
  std::unique_ptr<ServeEngine> engine_;
};

/// The scanner's contract: a line it accepts is a JSON object that parses
/// to exactly the six values it read.
void expect_scan_matches_dom(const std::string& line,
                             const detail::ScannedSelect& scanned,
                             const std::string& label) {
  Json parsed;
  ASSERT_NO_THROW(parsed = Json::parse(line)) << label << ": " << line;
  ASSERT_TRUE(parsed.is_object()) << label;
  EXPECT_EQ(parsed.as_object().size(), 6u) << label;
  EXPECT_EQ(parsed.at("op").as_string(), "select") << label;
  EXPECT_EQ(parsed.at("cluster").as_string(), scanned.cluster) << label;
  EXPECT_EQ(parsed.at("collective").as_string(), scanned.collective) << label;
  EXPECT_EQ(parsed.at("nodes").as_number(),
            static_cast<double>(scanned.nodes)) << label;
  EXPECT_EQ(parsed.at("ppn").as_number(), static_cast<double>(scanned.ppn))
      << label;
  EXPECT_EQ(parsed.at("msg_bytes").as_number(),
            static_cast<double>(scanned.msg_bytes)) << label;
}

TEST_F(ServeFastPath, ScannedSelectEqualsDomSelect) {
  ServeEngine heuristic(fuzz_options());
  std::uint64_t state = 0x5ca11edULL;
  std::size_t scanned_lines = 0;
  std::size_t hits = 0;
  std::size_t compared_garbles = 0;
  for (int i = 0; i < 4096; ++i) {
    const std::string label = "case " + std::to_string(i);
    const SelectMembers members = select_members(state);
    const std::string line = select_line(state, members, /*pad=*/false);
    const std::string padded = select_line(state, members, /*pad=*/true);
    detail::ScannedSelect scanned;
    ASSERT_FALSE(detail::scan_select(padded, scanned)) << padded;
    if (detail::scan_select(line, scanned)) {
      ++scanned_lines;
      expect_scan_matches_dom(line, scanned, label);
    }
    for (ServeEngine* engine : {engine_.get(), &heuristic}) {
      const std::string reply = engine->handle_line(line);
      EXPECT_EQ(reply, engine->handle_line(padded)) << label << ": " << line;
      hits += reply.find(R"("cache":"hit")") != std::string::npos;
    }

    // The same line after random byte edits: whenever the scanner still
    // accepts it, the DOM must read it the same way.
    const std::string garbled = garble(line, state);
    if (detail::scan_select(garbled, scanned)) {
      ++compared_garbles;
      expect_scan_matches_dom(garbled, scanned, label + " garbled");
      std::string forced = garbled;
      forced.insert(forced.find('{') + 1, R"("pad":0,)");
      for (ServeEngine* engine : {engine_.get(), &heuristic}) {
        EXPECT_EQ(engine->handle_line(garbled), engine->handle_line(forced))
            << label << " garbled: " << garbled;
      }
    }
  }
  // The generator reaches both paths and the hit rung, not just errors.
  EXPECT_GT(scanned_lines, 1000u);
  EXPECT_GT(hits, 100u);
  EXPECT_GT(compared_garbles, 100u);
}

TEST(ServeFastPathScanner, AcceptsOnlyPlainSelects) {
  const std::string plain =
      R"({"op":"select","cluster":"MRI","collective":"allgather",)"
      R"("nodes":2,"ppn":16,"msg_bytes":1024})";
  detail::ScannedSelect scanned;
  ASSERT_TRUE(detail::scan_select(plain, scanned));
  EXPECT_EQ(scanned.cluster, "MRI");
  EXPECT_EQ(scanned.collective, "allgather");
  EXPECT_EQ(scanned.nodes, 2u);
  EXPECT_EQ(scanned.ppn, 16u);
  EXPECT_EQ(scanned.msg_bytes, 1024u);
  // Whitespace everywhere, a lone 0, 15 digits and an empty string are all
  // plain; a backslash anywhere in a string is not.
  const std::string spaced =
      " \t{ \"msg_bytes\" :0 ,\"ppn\":1,\"nodes\":999999999999999,"
      "\"collective\":\"\",\"cluster\":\"x\",\"op\":\"select\"}\r\n";
  ASSERT_TRUE(detail::scan_select(spaced, scanned));
  EXPECT_EQ(scanned.cluster, "x");
  EXPECT_EQ(scanned.collective, "");
  EXPECT_EQ(scanned.nodes, 999999999999999u);
  EXPECT_EQ(scanned.ppn, 1u);
  EXPECT_EQ(scanned.msg_bytes, 0u);
  std::string escaped = spaced;
  escaped.insert(escaped.find(R"("x")") + 1, "\\");
  EXPECT_FALSE(detail::scan_select(escaped, scanned)) << escaped;

  const std::string head = R"({"op":"select","cluster":"MRI",)"
                           R"("collective":"allgather","nodes":2,"ppn":16,)";
  for (const std::string& line : {
           head + R"("msg_bytes":1024,"wait":true})",
           head + R"("msg_bytes":1024,"wait":false})",
           head + R"("msg_bytes":1024,"deadline_ms":5})",
           head + R"("msg_bytes":1024,"nodes":2})",
           head + R"("msg_bytes":-1})",
           head + R"("msg_bytes":+1})",
           head + R"("msg_bytes":1.0})",
           head + R"("msg_bytes":1e3})",
           head + R"("msg_bytes":01})",
           head + R"("msg_bytes":1000000000000000})",
           head + R"("msg_bytes":"1024"})",
           head + R"("msg_bytes":null})",
           head + R"("msg_bytes":1024)",
           head + R"("msg_bytes":1024}x)",
           head + R"("msg_bytes":1024,})",
           head + R"("msg_bytes":1024}})",
           head + "}",
           std::string(R"({"op":"table","cluster":"MRI","collective":"allgather",)"
                       R"("nodes":2,"ppn":16,"msg_bytes":1024})"),
           std::string(R"({"op":"select","cluster":{"name":"MRI"},)"
                       R"("collective":"allgather","nodes":2,"ppn":16,)"
                       R"("msg_bytes":1024})"),
           std::string(R"({"op":"sel\u0065ct","cluster":"MRI",)"
                       R"("collective":"allgather","nodes":2,"ppn":16,)"
                       R"("msg_bytes":1024})"),
           std::string(R"({"op":"select","clus\ter":"MRI",)"
                       R"("collective":"allgather","nodes":2,"ppn":16,)"
                       R"("msg_bytes":1024})"),
           std::string(R"([{"op":"select","cluster":"MRI",)"
                       R"("collective":"allgather","nodes":2,"ppn":16,)"
                       R"("msg_bytes":1024}])"),
           std::string(""),
           std::string("{}"),
       }) {
    EXPECT_FALSE(detail::scan_select(line, scanned)) << line;
  }
}

}  // namespace
}  // namespace pml::core
