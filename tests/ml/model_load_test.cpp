// Model bundles read from text. PmlFramework::load_artifact verifies a
// write_artifact file on its payload bytes while its pull pass decodes
// the forests' columns straight into FlatForest, building no Json tree;
// the pull pass returns the framework the Json decoder (load()) would
// build or throws, and then, as for every other layout, parse_artifact
// and load() give the verdict. These cases hold the two readers to one
// result: byte-equal forests for pretty-printed, reordered and
// repeated-key copies, the checksum's verdict before any decode error,
// the first syntax error before any check, and over a corpus of mutated
// bundles the verdicts the Json decoder gave before the pull pass existed.
//
// This binary replaces the global operator new (bench/alloc_counter.hpp)
// to count the allocations of a load, so it holds only these cases.
#include "../../bench/alloc_counter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/artifact.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "core/framework.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"

namespace pml::core {
namespace {

PmlFramework trained(int trees) {
  TrainOptions options;
  options.forest.n_trees = trees;
  const std::vector<sim::ClusterSpec> clusters = {
      sim::cluster_by_name("RI"), sim::cluster_by_name("Rome")};
  return PmlFramework::train(clusters, options);
}

/// write_artifact's layout around a payload given as text, so a payload
/// Json cannot hold (a repeated key) still takes the writer-layout path.
std::string envelope(const std::string& payload) {
  char checksum[32];
  std::snprintf(checksum, sizeof checksum, "fnv1a64:%016llx",
                static_cast<unsigned long long>(fnv1a64(payload)));
  return R"({"format":"pml-artifact-v1","kind":"model","schema":1,"checksum":")" +
         std::string(checksum) + R"(","payload":)" + payload + "}\n";
}

/// `doc` with the members of every object in reverse order: trees before
/// num_classes, leaf_proba before feature, forest before columns,
/// collectives before format.
Json reversed(const Json& doc) {
  if (doc.is_array()) {
    Json out = Json::array();
    for (const Json& item : doc.as_array()) out.push_back(reversed(item));
    return out;
  }
  if (!doc.is_object()) return doc;
  std::vector<std::pair<std::string, Json>> entries(doc.as_object().begin(),
                                                    doc.as_object().end());
  Json out = Json::object();
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    out[it->first] = reversed(it->second);
  }
  return out;
}

/// `text` with `from` replaced by `to` at every occurrence.
std::string replace_all(std::string text, const std::string& from,
                        const std::string& to) {
  for (std::size_t at = 0; (at = text.find(from, at)) != std::string::npos;
       at += to.size()) {
    text.replace(at, from.size(), to);
  }
  return text;
}

/// "ok:" plus the loaded bundle's dump, or the error's type and text.
std::string load_verdict(const std::string& text) {
  try {
    return "ok:" + PmlFramework::load_artifact(text).to_json().dump();
  } catch (const JsonError& err) {
    return std::string("json:") + err.what();
  } catch (const Error& err) {
    return std::string("error:") + err.what();
  }
}

class ModelLoad : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { bundle_ = new Json(trained(6).to_json()); }
  static void TearDownTestSuite() { delete bundle_; }
  static const Json& bundle() { return *bundle_; }

 private:
  static Json* bundle_;
};

Json* ModelLoad::bundle_ = nullptr;

TEST_F(ModelLoad, CopiesInAnyLayoutLoadTheSameForests) {
  const std::string compact = bundle().dump();
  const std::string want = "ok:" + compact;
  EXPECT_EQ(load_verdict(envelope(compact)), want);
  // Pretty-printed: not the writer's layout, so parse_artifact checks it.
  EXPECT_EQ(load_verdict(Json::parse(envelope(compact)).dump(2)), want);
  // Members in reverse order, at every level.
  EXPECT_EQ(load_verdict(envelope(reversed(bundle()).dump())), want);
  // Repeated keys: a bogus first value at every level, the real one last.
  std::string repeated = replace_all(compact, R"({"columns":)",
                                     R"({"columns":[99],"columns":)");
  repeated = replace_all(repeated, R"("model":"random_forest",)",
                         R"("model":"random_forest","trees":[],"num_classes":0,)");
  repeated = replace_all(repeated, R"({"depth":)",
                         R"({"feature":[7,7],"leaf_proba":"x","depth":-1,"depth":)");
  repeated = R"({"collectives":{},"format":"bogus",)" + repeated.substr(1);
  ASSERT_NE(repeated.find(R"("feature":[7,7])"), std::string::npos);
  EXPECT_EQ(PmlFramework::load(Json::parse(repeated)).to_json(), bundle());
  EXPECT_EQ(load_verdict(envelope(repeated)), want);
  // A collective named twice: the first position, the last value.
  const Json& parts = bundle().at("collectives");
  const std::string first = parts.as_object().begin()->first;
  std::string twice = compact;
  twice.insert(twice.find(R"("collectives":{)") + 15,
               "\"" + first + R"(":{"columns":[]},)");
  EXPECT_EQ(PmlFramework::load(Json::parse(twice)).to_json(), bundle());
  EXPECT_EQ(load_verdict(envelope(twice)), want);
}

TEST_F(ModelLoad, EveryVerdictIsTheDomReadersVerdict) {
  const std::string compact = bundle().dump();
  // A semantic fault, with and without a checksum that covers it: the
  // checksum's verdict comes first, as after a parse of the whole file.
  const std::string bad = replace_all(compact, R"("n_features":)",
                                      R"("n_features":-3,"x":)");
  EXPECT_NE(load_verdict(envelope(bad)).find("forest has -3 features"),
            std::string::npos);
  std::string stale = envelope(compact);
  stale.replace(stale.find(compact), compact.size(), bad);
  EXPECT_NE(load_verdict(stale).find("checksum mismatch"), std::string::npos)
      << load_verdict(stale);
  // A syntax fault after a semantic one: Json::parse's error wins.
  std::string broken = compact;
  broken.insert(broken.rfind(']'), ",}");
  broken = R"({"format":"bogus",)" + broken.substr(1);
  std::string parse_error;
  try {
    Json::parse(envelope(broken));
  } catch (const JsonError& err) {
    parse_error = std::string("json:") + err.what();
  }
  ASSERT_FALSE(parse_error.empty());
  EXPECT_EQ(load_verdict(envelope(broken)), parse_error);
  // A v1 bundle: node-object trees keep their Json reader.
  Json v1 = bundle();
  v1["format"] = "pml-mpi-model-v1";
  for (auto& [name, part] : v1["collectives"].as_object()) {
    part["forest"] = PmlFramework::load(bundle()).model(
        coll::collective_from_string(name)).to_json();
  }
  EXPECT_EQ(load_verdict(envelope(v1.dump())), "ok:" + compact);
}

TEST_F(ModelLoad, WriterLayoutBuildsNoJsonTree) {
  // A Json tree of a v2 forest allocates at least once per array and
  // once per object: seven times per tree document. The text reader
  // allocates once per tree (its importances) plus the packed arrays'
  // amortised growth.
  const std::string small = envelope(trained(4).to_json().dump());
  const std::string large = envelope(trained(16).to_json().dump());
  const auto allocations = [](const std::string& text) {
    PmlFramework::load_artifact(text);  // warm the thread's scratch
    const std::size_t before = g_alloc_count.load();
    const PmlFramework fw = PmlFramework::load_artifact(text);
    return g_alloc_count.load() - before;
  };
  const std::size_t added_trees = 2 * (16 - 4);
  const std::size_t per_tree =
      (allocations(large) - allocations(small)) / added_trees;
  EXPECT_LT(per_tree, 4u);
}

TEST_F(ModelLoad, ConcurrentLoadsShareThePoolAndAgree) {
  // Each load hashes on the shared pool beside its decode; under TSan this
  // is the race witness for loads and ModelHost reloads running at once.
  const std::string text = envelope(bundle().dump());
  const std::string want = bundle().dump();
  std::vector<std::string> got(4);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < got.size(); ++i) {
    threads.emplace_back([&, i] {
      for (int k = 0; k < 3; ++k) {
        got[i] = PmlFramework::load_artifact(text).to_json().dump();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& dump : got) EXPECT_EQ(dump, want);
}

TEST_F(ModelLoad, SpansSplitTheLoadIntoReadVerifyAndDecode) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("pml_model_load_" + std::to_string(::testing::UnitTest::GetInstance()
                                              ->random_seed()));
  std::filesystem::create_directories(dir);
  const std::string compact = (dir / "model.json").string();
  write_artifact(compact, bundle(), "model");
  const std::string pretty = (dir / "pretty.json").string();
  write_file(pretty, Json::parse(read_file(compact)).dump(2) + "\n");
  for (const std::string& file : {compact, pretty}) {
    const std::string metrics = (dir / "metrics.json").string();
    obs::reset();
    {
      const obs::ScopedCapture capture(obs::Sink{"", metrics});
      PmlFramework::load_file(file);
    }
    const Json spans = Json::parse(read_file(metrics)).at("spans");
    for (const char* name : {"model.read", "model.verify", "model.decode"}) {
      ASSERT_TRUE(spans.contains(name)) << file << ": " << name;
      EXPECT_EQ(spans.at(name).at("count").as_int(), 1) << file << ": " << name;
    }
  }
  obs::reset();
  std::filesystem::remove_all(dir);
}

// --- Reader agreement over mutated bundles ---------------------------------

/// One kind of edit to a bundle payload's text.
enum class Mutation : std::uint8_t {
  kNumberChanged,
  kElementDropped,
  kKeyRenamed,
  kMemberRepeated,  ///< with a bogus first value
  kMembersSwapped,  ///< two adjacent members
  kSyntaxBroken,    ///< one structural byte replaced or deleted
};

/// One value of a compact document's text.
struct Node {
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t key;     ///< where its member's key starts; npos in an array
  std::size_t begin;   ///< the value's first byte
  std::size_t end;     ///< one past its last byte
  std::size_t parent;  ///< the enclosing container's index; npos at the root
};

/// Appends the value at `text[at]` and every value inside it to `nodes`;
/// returns where it ends. A walk of dump()'s compact output only, kept
/// apart from the readers under test.
std::size_t walk(const std::string& text, std::size_t at, std::size_t key,
                 std::size_t parent, std::vector<Node>& nodes) {
  const auto string_end = [&](std::size_t quote) {
    std::size_t i = quote + 1;
    while (text[i] != '"') i += text[i] == '\\' ? 2u : 1u;
    return i + 1;
  };
  const std::size_t index = nodes.size();
  nodes.push_back({key, at, 0, parent});
  const char c = text[at];
  if (c == '{' || c == '[') {
    const char close = c == '{' ? '}' : ']';
    ++at;
    while (text[at] != close) {
      std::size_t member = Node::npos;
      if (c == '{') {
        member = at;
        at = string_end(at) + 1;  // past the ':'
      }
      at = walk(text, at, member, index, nodes);
      if (text[at] == ',') ++at;
    }
    ++at;
  } else if (c == '"') {
    at = string_end(at);
  } else {
    while (text[at] != ',' && text[at] != '}' && text[at] != ']') ++at;
  }
  nodes[index].end = at;
  return at;
}

std::vector<Node> nodes_of(const std::string& text) {
  std::vector<Node> nodes;
  walk(text, 0, Node::npos, Node::npos, nodes);
  return nodes;
}

/// The index of the member after member `i` in its object, or npos.
std::size_t next_sibling(const std::vector<Node>& nodes, std::size_t i) {
  for (std::size_t j = i + 1; j < nodes.size(); ++j) {
    if (nodes[j].parent == nodes[i].parent) return j;
    if (nodes[j].begin >= nodes[nodes[i].parent].end) break;
  }
  return Node::npos;
}

/// `text` with one mutation of kind `kind` at a position drawn from
/// `state`; empty when the draw found no place for it.
std::string mutate(const std::string& text, const std::vector<Node>& nodes,
                   Mutation kind, std::uint64_t& state) {
  const auto draw = [&](std::size_t n) {
    return static_cast<std::size_t>(splitmix64(state) % n);
  };
  const Node& node = nodes[draw(nodes.size())];
  const bool member = node.key != Node::npos;
  const char first = text[node.begin];
  const bool container = first == '{' || first == '[';
  std::string out = text;
  switch (kind) {
    case Mutation::kNumberChanged: {
      static const char* const kNumbers[] = {"0", "1", "-1", "2", "0.5", "7",
                                             "1e300", "-2147483649"};
      const std::string number = kNumbers[draw(std::size(kNumbers))];
      const bool is_number = first == '-' || (first >= '0' && first <= '9');
      if (!is_number ||
          text.compare(node.begin, node.end - node.begin, number) == 0) {
        return {};
      }
      return out.replace(node.begin, node.end - node.begin, number);
    }
    case Mutation::kElementDropped: {
      if (member || node.parent == Node::npos) return {};
      if (text[node.end] == ',') {
        return out.erase(node.begin, node.end + 1 - node.begin);
      }
      if (text[node.begin - 1] == ',') {
        return out.erase(node.begin - 1, node.end + 1 - node.begin);
      }
      return out.erase(node.begin, node.end - node.begin);
    }
    case Mutation::kKeyRenamed:
      if (!member) return {};
      return out.insert(node.key + 1, "x");
    case Mutation::kMemberRepeated: {
      static const char* const kBogus[] = {"null", "[]", "{}", "\"x\"", "-1",
                                           "[7,7]"};
      if (!member) return {};
      return out.insert(node.key, text.substr(node.key, node.begin - node.key) +
                                      kBogus[draw(std::size(kBogus))] + ",");
    }
    case Mutation::kMembersSwapped: {
      const std::size_t i = static_cast<std::size_t>(&node - nodes.data());
      const std::size_t j = member ? next_sibling(nodes, i) : Node::npos;
      if (j == Node::npos) return {};
      const std::string left = text.substr(node.key, node.end - node.key);
      const std::string right =
          text.substr(nodes[j].key, nodes[j].end - nodes[j].key);
      return out.replace(node.key, nodes[j].end - node.key,
                         right + "," + left);
    }
    case Mutation::kSyntaxBroken: {
      // A container's brackets, a member's ':' or opening quote, or the
      // ',' after the node.
      std::vector<std::size_t> bytes;
      if (container) bytes = {node.begin, node.end - 1};
      if (member) {
        bytes.push_back(node.begin - 1);
        bytes.push_back(node.key);
      }
      if (node.end < text.size() && text[node.end] == ',') {
        bytes.push_back(node.end);
      }
      if (bytes.empty()) return {};
      const std::size_t at = bytes[draw(bytes.size())];
      static constexpr std::string_view kBytes = "{}[],:\" ";
      const char with = kBytes[draw(kBytes.size())];
      if (with == text[at] || with == ' ') return out.erase(at, 1);
      out[at] = with;
      return out;
    }
  }
  return {};
}

/// "ok:" plus the FNV-1a of the loaded bundle's dump, or the error's type
/// and text.
template <typename Load>
std::string verdict_of(const Load& load) {
  try {
    char hash[24];
    std::snprintf(hash, sizeof hash, "ok:%016llx",
                  static_cast<unsigned long long>(
                      fnv1a64(load().to_json().dump())));
    return hash;
  } catch (const JsonError& err) {
    return std::string("json:") + err.what();
  } catch (const Error& err) {
    return std::string("error:") + err.what();
  }
}

TEST_F(ModelLoad, AMemberAfterABulkMemberIsReadAsTheDecoderReadsIt) {
  // The pull pass reads the bulk members (collectives, each forest, each
  // forest's trees) where they stand, so a member after one could change
  // what was read: it must defer, and the decoder's verdict stands.
  const std::string compact = bundle().dump();
  const std::vector<Node> nodes = nodes_of(compact);
  const std::pair<std::string, std::string> overrides[] = {
      {R"("collectives":)", R"(,"format":"bogus")"},
      {R"("forest":)", R"(,"columns":[99])"},
      {R"("trees":)", R"(,"n_features":-3)"},
  };
  for (const auto& [key, member] : overrides) {
    const auto node =
        std::find_if(nodes.begin(), nodes.end(), [&](const Node& n) {
          return n.key != Node::npos &&
                 compact.compare(n.key, key.size(), key) == 0;
        });
    ASSERT_NE(node, nodes.end()) << key;
    std::string text = compact;
    text.insert(node->end, member);
    const std::string verdict =
        verdict_of([&] { return PmlFramework::load_artifact(envelope(text)); });
    EXPECT_EQ(verdict.rfind("error:", 0), 0u) << key << verdict;
    EXPECT_EQ(verdict_of([&] { return PmlFramework::load(Json::parse(text)); }),
              verdict)
        << key;
  }
}

struct MutationCase {
  const char* name;
  Mutation kind;
  /// FNV-1a over the corpus's verdicts, one per line, as the Json decoder
  /// the pull pass defers to returned them before the pull pass existed.
  std::uint64_t verdicts;
};

void PrintTo(const MutationCase& c, std::ostream* os) { *os << c.name; }

class ModelLoadMutations : public ::testing::TestWithParam<MutationCase> {
 protected:
  static void SetUpTestSuite() {
    payload_ = new std::string(trained(2).to_json().dump());
  }
  static void TearDownTestSuite() { delete payload_; }
  static const std::string& payload() { return *payload_; }

 private:
  static std::string* payload_;
};

std::string* ModelLoadMutations::payload_ = nullptr;

TEST_P(ModelLoadMutations, EveryReaderGivesTheJsonDecodersVerdict) {
  // Each mutated payload is loaded three ways: as a writer-layout file
  // with its checksum re-stamped (the pull pass, or a deferral to the
  // decoder), as a pretty-printed envelope (parse_artifact and the
  // decoder) when it parses, and through load() of the parsed envelope's
  // payload. All three must agree, and the corpus must keep its verdicts.
  constexpr int kMutations = 64;
  const std::vector<Node> nodes = nodes_of(payload());
  std::uint64_t state =
      0x6d7574617465ULL + static_cast<std::uint64_t>(GetParam().kind);
  std::string all;
  for (int made = 0; made < kMutations;) {
    const std::string text = mutate(payload(), nodes, GetParam().kind, state);
    if (text.empty()) continue;
    ++made;
    const std::string file = envelope(text);
    const std::string verdict =
        verdict_of([&] { return PmlFramework::load_artifact(file); });
    all += verdict + "\n";
    EXPECT_EQ(verdict_of([&] {
                return PmlFramework::load(Json::parse(file).at("payload"));
              }),
              verdict)
        << text;
    Json parsed;
    try {
      parsed = Json::parse(file).at("payload");
    } catch (const JsonError&) {
      continue;
    }
    Json pretty = Json::object();
    pretty["format"] = "pml-artifact-v1";
    pretty["kind"] = "model";
    pretty["schema"] = 1;
    pretty["checksum"] = payload_checksum(parsed);
    pretty["payload"] = parsed;
    const std::string pretty_file = pretty.dump(2) + "\n";
    EXPECT_EQ(verdict_of([&] { return PmlFramework::load_artifact(pretty_file); }),
              verdict)
        << text;
  }
  EXPECT_EQ(fnv1a64(all), GetParam().verdicts);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, ModelLoadMutations,
    ::testing::Values(
        MutationCase{"NumberChanged", Mutation::kNumberChanged,
                     0x0d20a5ea0405e42fULL},
        MutationCase{"ElementDropped", Mutation::kElementDropped,
                     0x3789cc9043d530f0ULL},
        MutationCase{"KeyRenamed", Mutation::kKeyRenamed,
                     0x0502f3d73ff27618ULL},
        MutationCase{"MemberRepeated", Mutation::kMemberRepeated,
                     0xbb55925928f072a5ULL},
        MutationCase{"MembersSwapped", Mutation::kMembersSwapped,
                     0xbb55925928f072a5ULL},
        MutationCase{"SyntaxBroken", Mutation::kSyntaxBroken,
                     0xf0246c0c62c8def3ULL}),
    [](const ::testing::TestParamInfo<MutationCase>& instance) {
      return std::string(instance.param.name);
    });

}  // namespace
}  // namespace pml::core
