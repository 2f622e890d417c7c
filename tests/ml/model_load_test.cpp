// Model bundles read from text. PmlFramework::load_artifact verifies a
// write_artifact file on its payload bytes and pulls the forests' columns
// straight into FlatForest, building no Json tree; every other layout
// goes through parse_artifact and the same reader. These cases hold the
// text reader to the DOM reader's results and verdicts: byte-equal
// forests for pretty-printed, reordered and repeated-key copies, the
// checksum's verdict before any decode error, the first syntax error
// before any check.
//
// This binary replaces the global operator new (bench/alloc_counter.hpp)
// to count the allocations of a load, so it holds only these cases.
#include "../../bench/alloc_counter.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/artifact.hpp"
#include "common/error.hpp"
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

}  // namespace
}  // namespace pml::core
