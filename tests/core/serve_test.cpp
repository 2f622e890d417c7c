// Unit tests for the serve layer: cache policy, protocol round trips,
// error-taxonomy mapping, degradation, and the checksum+fingerprint+sweep
// cache keying. Concurrency is exercised separately by the hammer suite
// (tests/integration/serve_hammer_test.cpp).
#include "core/serve.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/artifact.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/version.hpp"
#include "core/framework.hpp"
#include "core/serve_internal.hpp"
#include "obs/obs.hpp"

namespace pml::core {
namespace {

PmlFramework& trained() {
  static PmlFramework fw = [] {
    TrainOptions options;
    options.forest.n_trees = 8;
    const std::vector<sim::ClusterSpec> clusters = {
        sim::cluster_by_name("RI"), sim::cluster_by_name("Rome")};
    return PmlFramework::train(clusters, options);
  }();
  return fw;
}

std::shared_ptr<const ServedTable> entry_named(const std::string& tag) {
  auto entry = std::make_shared<ServedTable>();
  entry->json = tag;
  return entry;
}

TEST(ServeCache, LruEvictsLeastRecentlyUsedPerShard) {
  ServeCache cache(/*shards=*/1, /*shard_capacity=*/2);
  cache.put("a", entry_named("a"));
  cache.put("b", entry_named("b"));
  ASSERT_NE(cache.get("a"), nullptr);  // refresh a: b is now LRU
  cache.put("c", entry_named("c"));
  EXPECT_EQ(cache.get("b"), nullptr);
  EXPECT_NE(cache.get("a"), nullptr);
  EXPECT_NE(cache.get("c"), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ServeCache, PutReplacesExistingEntry) {
  ServeCache cache(4, 2);
  cache.put("k", entry_named("old"));
  cache.put("k", entry_named("new"));
  ASSERT_NE(cache.get("k"), nullptr);
  EXPECT_EQ(cache.get("k")->json, "new");
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ServeOptions, ValidateRejectsBadShapes) {
  ServeOptions options;
  options.shards = 0;
  EXPECT_THROW(options.validate(), ConfigError);
  options.shards = 1;
  options.shard_capacity = 0;
  EXPECT_THROW(options.validate(), ConfigError);
  options.shard_capacity = 1;
  EXPECT_NO_THROW(options.validate());
}

TEST(ServeOptions, ValidateRejectsBadLimits) {
  ServeOptions options;
  options.max_line_bytes = 8;
  EXPECT_THROW(options.validate(), ConfigError);
  options.max_line_bytes = 1 << 20;
  options.max_connections = 0;
  EXPECT_THROW(options.validate(), ConfigError);
  options.max_connections = 1;
  options.read_timeout_ms = -1;
  EXPECT_THROW(options.validate(), ConfigError);
  options.read_timeout_ms = 0;  // 0 = deadlines disabled, valid
  options.queue_limit = 0;
  EXPECT_THROW(options.validate(), ConfigError);
  options.queue_limit = 1;
  EXPECT_NO_THROW(options.validate());
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pml_serve_" + std::string(::testing::UnitTest::GetInstance()
                                           ->current_test_info()
                                           ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    write_artifact(model_path(), trained().to_json(), "model");
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string model_path() const { return (dir_ / "model.json").string(); }

  /// Synchronous engine over a small fixed sweep: every reply is
  /// deterministic and misses compile inline.
  ServeOptions options() const {
    ServeOptions o;
    o.model_path = model_path();
    o.async_compile = false;
    o.compile =
        CompileOptions::sweep({2, 4}, {16}, {1024, 65536});
    return o;
  }

  static Json reply_of(ServeEngine& engine, const std::string& request) {
    const std::string reply = engine.handle_line(request);
    return Json::parse(reply);
  }

  std::filesystem::path dir_;
};

TEST_F(ServeTest, PingReportsModelHealth) {
  ServeEngine engine(options());
  const Json pong = reply_of(engine, R"({"op":"ping"})");
  EXPECT_TRUE(pong.at("ok").as_bool());
  EXPECT_TRUE(pong.at("model_loaded").as_bool());
}

TEST_F(ServeTest, MalformedJsonMapsToJsonErrorStatus) {
  ServeEngine engine(options());
  const Json reply = reply_of(engine, "{not json");
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("code").as_string(), "json");
  EXPECT_EQ(reply.at("status").as_int(), exit_status(ErrorCode::kJson));
}

TEST_F(ServeTest, UnknownOpAndMissingFieldsMapToConfigError) {
  ServeEngine engine(options());
  for (const char* request :
       {R"({"op":"frobnicate"})", R"({"op":"select","cluster":"MRI"})",
        R"({"cluster":"MRI"})", R"({"op":"select","cluster":"Nope",
            "collective":"allgather","nodes":2,"ppn":16,"msg_bytes":64})"}) {
    const Json reply = reply_of(engine, request);
    EXPECT_FALSE(reply.at("ok").as_bool()) << request;
    EXPECT_EQ(reply.at("code").as_string(), "config") << request;
    EXPECT_EQ(reply.at("status").as_int(), exit_status(ErrorCode::kConfig));
  }
}

TEST_F(ServeTest, OutOfRangeSweepOverridesAreConfigErrors) {
  // Each override entry is held to the bounds of a select's nodes/ppn/
  // msg_bytes: narrowing 2^32 + 2 to int gives 2, and -1 to uint64 gives
  // 2^64 - 1, both valid-looking sweeps.
  ServeEngine engine(options());
  const std::string base = R"({"op":"table","cluster":"MRI",)";
  for (const char* sweep :
       {R"("node_counts":[4294967298],"ppn_values":[16],"msg_sizes":[1024]})",
        R"("node_counts":[2,0],"ppn_values":[16],"msg_sizes":[1024]})",
        R"("node_counts":[2],"ppn_values":[4294967312],"msg_sizes":[1024]})",
        R"("node_counts":[2],"ppn_values":[-16],"msg_sizes":[1024]})",
        R"("node_counts":[2],"ppn_values":[16],"msg_sizes":[-1]})",
        R"("node_counts":[2],"ppn_values":[16],"msg_sizes":[1024,-4096]})"}) {
    const Json reply = reply_of(engine, base + sweep);
    EXPECT_FALSE(reply.at("ok").as_bool()) << sweep;
    EXPECT_EQ(reply.at("code").as_string(), "config") << sweep;
    EXPECT_EQ(reply.at("status").as_int(), exit_status(ErrorCode::kConfig));
  }
  // In-range overrides still compile.
  const Json ok = reply_of(
      engine, base + R"("node_counts":[2],"ppn_values":[16],"msg_sizes":[0]})");
  EXPECT_TRUE(ok.at("ok").as_bool());
}

TEST_F(ServeTest, FractionalIntegerFieldsAreRejected) {
  // Integer fields used to truncate: nodes 4.9 was served as 4 nodes and
  // msg_bytes -0.5 as 0 bytes. A fraction is now a config error naming
  // its field; integral spellings (1e3, 2.0) stay valid.
  ServeEngine engine(options());
  const auto select = [](const std::string& nodes, const std::string& ppn,
                         const std::string& msg_bytes) {
    return R"({"op":"select","cluster":"MRI","collective":"allgather",)"
           R"("nodes":)" + nodes + R"(,"ppn":)" + ppn +
           R"(,"msg_bytes":)" + msg_bytes + "}";
  };
  const std::string table = R"({"op":"table","cluster":"MRI",)";
  const std::vector<std::pair<std::string, const char*>> rejected = {
      {select("4.9", "16", "1024"), "nodes"},
      {select("2", "16.5", "1024"), "ppn"},
      {select("2", "16", "-0.5"), "msg_bytes"},
      {select("2", "16", "1024.25"), "msg_bytes"},
      // deadline_ms is read when a waited request misses.
      {R"({"op":"select","cluster":"RI","collective":"allgather","nodes":2,)"
       R"("ppn":16,"msg_bytes":1024,"wait":true,"deadline_ms":2.5})",
       "deadline_ms"},
      {R"({"op":"table","cluster":"Rome","wait":true,"deadline_ms":0.5})",
       "deadline_ms"},
      {table + R"("node_counts":[1.5,2]})", "node_counts"},
      {table + R"("ppn_values":[16,16.5]})", "ppn_values"},
      {table + R"("msg_sizes":[1024,4096.5]})", "msg_sizes"},
  };
  for (const auto& [request, field] : rejected) {
    const Json reply = reply_of(engine, request);
    EXPECT_FALSE(reply.at("ok").as_bool()) << request;
    EXPECT_EQ(reply.at("code").as_string(), "config") << request;
    EXPECT_EQ(reply.at("status").as_int(), exit_status(ErrorCode::kConfig));
    EXPECT_EQ(reply.at("error").as_string(),
              std::string("config: serve: \"") + field +
                  "\" must be an integer")
        << request;
  }
  for (const std::string& request :
       {select("2.0", "16", "1e3"), select("2", "1.6e1", "65536.0"),
        std::string(R"({"op":"select","cluster":"MRI","collective":"alltoall",)"
                    R"("nodes":2,"ppn":16,"msg_bytes":1024,"wait":true,)"
                    R"("deadline_ms":1e3})"),
        table + R"("node_counts":[2e0],"ppn_values":[16],"msg_sizes":[1e3]})"}) {
    EXPECT_TRUE(reply_of(engine, request).at("ok").as_bool()) << request;
  }
}

TEST_F(ServeTest, RankCountPastIntIsAConfigErrorBelowTheTableRung) {
  // nodes and ppn each fit an int but their product does not. The model
  // and heuristic rungs rank the job by that product, so they refuse it;
  // a table hit only looks up the nearest tuned shape and still answers.
  const std::string huge =
      R"({"op":"select","cluster":"MRI","collective":"allgather",)"
      R"("nodes":1073741824,"ppn":4,"msg_bytes":1024})";
  ServeOptions heuristic_only = options();
  heuristic_only.model_path.clear();
  for (ServeOptions o : {options(), heuristic_only}) {
    ServeEngine engine(std::move(o));
    const Json reply = reply_of(engine, huge);  // a miss
    EXPECT_FALSE(reply.at("ok").as_bool());
    EXPECT_EQ(reply.at("code").as_string(), "config");
    EXPECT_EQ(reply.at("error").as_string(),
              "config: serve: \"nodes\" * \"ppn\" must be at most "
              "2147483647 ranks");
  }
  ServeEngine engine(options());
  engine.handle_line(R"({"op":"table","cluster":"MRI","wait":true})");
  const Json hit = reply_of(engine, huge);
  EXPECT_TRUE(hit.at("ok").as_bool());
  EXPECT_EQ(hit.at("cache").as_string(), "hit");
}

TEST_F(ServeTest, RankCountPastIntInATableSweepIsAConfigError) {
  // Overrides whose entries each fit an int but whose largest pair does
  // not: the sweep is refused before any rung would compute world sizes.
  ServeEngine engine(options());
  const Json reply = reply_of(
      engine, R"({"op":"table","cluster":"MRI","node_counts":[2,1073741824],)"
              R"("ppn_values":[4],"msg_sizes":[1024]})");
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("code").as_string(), "config");
  EXPECT_EQ(reply.at("error").as_string(),
            "config: sweep: 1073741824 nodes * 4 ppn exceeds 2147483647 "
            "ranks");
}

TEST_F(ServeTest, RankCountPastIntInAnInlineClusterGridIsAConfigError) {
  // With no sweep configured, an inline cluster spec's own grid is the
  // sweep, so it is held to the same bound.
  ServeOptions o = options();
  o.compile = CompileOptions{};
  ServeEngine engine(std::move(o));
  Json spec = sim::cluster_by_name("MRI").to_json();
  spec["name"] = "WideMRI";
  spec["node_counts"] = Json::array();
  spec["node_counts"].push_back(1 << 20);
  spec["ppn_values"] = Json::array();
  spec["ppn_values"].push_back(1 << 12);
  for (const char* op : {"table", "select"}) {
    Json request = Json::object();
    request["op"] = op;
    request["cluster"] = spec;
    request["collective"] = "allgather";
    request["nodes"] = 2;
    request["ppn"] = 16;
    request["msg_bytes"] = 1024;
    const Json reply = reply_of(engine, request.dump());
    EXPECT_FALSE(reply.at("ok").as_bool()) << op;
    EXPECT_EQ(reply.at("code").as_string(), "config") << op;
  }
}

TEST_F(ServeTest, SelectMissAnswersFromModelThenHitsTheCompiledTable) {
  ServeEngine engine(options());
  const std::string request =
      R"({"op":"select","cluster":"MRI","collective":"alltoall",)"
      R"("nodes":4,"ppn":16,"msg_bytes":65536})";
  const Json first = reply_of(engine, request);
  ASSERT_TRUE(first.at("ok").as_bool());
  EXPECT_EQ(first.at("cache").as_string(), "miss");
  EXPECT_EQ(first.at("source").as_string(), "model");
  EXPECT_FALSE(first.at("degraded").as_bool());

  const Json second = reply_of(engine, request);
  ASSERT_TRUE(second.at("ok").as_bool());
  EXPECT_EQ(second.at("cache").as_string(), "hit");
  EXPECT_EQ(second.at("source").as_string(), "table");
  // Same model, same sweep: the miss-path inference and the hit-path table
  // lookup agree on the algorithm.
  EXPECT_EQ(second.at("selection").at("algorithm").as_string(),
            first.at("selection").at("algorithm").as_string());

  const Json stats = reply_of(engine, R"({"op":"stats"})");
  EXPECT_EQ(stats.at("cache_hits").as_int(), 1);
  EXPECT_EQ(stats.at("cache_misses").as_int(), 1);
  EXPECT_EQ(stats.at("compiles").as_int(), 1);
  EXPECT_EQ(stats.at("tables_cached").as_int(), 1);
}

TEST_F(ServeTest, SelectWithWaitReturnsTheCompiledAnswer) {
  ServeEngine engine(options());
  const Json reply = reply_of(
      engine,
      R"({"op":"select","cluster":"MRI","collective":"allgather",)"
      R"("nodes":2,"ppn":16,"msg_bytes":1024,"wait":true})");
  ASSERT_TRUE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("cache").as_string(), "compiled");
  EXPECT_EQ(reply.at("source").as_string(), "table");
  EXPECT_FALSE(reply.at("degraded").as_bool());
}

TEST_F(ServeTest, TableRepliesAreByteStableAcrossRequests) {
  ServeEngine engine(options());
  const std::string request = R"({"op":"table","cluster":"MRI","wait":true})";
  engine.handle_line(request);  // warm: compiles and caches ("compiled")
  const std::string first = engine.handle_line(request);
  const std::string second = engine.handle_line(request);
  EXPECT_EQ(first, second);  // cache hits splice the same serialized bytes

  const Json reply = Json::parse(second);
  ASSERT_TRUE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("cache").as_string(), "hit");
  const TuningTable table = TuningTable::from_json(reply.at("table"));
  EXPECT_TRUE(table.matches_cluster(sim::cluster_by_name("MRI")));
  EXPECT_EQ(table.lookup(coll::Collective::kAllgather, 2, 16, 1024),
            trained().compile_for(sim::cluster_by_name("MRI"),
                                  options().compile)
                .lookup(coll::Collective::kAllgather, 2, 16, 1024));
}

/// The table bytes a "table" reply splices in verbatim.
std::string table_bytes(const std::string& reply) {
  const std::string field = R"("table":)";
  const std::size_t at = reply.find(field);
  if (at == std::string::npos || reply.back() != '}') return {};
  return reply.substr(at + field.size(),
                      reply.size() - at - field.size() - 1);
}

TEST_F(ServeTest, AsyncCompiledTableMatchesASerialCompileByteForByte) {
  // A pool-posted compile fans its sweep out over idle workers and
  // overlaps it with the artifact hash; the table must not depend on how
  // the cells were scheduled.
  ServeOptions o = options();
  o.async_compile = true;
  o.compile = CompileOptions{};  // Frontera's full benchmarked sweep
  const sim::ClusterSpec frontera = sim::cluster_by_name("Frontera");
  CompileOptions serial;
  serial.threads = 1;
  const std::string expected =
      trained().compile_for(frontera, serial).to_json().dump();
  ServeEngine engine(o);
  const std::string reply =
      engine.handle_line(R"({"op":"table","cluster":"Frontera","wait":true})");
  EXPECT_EQ(Json::parse(reply).at("cache").as_string(), "compiled");
  EXPECT_EQ(table_bytes(reply), expected);
  engine.drain();
}

/// "xxh64:<16 hex>" over a file's bytes: the identity ModelHost reports.
std::string file_checksum(const std::string& path) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "xxh64:%016llx",
                static_cast<unsigned long long>(xxh64(read_file(path))));
  return buf;
}

TEST_F(ServeTest, SameLengthCorruptionIsCaughtOnTheNextWaitedMiss) {
  ServeEngine engine(options());
  const auto waited_select = [&](const std::string& cluster) {
    return reply_of(engine, R"({"op":"select","cluster":")" + cluster +
                                R"(","collective":"allgather","nodes":2,)"
                                R"("ppn":16,"msg_bytes":1024,"wait":true})");
  };
  EXPECT_EQ(waited_select("MRI").at("source").as_string(), "table");

  // Flip one threshold digit in place: same size, and the old mtime put
  // back, so only hashing the full bytes can tell the files apart.
  const std::string pristine = read_file(model_path());
  const auto mtime = std::filesystem::last_write_time(model_path());
  std::string corrupt = pristine;
  const std::size_t key_at = corrupt.find("\"threshold\":");
  ASSERT_NE(key_at, std::string::npos);
  const std::size_t digit = corrupt.find_first_of("0123456789", key_at);
  ASSERT_NE(digit, std::string::npos);
  corrupt[digit] = corrupt[digit] == '9' ? '8' : '9';
  write_file(model_path(), corrupt);
  std::filesystem::last_write_time(model_path(), mtime);
  ASSERT_EQ(std::filesystem::file_size(model_path()), pristine.size());

  const Json degraded = waited_select("RI");
  ASSERT_TRUE(degraded.at("ok").as_bool());
  EXPECT_TRUE(degraded.at("degraded").as_bool());
  EXPECT_EQ(degraded.at("source").as_string(), "heuristic");
  const Json degraded_table =
      reply_of(engine, R"({"op":"table","cluster":"Rome","wait":true})");
  EXPECT_TRUE(degraded_table.at("degraded").as_bool());
  EXPECT_EQ(degraded_table.at("source").as_string(), "heuristic");
  EXPECT_FALSE(engine.model_loaded());

  // Restoring the pristine bytes restores full-quality serving.
  write_file(model_path(), pristine);
  const Json recovered = waited_select("Frontera");
  ASSERT_TRUE(recovered.at("ok").as_bool());
  EXPECT_FALSE(recovered.at("degraded").as_bool());
  EXPECT_EQ(recovered.at("source").as_string(), "table");
}

TEST_F(ServeTest, InconsistentBundleWithAValidChecksumDegradesToHeuristics) {
  // Both bundles carry a correct checksum, so only the load can refuse
  // them. One claims 10^8 classes: sizing its leaf pool used to end the
  // daemon with std::bad_alloc, which no Error handler catches. The other
  // names a feature column far past the layout: it used to load, then
  // fail every compile.
  const std::vector<std::function<void(Json&)>> edits = {
      [](Json& part) { part["forest"]["num_classes"] = 100000000; },
      [](Json& part) { part["columns"].as_array().back() = 5000000; }};
  const std::string pristine = read_file(model_path());
  for (const auto& edit : edits) {
    write_file(model_path(), pristine);
    ServeEngine engine(options());
    ASSERT_TRUE(engine.model_loaded());
    Json bad = trained().to_json();
    edit(bad["collectives"]["allgather"]);
    write_artifact(model_path(), bad, "model");
    ASSERT_EQ(inspect_artifact(model_path()).status, ArtifactStatus::kOk);

    // Swapped in under a running daemon: the next miss degrades.
    const Json reply = reply_of(
        engine, R"({"op":"select","cluster":"RI","collective":"allgather",)"
                R"("nodes":2,"ppn":16,"msg_bytes":1024,"wait":true})");
    ASSERT_TRUE(reply.at("ok").as_bool());
    EXPECT_TRUE(reply.at("degraded").as_bool());
    EXPECT_EQ(reply.at("source").as_string(), "heuristic");
    EXPECT_FALSE(
        reply_of(engine, R"({"op":"ping"})").at("model_loaded").as_bool());

    // There at start: the daemon comes up on heuristics instead of dying.
    ServeEngine fresh(options());
    EXPECT_FALSE(
        reply_of(fresh, R"({"op":"ping"})").at("model_loaded").as_bool());
  }
}

TEST_F(ServeTest, ConcurrentRevalidationsOfAnUnchangedArtifactAgree) {
  ModelHost host(model_path());
  const std::shared_ptr<const ModelHost::Snapshot> before = host.snapshot();
  ASSERT_NE(before->framework, nullptr);

  std::atomic<int> ready{0};
  std::array<bool, 2> results{};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < results.size(); ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < 2) std::this_thread::yield();
      results[t] = host.revalidate();
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_TRUE(results[0]);
  EXPECT_TRUE(results[1]);
  EXPECT_EQ(host.snapshot()->checksum, file_checksum(model_path()));
  // Unchanged bytes confirm the snapshot; nothing is re-parsed.
  EXPECT_EQ(host.snapshot(), before);
}

TEST_F(ServeTest, RedeployRaceNeverPairsAModelWithTheOtherIdentity) {
  // A revalidation can hash model A's file and then read model B's, when
  // a redeploy lands between its two reads; the snapshot it publishes
  // must still carry the hash of the bytes it parsed. The window is
  // narrow, so the writers redeploy many times.
  static const PmlFramework other = [] {
    TrainOptions options;
    options.forest.n_trees = 4;
    options.seed = 14;
    const std::vector<sim::ClusterSpec> clusters = {sim::cluster_by_name("RI")};
    return PmlFramework::train(clusters, options);
  }();
  const std::array<Json, 2> payloads = {trained().to_json(), other.to_json()};
  std::array<std::string, 2> dumps;
  std::array<std::string, 2> identities;
  for (std::size_t m = 0; m < 2; ++m) {
    dumps[m] = payloads[m].dump();
    write_artifact(model_path(), payloads[m], "model");
    identities[m] = file_checksum(model_path());
  }
  ASSERT_NE(dumps[0], dumps[1]);

  ModelHost host(model_path());
  std::atomic<bool> writing{true};
  std::mutex seen_mutex;
  std::vector<std::shared_ptr<const ModelHost::Snapshot>> seen;
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      for (std::size_t i = 0; i < 100; ++i) {
        EXPECT_NO_THROW(
            write_artifact(model_path(), payloads[(i + w) % 2], "model"));
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      do {
        host.revalidate();
        std::lock_guard<std::mutex> lock(seen_mutex);
        seen.push_back(host.snapshot());
      } while (writing.load());
    });
  }
  threads[0].join();
  threads[1].join();
  writing.store(false);
  threads[2].join();
  threads[3].join();

  // Renames publish whole files, so no reading is ever degraded, and each
  // model must carry the identity of the bytes it was parsed from.
  std::set<const ModelHost::Snapshot*> checked;
  for (const auto& snapshot : seen) {
    if (!checked.insert(snapshot.get()).second) continue;
    ASSERT_NE(snapshot->framework, nullptr);
    const std::string dump = snapshot->framework->to_json().dump();
    const std::size_t m = dump == dumps[0] ? 0 : 1;
    EXPECT_EQ(dump, dumps[m]);
    EXPECT_EQ(snapshot->checksum, identities[m]);
  }
}

TEST_F(ServeTest, RedeployDuringAQueuedCompileCachesOnlyTheNewModel) {
  // The compile starts from the model served before its revalidation and
  // compiles speculatively while the artifact is re-hashed. Here model B
  // lands on disk just before that, so the speculative table is model A's
  // and must be dropped: the reply, the cache entry and its key all belong
  // to B.
  TrainOptions train;
  train.forest.n_trees = 4;
  train.seed = 14;
  const std::vector<sim::ClusterSpec> clusters = {
      sim::cluster_by_name("Rome")};
  PmlFramework other = PmlFramework::train(clusters, train);
  const sim::ClusterSpec mri = sim::cluster_by_name("MRI");
  const std::string a_table =
      trained().compile_for(mri, options().compile).to_json().dump();
  const std::string b_table =
      other.compile_for(mri, options().compile).to_json().dump();
  ASSERT_NE(a_table, b_table);
  const std::string a_sum = file_checksum(model_path());

  ServeOptions o = options();
  o.async_compile = true;
  std::atomic<bool> redeployed{false};
  o.compile_fault = [&] {
    if (!redeployed.exchange(true)) {
      write_artifact(model_path(), other.to_json(), "model");
    }
  };
  ServeEngine engine(o);
  const std::string request = R"({"op":"table","cluster":"MRI","wait":true})";
  const std::string compiled = engine.handle_line(request);
  EXPECT_EQ(Json::parse(compiled).at("cache").as_string(), "compiled");
  EXPECT_EQ(table_bytes(compiled), b_table);

  const std::string b_sum = file_checksum(model_path());
  ASSERT_NE(a_sum, b_sum);
  const Json stats = reply_of(engine, R"({"op":"stats"})");
  EXPECT_EQ(stats.at("model_checksum").as_string(), b_sum);
  EXPECT_EQ(stats.at("tables_cached").as_int(), 1);
  // Keyed under B's checksum: the next request, keyed by the now-current
  // model, hits B's table without compiling again.
  const std::string hit = engine.handle_line(request);
  EXPECT_EQ(Json::parse(hit).at("cache").as_string(), "hit");
  EXPECT_EQ(table_bytes(hit), b_table);
  engine.drain();
  EXPECT_EQ(engine.stats().compiles, 1u);
}

TEST_F(ServeTest, PrettyPrintedModelFromEarlierReleasesStillLoads) {
  // Earlier releases wrote the same envelope with dump(2).
  const Json payload = trained().to_json();
  Json envelope = Json::object();
  envelope["format"] = std::string(kArtifactFormat);
  envelope["kind"] = std::string("model");
  envelope["schema"] = 1;
  envelope["checksum"] = payload_checksum(payload);
  envelope["payload"] = payload;
  const std::string pretty = (dir_ / "pretty.json").string();
  write_file(pretty, envelope.dump(2) + "\n");
  const std::string before = read_file(pretty);

  const sim::ClusterSpec& mri = sim::cluster_by_name("MRI");
  const std::string expected =
      trained().compile_for(mri, options().compile).to_json().dump();
  EXPECT_EQ(inspect_artifact(pretty).status, ArtifactStatus::kOk);
  EXPECT_EQ(PmlFramework::load_file(pretty)
                .compile_for(mri, options().compile)
                .to_json()
                .dump(),
            expected);

  ModelHost host(pretty);
  ASSERT_NE(host.framework(), nullptr);
  EXPECT_EQ(host.checksum(), file_checksum(pretty));
  EXPECT_EQ(
      host.framework()->compile_for(mri, options().compile).to_json().dump(),
      expected);

  EXPECT_EQ(repair_artifact(pretty).action, RepairAction::kNone);
  EXPECT_EQ(read_file(pretty), before);
}

TEST_F(ServeTest, NoModelServesHeuristicsMarkedDegraded) {
  ServeOptions o = options();
  o.model_path.clear();
  ServeEngine engine(o);
  EXPECT_FALSE(engine.model_loaded());

  const Json select = reply_of(
      engine,
      R"({"op":"select","cluster":"MRI","collective":"allgather",)"
      R"("nodes":2,"ppn":16,"msg_bytes":1024})");
  ASSERT_TRUE(select.at("ok").as_bool());
  EXPECT_TRUE(select.at("degraded").as_bool());
  EXPECT_EQ(select.at("source").as_string(), "heuristic");
  // Short names can be ambiguous across collectives ("bruck"): qualify
  // with the request's collective to round-trip the reply.
  EXPECT_NO_THROW(coll::algorithm_from_string(
      "allgather:" + select.at("selection").at("algorithm").as_string()));

  const Json table = reply_of(engine, R"({"op":"table","cluster":"MRI"})");
  ASSERT_TRUE(table.at("ok").as_bool());
  EXPECT_TRUE(table.at("degraded").as_bool());
  EXPECT_EQ(table.at("source").as_string(), "heuristic");
  // Heuristic tables are transient: never cached.
  EXPECT_EQ(engine.cached_tables(), 0u);
}

TEST_F(ServeTest, NoModelPathPostsNoCompiles) {
  // Nothing to re-read, so no compile could produce a table: misses go
  // straight to the heuristic rung with the same reply bytes.
  const bool was = obs::set_enabled(true);
  obs::reset();
  ServeOptions o = options();
  o.model_path.clear();
  o.async_compile = true;
  std::string reply;
  {
    ServeEngine engine(o);
    for (int i = 0; i < 20; ++i) {
      reply = engine.handle_line(
          R"({"op":"select","cluster":"MRI","collective":"allgather",)"
          R"("nodes":2,"ppn":16,"msg_bytes":1024,"wait":true})");
    }
    engine.drain();
  }
  const Json select = Json::parse(reply);
  EXPECT_EQ(select.at("source").as_string(), "heuristic");
  EXPECT_EQ(select.at("cache").as_string(), "miss");
  EXPECT_TRUE(select.at("degraded").as_bool());
  std::size_t compiles = 0;
  std::size_t requests = 0;
  for (const obs::SpanSample& span : obs::snapshot().spans) {
    compiles += span.name == "serve.compile";
    requests += span.name == "serve.request";
  }
  EXPECT_EQ(compiles, 0u);
  EXPECT_EQ(requests, 20u);
  obs::reset();
  obs::set_enabled(was);
}

TEST_F(ServeTest, InlineClusterSpecsAreKeyedByHardwareFingerprint) {
  ServeEngine engine(options());
  const Json base = sim::cluster_by_name("MRI").to_json();
  Json respeced = base;
  respeced["hardware"]["cores"] = 96;  // same name, different silicon
  respeced["hardware"]["mem_bw_gbs"] = 700.0;

  const auto request = [](const Json& cluster) {
    Json r = Json::object();
    r["op"] = "table";
    r["cluster"] = cluster;
    r["wait"] = true;
    return r.dump();
  };
  const Json first = Json::parse(engine.handle_line(request(base)));
  const Json second = Json::parse(engine.handle_line(request(respeced)));
  ASSERT_TRUE(first.at("ok").as_bool());
  ASSERT_TRUE(second.at("ok").as_bool());
  // Two compiles, two cached tables: the same-named respec was not served
  // the original cluster's table.
  EXPECT_EQ(engine.cached_tables(), 2u);
  const Json stats = reply_of(engine, R"({"op":"stats"})");
  EXPECT_EQ(stats.at("compiles").as_int(), 2);
}

TEST_F(ServeTest, HealthReportsBreakerQueueRungsAndVersion) {
  ServeEngine engine(options());
  const Json health = reply_of(engine, R"({"op":"health"})");
  ASSERT_TRUE(health.at("ok").as_bool());
  EXPECT_EQ(health.at("version").as_string(), kPmlVersion);
  EXPECT_EQ(health.at("breaker").as_string(), "closed");
  EXPECT_EQ(health.at("queue_depth").as_int(), 0);
  EXPECT_EQ(health.at("connections").as_int(), 0);
  EXPECT_FALSE(health.at("draining").as_bool());
  // Degradation-ladder rungs: no table compiled yet, model loaded,
  // heuristic always on the menu.
  EXPECT_FALSE(health.at("rungs").at("table").as_bool());
  EXPECT_TRUE(health.at("rungs").at("model").as_bool());
  EXPECT_TRUE(health.at("rungs").at("heuristic").as_bool());
  // The artifact schema matrix rides along so ops can line the daemon up
  // against `pml doctor` verdicts.
  EXPECT_EQ(health.at("artifacts").at("model").at("writes").as_string(),
            "pml-mpi-model-v2");
  const Json::Array& table_reads =
      health.at("artifacts").at("tuning-table").at("reads").as_array();
  ASSERT_EQ(table_reads.size(), 1u);
  EXPECT_EQ(table_reads[0].as_string(), "pml-mpi-tuning-table-v2");

  // ping and stats carry the release string too.
  EXPECT_EQ(reply_of(engine, R"({"op":"ping"})").at("version").as_string(),
            kPmlVersion);
  EXPECT_EQ(reply_of(engine, R"({"op":"stats"})").at("version").as_string(),
            kPmlVersion);
}

TEST_F(ServeTest, QueueFullMissesAreShedToHeuristic) {
  ServeOptions o = options();
  o.async_compile = true;
  o.queue_limit = 1;
  std::atomic<bool> release{false};
  o.compile_fault = [&release] {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  {
    ServeEngine engine(o);
    // First miss occupies the whole pending-compile queue (its compile is
    // parked on compile_fault) and answers from the model rung meanwhile.
    const Json first = reply_of(
        engine,
        R"({"op":"select","cluster":"MRI","collective":"allgather",)"
        R"("nodes":2,"ppn":16,"msg_bytes":1024})");
    ASSERT_TRUE(first.at("ok").as_bool());
    EXPECT_EQ(first.at("source").as_string(), "model");

    // A second miss for a different key would need a second job: shed.
    const Json shed = reply_of(
        engine,
        R"({"op":"select","cluster":"RI","collective":"allgather",)"
        R"("nodes":2,"ppn":16,"msg_bytes":1024})");
    ASSERT_TRUE(shed.at("ok").as_bool());
    EXPECT_EQ(shed.at("cache").as_string(), "miss");
    EXPECT_EQ(shed.at("source").as_string(), "shed");
    EXPECT_TRUE(shed.at("degraded").as_bool());

    // Same key as the parked compile: joins the existing job, not shed.
    const Json joined = reply_of(
        engine,
        R"({"op":"select","cluster":"MRI","collective":"alltoall",)"
        R"("nodes":2,"ppn":16,"msg_bytes":1024})");
    ASSERT_TRUE(joined.at("ok").as_bool());
    EXPECT_EQ(joined.at("source").as_string(), "model");

    // Shed table misses carry the same source tag.
    const Json shed_table =
        reply_of(engine, R"({"op":"table","cluster":"Rome"})");
    ASSERT_TRUE(shed_table.at("ok").as_bool());
    EXPECT_EQ(shed_table.at("source").as_string(), "shed");
    EXPECT_TRUE(shed_table.at("degraded").as_bool());

    const Json stats = reply_of(engine, R"({"op":"stats"})");
    EXPECT_EQ(stats.at("shed").as_int(), 2);
    EXPECT_EQ(stats.at("queue_depth").as_int(), 1);
    release.store(true);
    engine.drain();
  }
}

TEST_F(ServeTest, WaitDeadlineExpiresToTheCurrentRung) {
  ServeOptions o = options();
  o.async_compile = true;
  std::atomic<bool> release{false};
  o.compile_fault = [&release] {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  {
    ServeEngine engine(o);
    const std::string request =
        R"({"op":"select","cluster":"MRI","collective":"allgather",)"
        R"("nodes":2,"ppn":16,"msg_bytes":1024)";
    const Json expired =
        reply_of(engine, request + R"(,"wait":true,"deadline_ms":25})");
    ASSERT_TRUE(expired.at("ok").as_bool());
    EXPECT_EQ(expired.at("deadline").as_string(), "expired");
    EXPECT_EQ(expired.at("cache").as_string(), "miss");
    // Model rung answers once the wait lapses — still a full-quality reply.
    EXPECT_EQ(expired.at("source").as_string(), "model");
    EXPECT_FALSE(expired.at("degraded").as_bool());

    const Json stats = reply_of(engine, R"({"op":"stats"})");
    EXPECT_EQ(stats.at("deadline_expired").as_int(), 1);

    // The compile it stopped waiting for still lands.
    release.store(true);
    engine.drain();
    const Json after = reply_of(engine, request + "}");
    EXPECT_EQ(after.at("cache").as_string(), "hit");
  }
}

TEST_F(ServeTest, DeadlineBeyondTheClockRangeWaitsUnbounded) {
  // now + 9e15 ms overflows the steady clock; such a deadline must wait
  // like no deadline at all, not expire at once.
  ServeOptions o = options();
  o.async_compile = true;
  std::atomic<bool> release{false};
  o.compile_fault = [&release] {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  {
    ServeEngine engine(o);
    std::thread releaser([&release] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      release.store(true);
    });
    const Json reply = reply_of(
        engine,
        R"({"op":"table","cluster":"MRI","wait":true,)"
        R"("deadline_ms":9000000000000000})");
    releaser.join();
    ASSERT_TRUE(reply.at("ok").as_bool());
    EXPECT_EQ(reply.at("cache").as_string(), "compiled");
    EXPECT_FALSE(reply.contains("deadline"));
    EXPECT_FALSE(reply.at("degraded").as_bool());
    engine.drain();
    EXPECT_EQ(engine.stats().deadline_expired, 0u);
  }
}

TEST_F(ServeTest, NegativeDeadlineIsAConfigError) {
  ServeEngine engine(options());
  const Json reply = reply_of(
      engine,
      R"({"op":"select","cluster":"MRI","collective":"allgather",)"
      R"("nodes":2,"ppn":16,"msg_bytes":1024,"wait":true,"deadline_ms":-5})");
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("code").as_string(), "config");
}

TEST_F(ServeTest, CompileBreakerOpensServesHeuristicAndProbesBack) {
  ServeOptions o = options();
  o.async_compile = false;
  o.breaker.failure_threshold = 2;
  o.breaker.open_seconds = 10.0;
  double now = 0.0;
  o.breaker.now = [&now] { return now; };
  std::atomic<bool> fail{true};
  std::atomic<int> attempts{0};
  o.compile_fault = [&fail, &attempts] {
    attempts.fetch_add(1);
    if (fail.load()) throw MlError("injected compile fault");
  };
  ServeEngine engine(o);
  const auto select = [](const char* cluster, const char* extra = "") {
    return std::string(R"({"op":"select","cluster":")") + cluster +
           R"(","collective":"allgather","nodes":2,"ppn":16,)"
           R"("msg_bytes":1024)" + extra + "}";
  };

  // Two consecutive compile failures (distinct keys => distinct jobs)
  // reach the threshold and open the breaker. Both replies still answer
  // from the model rung: a failed *compile* does not degrade *inference*.
  const Json first = reply_of(engine, select("MRI", R"(,"wait":true)"));
  ASSERT_TRUE(first.at("ok").as_bool());
  EXPECT_EQ(first.at("source").as_string(), "model");
  reply_of(engine, select("RI", R"(,"wait":true)"));
  EXPECT_EQ(engine.breaker_state(), BreakerState::kOpen);
  EXPECT_EQ(attempts.load(), 2);

  // While open, a fresh miss doesn't even attempt the compile: admission
  // rejects it and the reply degrades with an explicit breaker marker.
  const Json rejected = reply_of(engine, select("Rome"));
  ASSERT_TRUE(rejected.at("ok").as_bool());
  EXPECT_EQ(rejected.at("breaker").as_string(), "open");
  EXPECT_EQ(rejected.at("source").as_string(), "heuristic");
  EXPECT_TRUE(rejected.at("degraded").as_bool());
  EXPECT_EQ(attempts.load(), 2);
  const Json stats = reply_of(engine, R"({"op":"stats"})");
  EXPECT_EQ(stats.at("compile_failures").as_int(), 2);
  EXPECT_EQ(stats.at("breaker").as_string(), "open");

  // Window expires, the fault clears: the next miss is the half-open
  // probe, its success closes the breaker and serves the compiled table.
  fail.store(false);
  now = 11.0;
  const Json probed = reply_of(engine, select("Rome", R"(,"wait":true)"));
  ASSERT_TRUE(probed.at("ok").as_bool());
  EXPECT_EQ(probed.at("cache").as_string(), "compiled");
  EXPECT_EQ(engine.breaker_state(), BreakerState::kClosed);
  EXPECT_EQ(attempts.load(), 3);
}

TEST_F(ServeTest, UnloadableModelLeavesTheBreakerClosed) {
  // The breaker counts compiles that throw. A corrupt artifact makes each
  // compile job a re-read that finds no model: the misses answer from the
  // heuristic rung, and as many of them as the threshold neither count as
  // compile failures nor open the breaker.
  write_file(model_path(), "{\"not\": \"a model\"}\n");
  ServeEngine engine(options());
  ASSERT_FALSE(engine.model_loaded());
  for (const char* cluster : {"MRI", "RI", "Rome"}) {
    const Json reply = reply_of(
        engine, std::string(R"({"op":"select","cluster":")") + cluster +
                    R"(","collective":"allgather","nodes":2,"ppn":16,)"
                    R"("msg_bytes":1024,"wait":true})");
    ASSERT_TRUE(reply.at("ok").as_bool()) << cluster;
    EXPECT_EQ(reply.at("cache").as_string(), "miss") << cluster;
    EXPECT_EQ(reply.at("source").as_string(), "heuristic") << cluster;
    EXPECT_FALSE(reply.contains("breaker")) << cluster;
  }
  const Json stats = reply_of(engine, R"({"op":"stats"})");
  EXPECT_EQ(stats.at("breaker").as_string(), "closed");
  EXPECT_EQ(stats.at("compile_failures").as_int(), 0);
  EXPECT_EQ(engine.breaker_state(), BreakerState::kClosed);
}

/// A select reply rendered the way the engine rendered every select reply
/// before it wrote them without a DOM: one Json DOM, dumped.
std::string dom_select_reply(const coll::Selection& selection,
                             const std::string& cache,
                             const std::string& source, bool degraded,
                             bool timed_out, bool breaker_open) {
  Json reply = Json::object();
  reply["ok"] = true;
  reply["op"] = std::string("select");
  reply["display_name"] = selection.display();
  Json sel = Json::object();
  sel["kind"] = coll::to_string(selection.kind);
  sel["algorithm"] = coll::to_string(selection.algorithm);
  sel["intra"] = coll::to_string(selection.intra);
  sel["encoded"] = selection.encode();
  reply["selection"] = std::move(sel);
  reply["cache"] = cache;
  reply["source"] = source;
  reply["degraded"] = degraded;
  if (timed_out) reply["deadline"] = std::string("expired");
  if (breaker_open) reply["breaker"] = std::string("open");
  return reply.dump();
}

TEST(ServedTable, HitRepliesMatchTheDomReplyForEverySelection) {
  // Every selection of the four selection spaces, flat and leader, under
  // every cache/source/flag combination (a superset of the ones the
  // engine's rungs emit).
  std::vector<coll::Selection> space;
  for (const coll::Collective c : coll::all_collectives()) {
    const std::vector<coll::Selection>& own = coll::selection_space(c);
    space.insert(space.end(), own.begin(), own.end());
  }
  ASSERT_EQ(space.size(), 40u);
  for (const coll::Selection& selection : space) {
    for (const char* cache : {"hit", "compiled", "miss"}) {
      for (const char* source : {"table", "model", "heuristic", "shed"}) {
        for (int flags = 0; flags < 8; ++flags) {
          const bool degraded = (flags & 1) != 0;
          const bool timed_out = (flags & 2) != 0;
          const bool breaker_open = (flags & 4) != 0;
          ASSERT_EQ(detail::select_reply(selection, cache, source, degraded,
                                         timed_out, breaker_open),
                    dom_select_reply(selection, cache, source, degraded,
                                     timed_out, breaker_open))
              << selection.encode() << " " << cache << " " << source << " "
              << flags;
        }
      }
    }
  }
  // A selection no space holds (a leader fan-out outside the any-ppn
  // bcast algorithms) is rendered the same way, on the fly.
  const coll::Selection outside = coll::Selection::leader(
      coll::Algorithm::kAgRing, coll::Algorithm::kBcScatterAllgather);
  ASSERT_EQ(std::count(space.begin(), space.end(), outside), 0);
  EXPECT_EQ(detail::select_reply(outside, "miss", "model", false, false, false),
            dom_select_reply(outside, "miss", "model", false, false, false));

  // A cached table keeps only its pre-serialized JSON beside it.
  TuningTable table("every-selection");
  JobTable job;
  job.collective = coll::Collective::kAllgather;
  job.nodes = 2;
  job.ppn = 16;
  for (const coll::Selection& selection :
       coll::selection_space(job.collective)) {
    job.entries.push_back({job.entries.size() + 1, selection});
  }
  table.add(std::move(job));
  const ServedTable served(table);
  EXPECT_EQ(served.json, table.to_json().dump());
}

const std::string kPlainSelect =
    R"({"op":"select","cluster":"MRI","collective":"allgather",)"
    R"("nodes":2,"ppn":16,"msg_bytes":1024})";
/// kPlainSelect with a member the scanner does not read: the DOM path.
const std::string kDomSelect =
    R"({"op":"select","cluster":"MRI","collective":"allgather",)"
    R"("nodes":2,"ppn":16,"msg_bytes":1024,"wait":false})";

TEST_F(ServeTest, NamedSelectWhoseDefaultSweepOverflowsGetsTheSweepError) {
  // The default sweep overflows the int rank count on every builtin
  // cluster, so no named cluster resolves when the engine starts: a named
  // select resolves its sweep per request and fails with the sweep's text.
  ServeOptions o = options();
  o.compile = CompileOptions::sweep({1 << 30}, {4}, {1024});
  ServeEngine engine(std::move(o));
  for (const std::string& request : {kPlainSelect, kDomSelect}) {
    const Json reply = reply_of(engine, request);
    EXPECT_FALSE(reply.at("ok").as_bool()) << request;
    EXPECT_EQ(reply.at("code").as_string(), "config") << request;
    EXPECT_EQ(reply.at("error").as_string(),
              "config: sweep: 1073741824 nodes * 4 ppn exceeds 2147483647 "
              "ranks")
        << request;
  }
  // An unknown name still fails on the name.
  const Json unknown = reply_of(
      engine, R"({"op":"select","cluster":"Nope","collective":"allgather",)"
              R"("nodes":2,"ppn":16,"msg_bytes":1024})");
  EXPECT_EQ(unknown.at("error").as_string(), "config: unknown cluster: Nope");
}

TEST_F(ServeTest, ScannedHitsCountAndReplyLikeDomHits) {
  ServeEngine engine(options());
  engine.handle_line(R"({"op":"table","cluster":"MRI","wait":true})");
  detail::ScannedSelect scanned;
  ASSERT_TRUE(detail::scan_select(kPlainSelect, scanned));
  ASSERT_FALSE(detail::scan_select(kDomSelect, scanned));
  const ServeEngine::Stats before = engine.stats();
  for (int i = 0; i < 5; ++i) {
    const std::string reply = engine.handle_line(kPlainSelect);
    EXPECT_EQ(reply, engine.handle_line(kDomSelect));
    EXPECT_NE(reply.find(R"("cache":"hit","source":"table")"),
              std::string::npos)
        << reply;
  }
  const ServeEngine::Stats after = engine.stats();
  EXPECT_EQ(after.requests - before.requests, 10u);
  EXPECT_EQ(after.cache_hits - before.cache_hits, 10u);
  EXPECT_EQ(after.cache_misses, before.cache_misses);
  EXPECT_EQ(after.compiles, before.compiles);
  EXPECT_EQ(after.degraded, before.degraded);
  EXPECT_EQ(after.errors, before.errors);
  const Json stats = reply_of(engine, R"({"op":"stats"})");
  EXPECT_EQ(stats.at("requests").as_int(),
            static_cast<std::int64_t>(after.requests + 1));
  EXPECT_EQ(stats.at("cache_hits").as_int(),
            static_cast<std::int64_t>(after.cache_hits));
}

TEST_F(ServeTest, ScannedSelectWhileDrainingGetsTheDrainError) {
  ServeEngine engine(options());
  engine.handle_line(R"({"op":"table","cluster":"MRI","wait":true})");
  engine.begin_drain();
  const std::string expected =
      R"({"ok":false,"error":"serve: draining; not accepting new work",)"
      R"("code":"config","status":3,"draining":true})";
  const ServeEngine::Stats before = engine.stats();
  EXPECT_EQ(engine.handle_line(kPlainSelect), expected);
  EXPECT_EQ(engine.handle_line(kDomSelect), expected);
  const ServeEngine::Stats after = engine.stats();
  EXPECT_EQ(after.requests - before.requests, 2u);
  EXPECT_EQ(after.errors - before.errors, 2u);
  EXPECT_EQ(after.cache_hits, before.cache_hits);
}

TEST_F(ServeTest, DrainingRejectsNewWorkButKeepsHealthOps) {
  ServeEngine engine(options());
  engine.begin_drain();
  const Json select = reply_of(
      engine,
      R"({"op":"select","cluster":"MRI","collective":"allgather",)"
      R"("nodes":2,"ppn":16,"msg_bytes":1024})");
  EXPECT_FALSE(select.at("ok").as_bool());
  EXPECT_TRUE(select.at("draining").as_bool());
  EXPECT_EQ(select.at("code").as_string(), "config");
  const Json table = reply_of(engine, R"({"op":"table","cluster":"MRI"})");
  EXPECT_FALSE(table.at("ok").as_bool());

  EXPECT_TRUE(reply_of(engine, R"({"op":"ping"})").at("ok").as_bool());
  const Json health = reply_of(engine, R"({"op":"health"})");
  EXPECT_TRUE(health.at("ok").as_bool());
  EXPECT_TRUE(health.at("draining").as_bool());
}

TEST_F(ServeTest, StatsReplyAndObsCountersAgreeOnEveryEvent) {
  const bool was = obs::set_enabled(true);
  obs::reset();
  ServeOptions o = options();
  o.async_compile = true;
  o.queue_limit = 1;
  std::atomic<bool> release{false};
  o.compile_fault = [&release] {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  const std::string mri =
      R"({"op":"select","cluster":"MRI","collective":"allgather",)"
      R"("nodes":2,"ppn":16,"msg_bytes":1024)";
  Json stats;
  {
    ServeEngine engine(o);
    // Miss: the compile parks on compile_fault, the model answers.
    EXPECT_EQ(reply_of(engine, mri + "}").at("source").as_string(), "model");
    // Waited miss joining the parked compile: its deadline expires.
    EXPECT_EQ(reply_of(engine, mri + R"(,"wait":true,"deadline_ms":0})")
                  .at("deadline")
                  .as_string(),
              "expired");
    // Miss needing a second job while the queue is full: shed.
    EXPECT_EQ(reply_of(engine,
                       R"({"op":"select","cluster":"RI","collective":)"
                       R"("allgather","nodes":2,"ppn":16,"msg_bytes":1024})")
                  .at("source")
                  .as_string(),
              "shed");
    release.store(true);
    engine.drain();
    // Hit on the now-compiled table.
    EXPECT_EQ(reply_of(engine, mri + "}").at("cache").as_string(), "hit");
    // Model gone: a waited miss lands on the heuristic rung.
    std::filesystem::remove(model_path());
    EXPECT_EQ(reply_of(engine,
                       R"({"op":"select","cluster":"Rome","collective":)"
                       R"("alltoall","nodes":2,"ppn":16,"msg_bytes":1024,)"
                       R"("wait":true})")
                  .at("source")
                  .as_string(),
              "heuristic");
    // Parse error, then a draining rejection: both are errors.
    EXPECT_FALSE(reply_of(engine, "{not json").at("ok").as_bool());
    engine.begin_drain();
    EXPECT_TRUE(reply_of(engine, mri + "}").at("draining").as_bool());
    stats = reply_of(engine, R"({"op":"stats"})");
  }
  EXPECT_EQ(stats.at("cache_hits").as_int(), 1);
  EXPECT_EQ(stats.at("shed").as_int(), 1);
  EXPECT_EQ(stats.at("deadline_expired").as_int(), 1);
  EXPECT_EQ(stats.at("degraded").as_int(), 2);
  EXPECT_EQ(stats.at("errors").as_int(), 2);

  std::map<std::string, std::uint64_t> counters;
  for (const obs::CounterSample& c : obs::snapshot().counters) {
    counters[c.name] = c.value;
  }
  for (const ServeEventRow& row : kServeEvents) {
    EXPECT_EQ(static_cast<std::uint64_t>(stats.at(row.reply_key).as_int()),
              counters[row.counter])
        << row.reply_key << " vs " << row.counter;
  }
  obs::reset();
  obs::set_enabled(was);
}

TEST_F(ServeTest, StdioTransportRoundTrips) {
  ServeEngine engine(options());
  const std::string in_path = (dir_ / "in.txt").string();
  const std::string out_path = (dir_ / "out.txt").string();
  write_file(in_path,
             "{\"op\":\"ping\"}\n\n{\"op\":\"stats\"}\n");  // blank line skipped
  std::FILE* in = std::fopen(in_path.c_str(), "r");
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  ASSERT_NE(in, nullptr);
  ASSERT_NE(out, nullptr);
  serve_stdio(engine, in, out);
  std::fclose(in);
  std::fclose(out);

  const std::vector<std::string> lines = split(read_file(out_path), '\n');
  ASSERT_GE(lines.size(), 2u);
  EXPECT_TRUE(Json::parse(lines[0]).at("ok").as_bool());
  const Json stats = Json::parse(lines[1]);
  EXPECT_TRUE(stats.at("ok").as_bool());
  EXPECT_EQ(stats.at("requests").as_int(), 2);
}

TEST_F(ServeTest, StdioTransportStripsCrlfAndAnswersAnUnterminatedLastLine) {
  ServeEngine engine(options());
  const std::string in_path = (dir_ / "in.txt").string();
  const std::string out_path = (dir_ / "out.txt").string();
  write_file(in_path,  // CRLF, a blank line, and no final newline
             "{\"op\":\"ping\"}\r\n\r\n{\"op\":\"ping\"}\r\n"
             "{\"op\":\"stats\"}");
  std::FILE* in = std::fopen(in_path.c_str(), "r");
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  ASSERT_NE(in, nullptr);
  ASSERT_NE(out, nullptr);
  serve_stdio(engine, in, out);
  std::fclose(in);
  std::fclose(out);

  const std::string written = read_file(out_path);
  ASSERT_FALSE(written.empty());
  EXPECT_EQ(written.back(), '\n');
  const std::vector<std::string> lines = split(written, '\n');
  ASSERT_GE(lines.size(), 3u);
  EXPECT_TRUE(Json::parse(lines[0]).at("ok").as_bool());
  EXPECT_TRUE(Json::parse(lines[1]).at("ok").as_bool());
  const Json stats = Json::parse(lines[2]);
  EXPECT_EQ(stats.at("requests").as_int(), 3);
}

/// Loopback line client for the transport tests. It sets TCP_NODELAY on
/// its own sends, as a job launcher would, and keeps Linux's delayed ACKs
/// on its reads; a read gives up after 10 s instead of hanging the suite.
class LineClient {
 public:
  explicit LineClient(int port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
        0);
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    timeval tv{};
    tv.tv_sec = 10;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }
  ~LineClient() { ::close(fd_); }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  void send(const std::string& bytes) {
    EXPECT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  /// The next reply line without its '\n'; "" on timeout or EOF.
  std::string read_line() {
    for (;;) {
      const std::size_t end = buffer_.find('\n');
      if (end != std::string::npos) {
        std::string line = buffer_.substr(0, end);
        buffer_.erase(0, end + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buffer_;
};

std::string select_line(const std::string& cluster, const char* collective,
                        int nodes, std::uint64_t msg_bytes,
                        const char* extra = "") {
  return R"({"op":"select","cluster":")" + cluster + R"(","collective":")" +
         collective + R"(","nodes":)" + std::to_string(nodes) +
         R"(,"ppn":16,"msg_bytes":)" + std::to_string(msg_bytes) + extra + "}";
}

TEST_F(ServeTest, TcpTransportServesConcurrentConnections) {
  ServeEngine engine(options());
  TcpServer server(engine);
  const int port = server.start(0);
  ASSERT_GT(port, 0);

  const auto query = [port](const std::string& line) {
    LineClient client(port);
    client.send(line + "\n");
    return client.read_line();
  };
  const Json pong = Json::parse(query(R"({"op":"ping"})"));
  EXPECT_TRUE(pong.at("ok").as_bool());
  const Json select = Json::parse(
      query(select_line("MRI", "allgather", 2, 1024, R"(,"wait":true)")));
  EXPECT_TRUE(select.at("ok").as_bool());
  server.stop();
}

TEST_F(ServeTest, TcpStartRejectsPortsOutsideTheU16Range) {
  // A cast to uint16_t would turn 70000 into 4464 and -1 into 65535.
  ServeEngine engine(options());
  TcpServer server(engine);
  EXPECT_THROW(server.start(70000), ConfigError);
  EXPECT_THROW(server.start(65536), ConfigError);
  EXPECT_THROW(server.start(-1), ConfigError);
  const int port = server.start(0);  // the rejects left nothing bound
  EXPECT_GT(port, 0);
  server.stop();
}

TEST_F(ServeTest, TcpPipelinedBurstIsAnsweredInOrderAsTheEngineWould) {
  // 200 requests in one write: the server reads them in several chunks,
  // with lines cut at chunk edges, and batches each read's replies.
  const char* clusters[] = {"MRI", "RI", "Rome", "Frontera"};
  const char* collectives[] = {"allgather", "alltoall"};
  std::vector<std::string> lines;
  std::string burst;
  for (std::uint64_t i = 0; i < 200; ++i) {
    lines.push_back(i % 5 == 0 ? R"({"op":"ping"})"
                               : select_line(clusters[i % 4],
                                             collectives[i % 3 % 2],
                                             2 << (i % 2), 1024 << (i % 7)));
    burst += lines.back() + "\n";
  }
  ServeEngine reference(options());
  ServeEngine engine(options());
  TcpServer server(engine);
  LineClient client(server.start(0));
  client.send(burst);
  for (const std::string& line : lines) {
    EXPECT_EQ(client.read_line(), reference.handle_line(line)) << line;
  }
  server.stop();
}

TEST_F(ServeTest, TcpRepliesDoNotDependOnWhereTheStreamSplits) {
  ServeEngine engine(options());
  const std::string a = select_line("MRI", "allgather", 2, 1024);
  const std::string b = select_line("MRI", "alltoall", 4, 65536);
  engine.handle_line(
      select_line("MRI", "allgather", 2, 1024, R"(,"wait":true)"));
  const std::vector<std::string> expected = {
      engine.handle_line(R"({"op":"ping"})"), engine.handle_line(a),
      engine.handle_line(b)};
  const std::string script =
      "{\"op\":\"ping\"}\r\n\r\n" + a + "\n" + b + "\r\n";

  TcpServer server(engine);
  LineClient client(server.start(0));
  for (std::size_t cut = 1; cut < script.size(); ++cut) {
    client.send(script.substr(0, cut));
    // Give the first part time to arrive as a read of its own.
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    client.send(script.substr(cut));
    for (const std::string& reply : expected) {
      EXPECT_EQ(client.read_line(), reply) << "cut at byte " << cut;
    }
  }
  server.stop();
}

TEST_F(ServeTest, TcpSecondReplyIsNotHeldByNagle) {
  // Two requests in two writes, then silence. Under Nagle the second
  // reply waits for the ACK of the first, which a delayed-ACK client only
  // sends after Linux's 40 ms floor.
  ServeEngine engine(options());
  TcpServer server(engine);
  LineClient client(server.start(0));
  const std::string ping = "{\"op\":\"ping\"}\n";
  for (int i = 0; i < 20; ++i) {
    client.send(ping);
    ASSERT_FALSE(client.read_line().empty());
  }
  std::vector<double> ms;
  for (int trial = 0; trial < 20; ++trial) {
    const auto start = std::chrono::steady_clock::now();
    client.send(ping);
    client.send(ping);
    ASSERT_FALSE(client.read_line().empty());
    ASSERT_FALSE(client.read_line().empty());
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count());
  }
  std::nth_element(ms.begin(), ms.begin() + 10, ms.end());
  EXPECT_LT(ms[10], 20.0);
  server.stop();
}

TEST_F(ServeTest, TcpComputedReplyIsNotHeldBehindAWaitedCompile) {
  ServeOptions o = options();
  o.async_compile = true;
  std::atomic<bool> park{false};
  std::atomic<bool> released{false};
  o.compile_fault = [&park, &released] {
    if (!park.load()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    released.store(true);
  };
  ServeEngine engine(o);
  const std::string cached = select_line("MRI", "allgather", 2, 1024);
  engine.handle_line(
      select_line("MRI", "allgather", 2, 1024, R"(,"wait":true)"));
  park.store(true);

  TcpServer server(engine);
  LineClient client(server.start(0));
  client.send(cached + "\n" + R"({"op":"table","cluster":"Rome","wait":true})" +
              "\n");
  const Json select = Json::parse(client.read_line());
  EXPECT_FALSE(released.load());
  EXPECT_EQ(select.at("op").as_string(), "select");
  EXPECT_EQ(select.at("cache").as_string(), "hit");
  const Json table = Json::parse(client.read_line());
  EXPECT_TRUE(released.load());
  EXPECT_EQ(table.at("cache").as_string(), "compiled");
  server.stop();
}

}  // namespace
}  // namespace pml::core
