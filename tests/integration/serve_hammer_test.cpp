// Serve-layer concurrency suite (ctest -L serve): N client threads hammer
// one ServeEngine with a mixed hit/miss/degraded workload, and a chaos
// case corrupts the model artifact mid-serve. Run under PML_SANITIZE=thread
// these tests are the TSan witnesses for the PmlFramework thread-safety
// contract (framework.hpp) — notably the formerly racy inference_seconds_
// write in compile_for — and for the serve cache/compile-job locking.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/artifact.hpp"
#include "common/strings.hpp"
#include "core/serve.hpp"

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

/// An MRI variant with index-unique silicon: every index is a distinct
/// hardware fingerprint, i.e. a guaranteed cache miss and compile.
Json respec(int index) {
  Json spec = sim::cluster_by_name("MRI").to_json();
  spec["hardware"]["cores"] = 32 + index;
  return spec;
}

class ServeHammerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pml_serve_hammer_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    write_artifact(model_path(), trained().to_json(), "model");
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string model_path() const { return (dir_ / "model.json").string(); }

  ServeOptions options() const {
    ServeOptions o;
    o.model_path = model_path();
    o.compile = CompileOptions::sweep({2, 4}, {16}, {1024, 65536});
    o.shards = 4;
    o.shard_capacity = 32;  // roomy: this suite measures races, not eviction
    return o;
  }

  std::filesystem::path dir_;
};

TEST_F(ServeHammerTest, ConcurrentMixedWorkloadAnswersEveryRequest) {
  ServeEngine engine(options());
  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 40;

  std::atomic<int> failures{0};
  std::mutex first_failure_mutex;
  std::string first_failure;

  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        std::string request;
        switch ((t + i) % 5) {
          case 0:  // steady-state hit path on a builtin cluster
            request =
                R"({"op":"select","cluster":"MRI","collective":"allgather",)"
                R"("nodes":2,"ppn":16,"msg_bytes":1024})";
            break;
          case 1:  // miss path: per-(t,i) unique fingerprint, async compile
            request = std::string(R"({"op":"select","cluster":)") +
                      respec(t * kRequestsPerThread + i).dump() +
                      R"(,"collective":"alltoall","nodes":4,"ppn":16,)"
                      R"("msg_bytes":65536})";
            break;
          case 2:  // blocking compile
            request =
                R"({"op":"table","cluster":"Frontera","wait":true})";
            break;
          case 3:
            request = R"({"op":"stats"})";
            break;
          default:
            request = R"({"op":"ping"})";
        }
        const Json reply = Json::parse(engine.handle_line(request));
        if (!reply.at("ok").as_bool()) {
          failures.fetch_add(1);
          std::lock_guard<std::mutex> lock(first_failure_mutex);
          if (first_failure.empty()) first_failure = reply.dump();
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  engine.drain();

  EXPECT_EQ(failures.load(), 0) << first_failure;
  const ServeEngine::Stats stats = engine.stats();
  EXPECT_EQ(stats.requests,
            static_cast<std::uint64_t>(kThreads * kRequestsPerThread));
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_GT(stats.compiles, 0u);
}

TEST_F(ServeHammerTest, ModelCorruptionMidServeDegradesWithoutDroppedRequests) {
  ServeEngine engine(options());
  constexpr int kThreads = 4;
  constexpr int kRequestsPerThread = 30;

  std::atomic<int> failures{0};
  std::atomic<int> done{0};
  const std::string pristine = read_file(model_path());

  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        // All misses (unique fingerprints): every request walks the full
        // ladder — revalidate, compile, or heuristic — while the artifact
        // churns underneath.
        const std::string request =
            std::string(R"({"op":"select","cluster":)") +
            respec(1000 + t * kRequestsPerThread + i).dump() +
            R"(,"collective":"allgather","nodes":2,"ppn":16,)"
            R"("msg_bytes":1024,"wait":true})";
        const Json reply = Json::parse(engine.handle_line(request));
        if (!reply.at("ok").as_bool()) failures.fetch_add(1);
      }
      done.fetch_add(1);
    });
  }

  // Corrupt the artifact roughly mid-hammer, then restore it.
  while (done.load() == 0 && engine.stats().requests < kThreads * 5) {
    std::this_thread::yield();
  }
  write_file(model_path(), pristine.substr(0, pristine.size() / 3));
  while (done.load() < kThreads / 2 &&
         engine.stats().requests < kThreads * kRequestsPerThread / 2) {
    std::this_thread::yield();
  }
  write_file(model_path(), pristine);

  for (std::thread& c : clients) c.join();
  engine.drain();
  EXPECT_EQ(failures.load(), 0);

  // With the artifact corrupt, a fresh miss deterministically degrades to
  // the heuristic rung (wait=true forces the failed revalidate first)...
  write_file(model_path(), "{\"definitely\": \"not a model\"}");
  const Json degraded = Json::parse(engine.handle_line(
      std::string(R"({"op":"select","cluster":)") + respec(5001).dump() +
      R"(,"collective":"allgather","nodes":2,"ppn":16,"msg_bytes":1024,)"
      R"("wait":true})"));
  ASSERT_TRUE(degraded.at("ok").as_bool());
  EXPECT_TRUE(degraded.at("degraded").as_bool());
  EXPECT_EQ(degraded.at("source").as_string(), "heuristic");

  // ...and repairing the file on disk restores full-quality serving with
  // no restart: the next miss revalidates, reloads, and compiles.
  write_file(model_path(), pristine);
  const Json recovered = Json::parse(engine.handle_line(
      std::string(R"({"op":"select","cluster":)") + respec(5002).dump() +
      R"(,"collective":"allgather","nodes":2,"ppn":16,"msg_bytes":1024,)"
      R"("wait":true})"));
  ASSERT_TRUE(recovered.at("ok").as_bool());
  EXPECT_FALSE(recovered.at("degraded").as_bool());
  EXPECT_EQ(recovered.at("source").as_string(), "table");
}

// Model-rung witness: many threads issue uncached selects against ONE
// cluster while its compile is held, so the model rung runs concurrent,
// lock-free PmlFramework::select() calls on one shared framework (TSan
// checks this through the serve label). The hold lasts until every thread
// has had a model reply. Every query sticks to the engine's sweep grid,
// where the model-inference rung and the compiled-table rung provably
// agree — so every reply, whichever rung answered it, must equal direct
// single-query inference on the same trained model.
TEST_F(ServeHammerTest, CoalescedSelectsMatchDirectInference) {
  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 50;
  std::atomic<int> threads_with_model_reply{0};
  ServeOptions o = options();
  o.compile_fault = [&threads_with_model_reply] {
    // Every thread's first request misses while this holds, and a miss
    // without "wait" never blocks on the compile. The cap only turns a
    // broken model rung into a failed assertion below instead of a hang.
    const auto cap =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (threads_with_model_reply.load() < kThreads &&
           std::chrono::steady_clock::now() < cap) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  ServeEngine engine(o);

  struct Query {
    coll::Collective collective;
    int nodes;
    int ppn;
    std::uint64_t msg_bytes;
  };
  const auto query_for = [](int t, int i) {
    return Query{(t + i) % 2 == 0 ? coll::Collective::kAllgather
                                  : coll::Collective::kAlltoall,
                 (i % 4 < 2) ? 2 : 4, 16,
                 (i % 2 == 0) ? std::uint64_t{1024} : std::uint64_t{65536}};
  };

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      bool had_model_reply = false;
      for (int i = 0; i < kRequestsPerThread; ++i) {
        const Query q = query_for(t, i);
        const std::string request =
            std::string(R"({"op":"select","cluster":"Frontera",)") +
            R"("collective":")" + coll::to_string(q.collective) +
            R"(","nodes":)" + std::to_string(q.nodes) +
            R"(,"ppn":)" + std::to_string(q.ppn) + R"(,"msg_bytes":)" +
            std::to_string(q.msg_bytes) + "}";
        const Json reply = Json::parse(engine.handle_line(request));
        if (!reply.at("ok").as_bool()) {
          mismatches.fetch_add(1);
          continue;
        }
        if (!had_model_reply && reply.at("source").as_string() == "model") {
          had_model_reply = true;
          threads_with_model_reply.fetch_add(1);
        }
        const coll::Selection expected = trained().select(
            q.collective, sim::cluster_by_name("Frontera"),
            sim::Topology{q.nodes, q.ppn}, q.msg_bytes);
        if (reply.at("algorithm").as_string() !=
                coll::to_string(expected.algorithm) ||
            reply.at("selection").at("encoded").as_string() !=
                expected.encode()) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  engine.drain();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(threads_with_model_reply.load(), kThreads);
  EXPECT_EQ(engine.stats().errors, 0u);
}

// Satellite regression: compile_for used to write the non-atomic
// inference_seconds_ member, so concurrent compiles on one framework were
// a data race (TSan-visible). Concurrent compiles must now be clean and
// byte-deterministic, with per-compile timing on the table itself.
TEST_F(ServeHammerTest, ConcurrentCompileForIsRaceFreeAndDeterministic) {
  PmlFramework& fw = trained();
  const CompileOptions options =
      CompileOptions::sweep({2, 4}, {16}, {1024, 65536});
  const std::string expected =
      fw.compile_for(sim::cluster_by_name("MRI"), options).to_json().dump();

  constexpr std::size_t kThreads = 8;
  std::vector<std::string> dumps(kThreads);
  std::vector<double> seconds(kThreads, 0.0);
  std::vector<std::thread> compilers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    compilers.emplace_back([&, t] {
      const TuningTable table =
          fw.compile_for(sim::cluster_by_name("MRI"), options);
      dumps[t] = table.to_json().dump();
      seconds[t] = table.compile_seconds();
    });
  }
  for (std::thread& c : compilers) c.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(dumps[t], expected) << "thread " << t;
    EXPECT_GT(seconds[t], 0.0) << "thread " << t;
  }
  EXPECT_GT(fw.inference_seconds(), 0.0);
}

}  // namespace
}  // namespace pml::core
