// Serve-layer throughput and latency benchmarks, with a hard gate in
// main() on the cached single-query path: the daemon's steady state must
// clear 100k selections/sec/core with a sub-millisecond p99, and a plain
// cached select (single-pass scan, no reply DOM) must run at least
// 1.5x the rate of the same request read through the Json DOM, or the
// gate fails the run (the smoke ctest entry therefore catches throughput
// rot, not just bit-rot). The ratio compares two paths interleaved on one
// host, so it holds on any machine. Emits machine-readable JSON via the
// standard google-benchmark flags; the repo's recorded trajectory lives in
// BENCH_serve_throughput.json:
//
//   build/bench/serve_throughput --benchmark_out_format=json
//                                --benchmark_out=BENCH_serve_throughput.json
//
// Headline series: BM_ServeCachedSelect (full protocol round trip,
// JSON in / JSON out, cache hit), BM_ServeCacheGet (the sharded LRU
// probe alone), BM_ServeDegradedSelect (heuristic bottom rung), and
// BM_ServeTableHit (pre-serialized table replies). p50_ns/p99_ns
// counters on the cached-select series record the per-request latency
// distribution measured over the benchmark's own iterations.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/artifact.hpp"
#include "core/serve.hpp"

// Under a sanitizer the absolute throughput targets are meaningless
// (TSan alone is a 10-20x slowdown), so the gate downgrades to
// informational: the numbers still print, but only a native build can
// fail on them. Sanitized CI jobs run this smoke for the race/UB
// coverage of the hot path, not for wall-clock.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define PML_BENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define PML_BENCH_SANITIZED 1
#endif
#endif
#ifndef PML_BENCH_SANITIZED
#define PML_BENCH_SANITIZED 0
#endif

namespace {

using namespace pml;

core::PmlFramework& trained() {
  static core::PmlFramework fw = [] {
    core::TrainOptions options;
    options.forest.n_trees = 8;
    const std::vector<sim::ClusterSpec> clusters = {
        sim::cluster_by_name("RI"), sim::cluster_by_name("Rome")};
    return core::PmlFramework::train(clusters, options);
  }();
  return fw;
}

/// A ready-to-serve engine with the MRI table already compiled and cached
/// (one warm-up request with wait=true), backed by a real model artifact
/// in a temp dir.
core::ServeEngine& warm_engine() {
  static std::unique_ptr<core::ServeEngine> engine = [] {
    const auto dir =
        std::filesystem::temp_directory_path() / "pml_serve_bench";
    std::filesystem::create_directories(dir);
    const std::string model = (dir / "model.json").string();
    write_artifact(model, trained().to_json(), "model");
    core::ServeOptions options;
    options.model_path = model;
    options.compile =
        core::CompileOptions::sweep({2, 4, 8}, {16, 32}, {1024, 65536});
    auto e = std::make_unique<core::ServeEngine>(std::move(options));
    e->handle_line(R"({"op":"table","cluster":"MRI","wait":true})");
    return e;
  }();
  return *engine;
}

const std::string kCachedSelect =
    R"({"op":"select","cluster":"MRI","collective":"allgather",)"
    R"("nodes":4,"ppn":16,"msg_bytes":65536})";

/// kCachedSelect plus a member the select scanner does not read, so the
/// engine parses it into a Json DOM: the same answer off the fast path.
const std::string kDomSelect =
    R"({"op":"select","cluster":"MRI","collective":"allgather",)"
    R"("nodes":4,"ppn":16,"msg_bytes":65536,"wait":false})";

/// Full protocol round trip on the cached hot path: scan the request,
/// shard-probe the LRU, table lookup, write the reply.
void BM_ServeCachedSelect(benchmark::State& state) {
  core::ServeEngine& engine = warm_engine();
  std::vector<std::uint64_t> latencies;
  latencies.reserve(1 << 16);
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(engine.handle_line(kCachedSelect));
    const auto end = std::chrono::steady_clock::now();
    if (latencies.size() < latencies.capacity()) {
      latencies.push_back(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
              .count()));
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (!latencies.empty()) {
    const auto nth = [&latencies](double q) {
      const std::size_t i = static_cast<std::size_t>(
          q * static_cast<double>(latencies.size() - 1) + 0.5);
      std::nth_element(latencies.begin(),
                       latencies.begin() + static_cast<std::ptrdiff_t>(i),
                       latencies.end());
      return static_cast<double>(latencies[i]);
    };
    state.counters["p50_ns"] = nth(0.50);
    state.counters["p99_ns"] = nth(0.99);
  }
}
BENCHMARK(BM_ServeCachedSelect);

/// The sharded LRU probe alone (key hash + shard lock + list splice).
void BM_ServeCacheGet(benchmark::State& state) {
  core::ServeCache cache(4, 8);
  auto entry = std::make_shared<core::ServedTable>();
  entry->json = "{}";
  cache.put("model/fingerprint/sweep", entry);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.get("model/fingerprint/sweep"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeCacheGet);

/// Bottom rung of the ladder: no model, heuristic answer per request.
void BM_ServeDegradedSelect(benchmark::State& state) {
  static core::ServeEngine* engine = [] {
    core::ServeOptions options;  // no model: heuristic-only serving
    options.compile = core::CompileOptions::sweep({2, 4}, {16}, {1024});
    return new core::ServeEngine(std::move(options));
  }();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->handle_line(kCachedSelect));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeDegradedSelect);

/// Cached "table" replies: the pre-serialized JSON is spliced, not
/// re-serialized, so cost is dominated by the reply copy.
void BM_ServeTableHit(benchmark::State& state) {
  core::ServeEngine& engine = warm_engine();
  const std::string request = R"({"op":"table","cluster":"MRI"})";
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.handle_line(request));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeTableHit);

/// Median of `rounds` ratios DOM time / scanned time, each over `ops`
/// requests per path. The two paths alternate which runs first, so both
/// see the same machine state.
double fast_path_speedup(core::ServeEngine& engine, int rounds, int ops) {
  const auto batch_seconds = [&engine, ops](const std::string& request) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < ops; ++i) {
      benchmark::DoNotOptimize(engine.handle_line(request));
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  std::vector<double> ratios;
  for (int r = 0; r < rounds; ++r) {
    double scanned = 0.0;
    double dom = 0.0;
    if (r % 2 == 0) {
      scanned = batch_seconds(kCachedSelect);
      dom = batch_seconds(kDomSelect);
    } else {
      dom = batch_seconds(kDomSelect);
      scanned = batch_seconds(kCachedSelect);
    }
    ratios.push_back(dom / scanned);
  }
  std::nth_element(ratios.begin(), ratios.begin() + rounds / 2, ratios.end());
  return ratios[static_cast<std::size_t>(rounds / 2)];
}

/// Hard gate: cached selections/sec/core and p99 latency, measured
/// standalone (outside google-benchmark timing), and the fast path's
/// speedup over the DOM path. The absolute thresholds are targets with
/// headroom for noisy CI machines; the recorded
/// BENCH_serve_throughput.json baseline documents the real numbers.
int verify_cached_hot_path() {
  core::ServeEngine& engine = warm_engine();
  constexpr int kWarmup = 2000;
  constexpr int kOps = 20000;
  for (int i = 0; i < kWarmup; ++i) {
    engine.handle_line(kCachedSelect);
    engine.handle_line(kDomSelect);
  }
  // Both paths must give the same bytes before their speeds mean anything.
  const std::string reply = engine.handle_line(kCachedSelect);
  if (reply != engine.handle_line(kDomSelect) ||
      reply.find(R"("cache":"hit")") == std::string::npos) {
    std::fprintf(stderr, "FAIL: scanned and DOM cached selects differ: %s\n",
                 reply.c_str());
    return 1;
  }

  std::vector<std::uint64_t> latencies;
  latencies.reserve(kOps);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kOps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    engine.handle_line(kCachedSelect);
    const auto t1 = std::chrono::steady_clock::now();
    latencies.push_back(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
  }
  const auto end = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(end - start).count();
  const double per_second = static_cast<double>(kOps) / seconds;
  const std::size_t p99_index = (latencies.size() * 99) / 100;
  std::nth_element(latencies.begin(),
                   latencies.begin() + static_cast<std::ptrdiff_t>(p99_index),
                   latencies.end());
  const double p99_ms = static_cast<double>(latencies[p99_index]) / 1e6;

  const double speedup = fast_path_speedup(engine, 41, 500);

  std::printf("serve_throughput gate: %.0f cached selections/sec/core, "
              "p99 = %.4f ms, fast path %.2fx the DOM path "
              "(targets: >= 100k/sec, < 1 ms, >= 1.5x)\n",
              per_second, p99_ms, speedup);
  if (PML_BENCH_SANITIZED) {
    std::printf("sanitized build: gate informational, not enforced\n");
    return 0;
  }
  if (per_second < 100000.0) {
    std::fprintf(stderr,
                 "FAIL: cached select throughput %.0f/sec below 100k/sec\n",
                 per_second);
    return 1;
  }
  if (p99_ms >= 1.0) {
    std::fprintf(stderr, "FAIL: cached select p99 %.4f ms >= 1 ms\n", p99_ms);
    return 1;
  }
  if (speedup < 1.5) {
    std::fprintf(stderr,
                 "FAIL: cached select fast path only %.2fx the DOM path "
                 "(< 1.5x)\n",
                 speedup);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (const int rc = verify_cached_hot_path(); rc != 0) return rc;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
