// Overhead proof for pml::obs (the observability layer's design
// constraint #1): with collection disabled, instrumentation must cost no
// allocations and add < 1% to the hot paths it decorates. main() runs a
// hard gate before the benchmarks — a nonzero exit means the disabled
// path regressed — so the smoke ctest entry catches overhead bit-rot, not
// just build bit-rot. Emits machine-readable JSON via the standard
// google-benchmark flags; the repo's recorded trajectory lives in
// BENCH_obs_overhead.json:
//
//   build/bench/obs_overhead --benchmark_out_format=json
//                            --benchmark_out=BENCH_obs_overhead.json
//
// The headline series: BM_DisabledSpan / BM_DisabledCounterAdd
// (allocs_per_iter == 0, single-digit ns), and BM_TimingOnlyTracingOff
// vs BM_TimingOnlyTracingOn (the end-to-end cost of a fully instrumented
// collective run in both modes).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstddef>
#include <cstdio>

#include "alloc_counter.hpp"
#include "coll/runner.hpp"
#include "obs/obs.hpp"
#include "sim/hardware.hpp"

namespace {

using namespace pml;

double run_timing_only() {
  static const sim::ClusterSpec& cluster = sim::cluster_by_name("Frontera");
  const sim::Topology topo{4, 8};
  const sim::SimOptions opts{.noise_sigma = 0.015,
                             .seed = 2024,
                             .payload = sim::PayloadMode::kTimingOnly};
  return coll::run_collective(cluster, topo, coll::Algorithm::kAgRing, 4096,
                              opts)
      .seconds;
}

// ---- disabled-path micro-costs ----------------------------------------------
// What every instrumented call site pays when tracing is off: one relaxed
// atomic load and a predictable branch. Zero allocations, zero locks.

void BM_DisabledSpan(benchmark::State& state) {
  obs::set_enabled(false);
  const std::size_t allocs_before = g_alloc_count.load();
  for (auto _ : state) {
    obs::Span span("bench.disabled_span");
    benchmark::DoNotOptimize(&span);
  }
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(g_alloc_count.load() - allocs_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_DisabledSpan);

void BM_DisabledCounterAdd(benchmark::State& state) {
  obs::set_enabled(false);
  static obs::Counter counter("bench.disabled_counter");
  const std::size_t allocs_before = g_alloc_count.load();
  for (auto _ : state) {
    counter.add(1);
  }
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(g_alloc_count.load() - allocs_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_DisabledCounterAdd);

// ---- enabled-path costs -----------------------------------------------------
// Fixed iteration counts bound the span buffer; the warm-up pass grows it
// to capacity and reset() keeps that capacity, so the timed loop records
// into pre-sized storage (the amortised steady state of a capture run).

constexpr std::size_t kEnabledIters = 1 << 16;

void BM_EnabledSpan(benchmark::State& state) {
  obs::set_enabled(true);
  obs::reset();
  for (std::size_t i = 0; i < kEnabledIters; ++i) {
    obs::Span span("bench.enabled_span");  // warm-up: size the buffer
  }
  obs::reset();
  const std::size_t allocs_before = g_alloc_count.load();
  for (auto _ : state) {
    obs::Span span("bench.enabled_span");
    benchmark::DoNotOptimize(&span);
  }
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(g_alloc_count.load() - allocs_before),
      benchmark::Counter::kAvgIterations);
  obs::reset();
  obs::set_enabled(false);
}
BENCHMARK(BM_EnabledSpan)->Iterations(kEnabledIters);

// ---- end-to-end: fully instrumented collective run --------------------------
// The same timing-only invocation as bench/sweep_hotpath.cpp, now with the
// engine/runner instrumentation compiled in. Tracing off must still be
// allocation-free after warm-up — the disabled obs entry points may not
// reintroduce heap traffic into the steady state.

void BM_TimingOnlyTracingOff(benchmark::State& state) {
  obs::set_enabled(false);
  benchmark::DoNotOptimize(run_timing_only());  // warm thread-local engine
  const std::size_t allocs_before = g_alloc_count.load();
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_timing_only());
  }
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(g_alloc_count.load() - allocs_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_TimingOnlyTracingOff)->Unit(benchmark::kMicrosecond);

void BM_TimingOnlyTracingOn(benchmark::State& state) {
  obs::set_enabled(true);
  obs::reset();
  benchmark::DoNotOptimize(run_timing_only());
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_timing_only());
  }
  obs::reset();
  obs::set_enabled(false);
}
BENCHMARK(BM_TimingOnlyTracingOn)->Unit(benchmark::kMicrosecond);

// ---- the gate ---------------------------------------------------------------
// Hard assertions, run before the benchmarks so the smoke test fails fast:
//  1. A disabled-path span + counter op performs zero heap allocations.
//  2. The measured disabled-path cost of every obs touch point in one
//     timing-only collective run is < 1% of the run itself.

int verify_disabled_path() {
  obs::set_enabled(false);
  static obs::Counter counter("bench.gate_counter");  // intern before timing

  // Prime the thread-local engine so the run measurement is steady-state.
  benchmark::DoNotOptimize(run_timing_only());

  constexpr std::size_t kOps = 1'000'000;
  const std::size_t allocs_before = g_alloc_count.load();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kOps; ++i) {
    obs::Span span("bench.gate_span");
    benchmark::DoNotOptimize(&span);
    counter.add(1);
  }
  const auto t1 = std::chrono::steady_clock::now();
  const std::size_t allocs = g_alloc_count.load() - allocs_before;
  const double op_ns =
      std::chrono::duration<double, std::nano>(t1 - t0).count() /
      static_cast<double>(kOps);

  // Fastest of a few runs: the cleanest estimate of the work itself.
  double run_ns = 1e18;
  for (int i = 0; i < 64; ++i) {
    const auto r0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(run_timing_only());
    const auto r1 = std::chrono::steady_clock::now();
    run_ns = std::min(run_ns,
                      std::chrono::duration<double, std::nano>(r1 - r0).count());
  }

  // Touch points per timing-only run: the runner span, the engine's
  // end-of-run flush (3 counters + 1 gauge + the enabled() check). 8
  // span+counter pairs is a generous over-count.
  constexpr double kTouchPointsPerRun = 8.0;
  const double overhead_pct = 100.0 * kTouchPointsPerRun * op_ns / run_ns;

  std::printf("obs_overhead gate: disabled span+counter = %.2f ns, "
              "allocations = %zu / %zu ops\n",
              op_ns, allocs, kOps);
  std::printf("obs_overhead gate: timing-only run = %.0f ns, instrumentation "
              "= %.4f%% (budget 1%%)\n",
              run_ns, overhead_pct);

  if (allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: disabled obs path allocated %zu times\n", allocs);
    return 1;
  }
  if (overhead_pct >= 1.0) {
    std::fprintf(stderr,
                 "FAIL: disabled obs overhead %.4f%% exceeds the 1%% budget\n",
                 overhead_pct);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (const int rc = verify_disabled_path(); rc != 0) return rc;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
