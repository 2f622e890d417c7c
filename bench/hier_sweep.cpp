// Hierarchical-selection hot-path micro-benchmarks, with the same global
// operator-new counter as sweep_hotpath.cpp so the zero-allocation claims
// of the timing-only run_selection path are measured, not asserted.
//
//   build/bench/hier_sweep --benchmark_out_format=json
//                          --benchmark_out=BENCH_hier_sweep.json
//
// Hard gate (SkipWithError => smoke-test failure): run_selection of a flat
// selection with an empty HierarchySpec is the exact flat engine and must
// stay allocation-free in steady state. The leader-schedule and full-space
// sweep entries quantify the hierarchical path's cost next to it.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>

#include "coll/runner.hpp"
#include "coll/selection.hpp"
#include "sim/hardware.hpp"

// ---- allocation counting ----------------------------------------------------
// See bench/sweep_hotpath.cpp for the -Wmismatched-new-delete note.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace pml;

const sim::ClusterSpec& frontera() { return sim::cluster_by_name("Frontera"); }

sim::SimOptions timing_only() {
  sim::SimOptions opts;
  opts.payload = sim::PayloadMode::kTimingOnly;
  return opts;
}

// ---- flat selection through run_selection (hard gate) -----------------------
// The empty-hierarchy configuration is documented as bit-identical to the
// flat engine; it must also inherit the flat path's allocation-free steady
// state. Several warm-up rounds let the coroutine frame pool settle (frames
// recycle at the *next* reset).

void BM_TimingOnlySelectionFlat(benchmark::State& state) {
  const sim::Topology topo{4, 8};
  sim::SimOptions opts = timing_only();
  opts.hierarchy = sim::HierarchySpec{};  // explicit empty spec
  const coll::Selection s = coll::Selection::flat(coll::Algorithm::kAgRing);
  for (int i = 0; i < 4; ++i) {
    benchmark::DoNotOptimize(
        coll::run_selection(frontera(), topo, s, 4096, opts).seconds);
  }
  const std::size_t allocs_before = g_alloc_count.load();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        coll::run_selection(frontera(), topo, s, 4096, opts).seconds);
  }
  const std::size_t allocs = g_alloc_count.load() - allocs_before;
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(allocs), benchmark::Counter::kAvgIterations);
  if (allocs != 0) {
    state.SkipWithError(
        ("flat run_selection hot path allocated (" + std::to_string(allocs) +
         " over " + std::to_string(state.iterations()) +
         " iters); the empty-hierarchy timing-only path must be free")
            .c_str());
  }
}
BENCHMARK(BM_TimingOnlySelectionFlat)->Unit(benchmark::kMicrosecond);

// ---- leader schedules -------------------------------------------------------
// Leader-based composition under the cluster's hierarchy tier model; the
// allocs_per_iter counter tracks whether the composed schedule reuses the
// flat path's arenas (informational, not gated — composition currently
// stages leader sub-phases).

void bm_leader(benchmark::State& state, const coll::Selection& s,
               std::uint64_t bytes) {
  const sim::Topology topo{4, 16};
  sim::SimOptions opts = timing_only();
  opts.hierarchy = sim::HierarchySpec::from_cluster(frontera());
  for (int i = 0; i < 4; ++i) {
    benchmark::DoNotOptimize(
        coll::run_selection(frontera(), topo, s, bytes, opts).seconds);
  }
  const std::size_t allocs_before = g_alloc_count.load();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        coll::run_selection(frontera(), topo, s, bytes, opts).seconds);
  }
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(g_alloc_count.load() - allocs_before),
      benchmark::Counter::kAvgIterations);
}

void BM_TimingOnlyLeaderAllgather(benchmark::State& state) {
  bm_leader(state,
            coll::Selection::leader(coll::Algorithm::kAgRing,
                                    coll::Algorithm::kBcBinomial),
            65536);
}
BENCHMARK(BM_TimingOnlyLeaderAllgather)->Unit(benchmark::kMicrosecond);

void BM_TimingOnlyLeaderBcast(benchmark::State& state) {
  bm_leader(state,
            coll::Selection::leader(coll::Algorithm::kBcScatterAllgather,
                                    coll::Algorithm::kBcBinomial),
            65536);
}
BENCHMARK(BM_TimingOnlyLeaderBcast)->Unit(benchmark::kMicrosecond);

// ---- full label-space sweep -------------------------------------------------
// One multi-node high-PPN grid cell measured across the entire
// selection_space (the per-cell work of a hierarchy=true dataset build);
// items/sec is selections evaluated per second.

void BM_SelectionSpaceSweep(benchmark::State& state) {
  const auto collective =
      static_cast<coll::Collective>(state.range(0));
  const sim::Topology topo{4, 16};
  sim::SimOptions opts = timing_only();
  opts.hierarchy = sim::HierarchySpec::from_cluster(frontera());
  std::size_t evaluated = 0;
  for (auto _ : state) {
    double sum = 0.0;
    evaluated = 0;
    for (const coll::Selection& s : coll::selection_space(collective)) {
      if (!coll::selection_supports(s, topo)) continue;
      sum += coll::run_selection(frontera(), topo, s, 65536, opts).seconds;
      ++evaluated;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(evaluated) *
                          static_cast<std::int64_t>(state.iterations()));
  state.counters["selections"] = static_cast<double>(evaluated);
}
BENCHMARK(BM_SelectionSpaceSweep)
    ->Arg(static_cast<int>(coll::Collective::kAllgather))
    ->Arg(static_cast<int>(coll::Collective::kAlltoall))
    ->ArgName("collective")
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
