// Micro-benchmarks of the dataset-sweep and simulator hot paths, with a
// heap-allocation counter wired through global operator new so the
// zero-allocation claim of the timing-only collective path is *measured*,
// not asserted. Emits machine-readable JSON via the standard
// google-benchmark flags; the repo's recorded trajectory lives in
// BENCH_sweep_hotpath.json:
//
//   build/bench/sweep_hotpath --benchmark_out_format=json
//                             --benchmark_out=BENCH_sweep_hotpath.json
//
// The headline series tracked across PRs: BM_BuildRecords/threads:1
// (grid cells/sec), BM_TimingOnlyCollective/* (allocs_per_iter == 0 for the
// allocation-free schedules), and BM_EngineEventRate (posted requests/sec
// through reset()-reused engine storage).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "bench_util.hpp"
#include "coll/allgather.hpp"
#include "coll/runner.hpp"
#include "core/dataset_builder.hpp"
#include "sim/comm.hpp"
#include "sim/fault.hpp"

// ---- allocation counting ----------------------------------------------------
// Counts every operator-new in the process; benchmarks snapshot the counter
// around the timed loop and report allocations per iteration.
//
// GCC's -Wmismatched-new-delete pairs the replaced operator new below with
// the replaced operator delete when inlining both into callers and flags the
// malloc/free it sees inside as mismatched; both sides of the replacement
// use malloc/free, so the pairing is correct.
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

// ---- dataset sweep ----------------------------------------------------------
// The full Table-I grid for one collective. threads:1 is the serial
// baseline; threads:0 uses every hardware thread. Records are bit-identical
// either way (tests/core/dataset_builder_test.cpp pins that).

void BM_BuildRecords(benchmark::State& state) {
  const auto clusters = bench::clusters_except({});
  core::BuildOptions options;
  options.threads = static_cast<int>(state.range(0));
  std::size_t cells = 0;
  for (auto _ : state) {
    const auto records =
        core::build_records(clusters, coll::Collective::kAllgather, options);
    cells = records.size();
    benchmark::DoNotOptimize(records.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cells) *
                          static_cast<std::int64_t>(state.iterations()));
  state.counters["grid_cells"] = static_cast<double>(cells);
}
BENCHMARK(BM_BuildRecords)
    ->Arg(1)
    ->Arg(0)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond);

// ---- timing-only collective invocations -------------------------------------
// One run_collective(copy_data=false) per iteration. After the warm-up call
// primes the per-thread engine + arenas, the schedules without internal
// staging buffers (ring allgather, pairwise alltoall, binomial bcast,
// recursive-doubling allreduce) must run allocation-free.

void bm_timing_only(benchmark::State& state, coll::Algorithm algorithm,
                    int nodes, int ppn, std::uint64_t bytes,
                    const sim::FaultPlan& faults = {}) {
  const auto& cluster = sim::cluster_by_name("Frontera");
  const sim::Topology topo{nodes, ppn};
  sim::SimOptions opts{.noise_sigma = 0.015,
                       .seed = 2024,
                       .payload = sim::PayloadMode::kTimingOnly};
  opts.faults = faults;
  // Warm the thread_local engine and arenas so the loop measures steady
  // state.
  benchmark::DoNotOptimize(
      coll::run_collective(cluster, topo, algorithm, bytes, opts).seconds);
  const std::size_t allocs_before = g_alloc_count.load();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        coll::run_collective(cluster, topo, algorithm, bytes, opts).seconds);
  }
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(g_alloc_count.load() - allocs_before),
      benchmark::Counter::kAvgIterations);
}

void BM_TimingOnlyAllgatherRing(benchmark::State& state) {
  bm_timing_only(state, coll::Algorithm::kAgRing, 4, 8, 4096);
}
BENCHMARK(BM_TimingOnlyAllgatherRing)->Unit(benchmark::kMicrosecond);

void BM_TimingOnlyAlltoallPairwise(benchmark::State& state) {
  bm_timing_only(state, coll::Algorithm::kAaPairwise, 4, 8, 4096);
}
BENCHMARK(BM_TimingOnlyAlltoallPairwise)->Unit(benchmark::kMicrosecond);

void BM_TimingOnlyAllreduceRd(benchmark::State& state) {
  bm_timing_only(state, coll::Algorithm::kArRecursiveDoubling, 4, 8, 65536);
}
BENCHMARK(BM_TimingOnlyAllreduceRd)->Unit(benchmark::kMicrosecond);

void BM_TimingOnlyBcastBinomial(benchmark::State& state) {
  bm_timing_only(state, coll::Algorithm::kBcBinomial, 4, 8, 65536);
}
BENCHMARK(BM_TimingOnlyBcastBinomial)->Unit(benchmark::kMicrosecond);

// ---- fault-injection hot-path cost ------------------------------------------
// The disabled-fault path (an empty FaultPlan) must stay allocation-free:
// fault support costs one predictable branch, nothing more. This one is a
// hard gate — the smoke run fails if the steady state ever allocates. The
// faulted variant quantifies the full-plan cost for comparison.

void BM_TimingOnlyFaultsDisabled(benchmark::State& state) {
  const auto& cluster = sim::cluster_by_name("Frontera");
  const sim::Topology topo{4, 8};
  sim::SimOptions opts{.noise_sigma = 0.015,
                       .seed = 2024,
                       .payload = sim::PayloadMode::kTimingOnly};
  opts.faults = sim::FaultPlan{};  // explicit empty plan, not the default
  // A run's coroutine frames are recycled at the *next* reset, so the frame
  // pool's free lists keep growing for a few cycles; run several warm-up
  // rounds to reach the allocation-free steady state before snapshotting.
  for (int i = 0; i < 4; ++i) {
    benchmark::DoNotOptimize(
        coll::run_collective(cluster, topo, coll::Algorithm::kAgRing, 4096,
                             opts)
            .seconds);
  }
  const std::size_t allocs_before = g_alloc_count.load();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        coll::run_collective(cluster, topo, coll::Algorithm::kAgRing, 4096,
                             opts)
            .seconds);
  }
  const std::size_t allocs = g_alloc_count.load() - allocs_before;
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(allocs), benchmark::Counter::kAvgIterations);
  if (allocs != 0) {
    state.SkipWithError(
        ("disabled-fault hot path allocated (" + std::to_string(allocs) +
         " over " + std::to_string(state.iterations()) +
         " iters); empty FaultPlan must be free")
            .c_str());
  }
}
BENCHMARK(BM_TimingOnlyFaultsDisabled)->Unit(benchmark::kMicrosecond);

void BM_TimingOnlyFaulted(benchmark::State& state) {
  sim::FaultPlan plan;
  plan.link_degradations.push_back({0, 0.5, 1e-6});
  plan.stragglers.push_back({1, 2.0});
  plan.flaps.push_back({2, 1e-5, 1e-4});
  bm_timing_only(state, coll::Algorithm::kAgRing, 4, 8, 4096, plan);
}
BENCHMARK(BM_TimingOnlyFaulted)->Unit(benchmark::kMicrosecond);

// ---- raw engine event rate --------------------------------------------------
// Drives the engine directly through reset() cycles; items/sec is posted
// requests per second, the engine-layer throughput number.

void BM_EngineEventRate(benchmark::State& state) {
  const auto& cluster = sim::cluster_by_name("Frontera");
  const sim::Topology topo{4, 8};
  const sim::SimOptions opts{0.015, 2024, sim::PayloadMode::kTimingOnly};
  const int p = topo.world_size();
  std::vector<std::byte> recv_arena(static_cast<std::size_t>(p) *
                                    static_cast<std::size_t>(p) * 4096);
  sim::Engine engine(cluster, topo, opts);
  std::size_t requests = 0;
  for (auto _ : state) {
    engine.reset(cluster, topo, opts);
    engine.run([&](int rank) -> sim::RankTask {
      sim::Comm comm(engine, rank);
      const std::span<std::byte> recv(
          recv_arena.data() +
              static_cast<std::size_t>(rank) * static_cast<std::size_t>(p) *
                  4096,
          static_cast<std::size_t>(p) * 4096);
      return coll::run_allgather(
          coll::Algorithm::kAgRing, comm,
          std::span<const std::byte>(recv.data(), 4096), recv);
    });
    requests = engine.posted_requests();
    benchmark::DoNotOptimize(engine.elapsed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(requests) *
                          static_cast<std::int64_t>(state.iterations()));
  state.counters["requests_per_run"] = static_cast<double>(requests);
}
BENCHMARK(BM_EngineEventRate)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
