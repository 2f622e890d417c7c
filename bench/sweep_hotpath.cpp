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
// (grid cells/sec), BM_TimingOnly* (allocs_per_iter == 0 for the
// allocation-free schedules; BM_TimingOnlyFaultsDisabled and the
// recursive-doubling and neighbor-exchange entries are hard gates: the run
// exits nonzero if their steady state allocates), and BM_EngineEventRate
// (posted requests/sec through reset()-reused engine storage).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "bench_util.hpp"
#include "coll/allgather.hpp"
#include "coll/runner.hpp"
#include "core/dataset_builder.hpp"
#include "sim/comm.hpp"
#include "sim/fault.hpp"

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
// One timing-only run_collective per iteration. After warm-up calls prime
// the per-thread engine and its scratch arena, schedules that stage only
// through Engine::scratch and derive their routing from (rank, step, world)
// must run allocation-free: ring, Bruck, recursive-doubling and
// neighbor-exchange allgather; pairwise, in-place and recursive-doubling
// alltoall; binomial bcast; recursive-doubling allreduce. Scatter-
// destination alltoall and pipelined-ring bcast still build one request
// vector per rank.

// Set by a gated benchmark whose steady state allocated. main() turns it
// into a nonzero exit: google-benchmark reports SkipWithError but still
// exits 0, so without it the smoke run would pass.
std::atomic<bool> g_gate_failed{false};

/// Runs the loop and returns the steady-state allocation count.
std::size_t bm_timing_only(benchmark::State& state, coll::Algorithm algorithm,
                           int nodes, int ppn, std::uint64_t bytes,
                           const sim::FaultPlan& faults = {}) {
  const auto& cluster = sim::cluster_by_name("Frontera");
  const sim::Topology topo{nodes, ppn};
  sim::SimOptions opts{.noise_sigma = 0.015,
                       .seed = 2024,
                       .payload = sim::PayloadMode::kTimingOnly};
  opts.faults = faults;
  // A run's coroutine frames are recycled at the *next* reset, so the frame
  // pool's free lists keep growing for a few cycles; run several warm-up
  // rounds to reach the steady state before snapshotting.
  for (int i = 0; i < 4; ++i) {
    benchmark::DoNotOptimize(
        coll::run_collective(cluster, topo, algorithm, bytes, opts).seconds);
  }
  const std::size_t allocs_before = g_alloc_count.load();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        coll::run_collective(cluster, topo, algorithm, bytes, opts).seconds);
  }
  const std::size_t allocs = g_alloc_count.load() - allocs_before;
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(allocs), benchmark::Counter::kAvgIterations);
  return allocs;
}

/// bm_timing_only as a hard gate: the smoke run fails if the steady state
/// allocates at all.
void bm_allocation_free(benchmark::State& state, coll::Algorithm algorithm,
                        int nodes, int ppn, std::uint64_t bytes) {
  const std::size_t allocs =
      bm_timing_only(state, algorithm, nodes, ppn, bytes);
  if (allocs != 0) {
    g_gate_failed = true;
    state.SkipWithError((coll::display_name(algorithm) + " allocated " +
                         std::to_string(allocs) + " times over " +
                         std::to_string(state.iterations()) +
                         " iters; its steady state must be free")
                            .c_str());
  }
}

void BM_TimingOnlyAllgatherRing(benchmark::State& state) {
  bm_timing_only(state, coll::Algorithm::kAgRing, 4, 8, 4096);
}
BENCHMARK(BM_TimingOnlyAllgatherRing)->Unit(benchmark::kMicrosecond);

void BM_TimingOnlyAllgatherBruck(benchmark::State& state) {
  bm_timing_only(state, coll::Algorithm::kAgBruck, 4, 8, 4096);
}
BENCHMARK(BM_TimingOnlyAllgatherBruck)->Unit(benchmark::kMicrosecond);

// Gated: routing from (rank, step, world), no plan tables or block maps.
// 3 x 8 is not a power of two, so the pack/unpack path runs too.
void BM_TimingOnlyAllgatherRd(benchmark::State& state) {
  bm_allocation_free(state, coll::Algorithm::kAgRecursiveDoubling, 3, 8,
                     4096);
}
BENCHMARK(BM_TimingOnlyAllgatherRd)->Unit(benchmark::kMicrosecond);

void BM_TimingOnlyAllgatherNeighbor(benchmark::State& state) {
  bm_allocation_free(state, coll::Algorithm::kAgRdComm, 4, 8, 4096);
}
BENCHMARK(BM_TimingOnlyAllgatherNeighbor)->Unit(benchmark::kMicrosecond);

void BM_TimingOnlyAlltoallPairwise(benchmark::State& state) {
  bm_timing_only(state, coll::Algorithm::kAaPairwise, 4, 8, 4096);
}
BENCHMARK(BM_TimingOnlyAlltoallPairwise)->Unit(benchmark::kMicrosecond);

void BM_TimingOnlyAlltoallInplace(benchmark::State& state) {
  bm_timing_only(state, coll::Algorithm::kAaInplace, 4, 8, 4096);
}
BENCHMARK(BM_TimingOnlyAlltoallInplace)->Unit(benchmark::kMicrosecond);

void BM_TimingOnlyAlltoallRd(benchmark::State& state) {
  bm_allocation_free(state, coll::Algorithm::kAaRecursiveDoubling, 4, 8,
                     4096);
}
BENCHMARK(BM_TimingOnlyAlltoallRd)->Unit(benchmark::kMicrosecond);

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
  // bm_timing_only hands the engine an explicit empty plan.
  bm_allocation_free(state, coll::Algorithm::kAgRing, 4, 8, 4096);
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

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (g_gate_failed.load()) {
    std::fprintf(stderr,
                 "FAIL: a gated timing-only schedule allocated in steady "
                 "state\n");
    return 1;
  }
  return 0;
}
