// Engine-mode dataset-build pruning benchmarks, with a hard gate in
// main(): on the reference grid, analytic top-k pruning must measure at
// most kMaxPrunedMeasured of the exhaustive build's points, account for
// every point it skips (measured + pruned == exhaustive measured), agree
// with the exhaustive labels on >= 99% of cells, and the epsilon-audit
// must report zero unrescued mispredictions (the smoke ctest entry
// therefore catches pruning-quality rot, not just bit-rot). The gate is
// exact counts, not wall clock: once every algorithm costs about the
// same to simulate, pruning saves about valid-algorithms / k, which a
// host-dependent speedup ratio cannot pin. The wall-clock speedup is
// still printed. Emits machine-readable JSON via the standard
// google-benchmark flags; the repo's recorded trajectory lives in
// BENCH_sweep_pruning.json:
//
//   build/bench/sweep_pruning --benchmark_out_format=json
//                             --benchmark_out=BENCH_sweep_pruning.json
//
// Headline series: BM_EngineBuildExhaustive (every valid algorithm on
// the event engine), BM_EngineBuildPruned (analytic top-3 + ε-sample),
// and BM_AnalyticBuild (the closed-form path, the floor the engine path
// is measured against). Counters record cells and measured evaluations
// per build.
//
// The reference grid derives from Frontera at p ∈ {32, 64}: large
// enough that the O(p²)-message alltoalls dominate exhaustive cost
// (which is what pruning removes), small enough that the analytic
// ranking provably contains the engine argmin (see
// tests/coll/topk_agreement_test.cpp — rank 3 first appears at p=128).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "core/dataset_builder.hpp"
#include "sim/hardware.hpp"

namespace {

using namespace pml;

/// Frontera-derived reference grid: 2 node counts x 1 ppn x 3 message
/// sizes x 2 collectives = 12 cells, world sizes 32 and 64.
std::vector<sim::ClusterSpec> reference_grid() {
  sim::ClusterSpec grid = sim::cluster_by_name("Frontera");
  grid.node_counts = {4, 8};
  grid.ppn_values = {8};
  grid.message_sizes = {64, 1024, 16384};
  return {grid};
}

constexpr int kPruneTopK = 3;
constexpr double kPruneEpsilon = 0.0625;
/// Measured points the pruned build may spend on the reference grid (the
/// exhaustive build measures 54): any loss of pruning fails the gate.
constexpr std::uint64_t kMaxPrunedMeasured = 38;

core::BuildOptions engine_options() {
  core::BuildOptions options;
  options.cost_source = core::CostSource::kEngine;
  options.prune_topk = 0;  // exhaustive unless overridden
  return options;
}

const std::vector<coll::Collective> kCollectives = {
    coll::Collective::kAllgather, coll::Collective::kAlltoall};

/// One full grid build over both collectives; returns records
/// concatenated in collective order and accumulates stats.
std::vector<core::TuningRecord> build_grid(const core::BuildOptions& options,
                                           core::BuildStats& stats) {
  const auto grid = reference_grid();
  std::vector<core::TuningRecord> records;
  for (const auto collective : kCollectives) {
    core::BuildStats one;
    auto part = core::build_records(grid, collective, options, one);
    records.insert(records.end(), part.begin(), part.end());
    stats.cells += one.cells;
    stats.measured_evals += one.measured_evals;
    stats.pruned_evals += one.pruned_evals;
    stats.epsilon_evals += one.epsilon_evals;
    stats.prune_mispredictions += one.prune_mispredictions;
  }
  return records;
}

void BM_EngineBuildExhaustive(benchmark::State& state) {
  for (auto _ : state) {
    core::BuildStats stats;
    benchmark::DoNotOptimize(build_grid(engine_options(), stats));
    state.counters["cells"] = static_cast<double>(stats.cells);
    state.counters["measured_evals"] =
        static_cast<double>(stats.measured_evals);
  }
}
BENCHMARK(BM_EngineBuildExhaustive)->Unit(benchmark::kMillisecond);

void BM_EngineBuildPruned(benchmark::State& state) {
  core::BuildOptions options = engine_options();
  options.prune_topk = kPruneTopK;
  options.prune_epsilon = kPruneEpsilon;
  for (auto _ : state) {
    core::BuildStats stats;
    benchmark::DoNotOptimize(build_grid(options, stats));
    state.counters["cells"] = static_cast<double>(stats.cells);
    state.counters["measured_evals"] =
        static_cast<double>(stats.measured_evals);
    state.counters["pruned_evals"] = static_cast<double>(stats.pruned_evals);
  }
}
BENCHMARK(BM_EngineBuildPruned)->Unit(benchmark::kMillisecond);

void BM_AnalyticBuild(benchmark::State& state) {
  core::BuildOptions options;  // defaults: analytic, no pruning involved
  for (auto _ : state) {
    core::BuildStats stats;
    benchmark::DoNotOptimize(build_grid(options, stats));
    state.counters["cells"] = static_cast<double>(stats.cells);
  }
}
BENCHMARK(BM_AnalyticBuild)->Unit(benchmark::kMillisecond);

/// Hard gate: pruned-vs-exhaustive measured-point counts, label agreement,
/// and the ε-audit, run standalone (outside google-benchmark timing). The
/// wall-clock speedup is printed, not gated; the recorded
/// BENCH_sweep_pruning.json baseline documents the real numbers.
int verify_pruning_gate() {
  core::BuildOptions exhaustive = engine_options();
  core::BuildOptions pruned = exhaustive;
  pruned.prune_topk = kPruneTopK;
  pruned.prune_epsilon = kPruneEpsilon;
  core::BuildOptions audit = pruned;
  audit.prune_audit = true;

  using Clock = std::chrono::steady_clock;
  core::BuildStats exhaustive_stats;
  const auto t0 = Clock::now();
  const auto exhaustive_records = build_grid(exhaustive, exhaustive_stats);
  const auto t1 = Clock::now();
  core::BuildStats pruned_stats;
  const auto pruned_records = build_grid(pruned, pruned_stats);
  const auto t2 = Clock::now();
  core::BuildStats audit_stats;
  build_grid(audit, audit_stats);

  const double exhaustive_s = std::chrono::duration<double>(t1 - t0).count();
  const double pruned_s = std::chrono::duration<double>(t2 - t1).count();
  const double speedup = exhaustive_s / pruned_s;

  std::size_t agree = 0;
  for (std::size_t i = 0; i < exhaustive_records.size(); ++i) {
    agree += exhaustive_records[i].label == pruned_records[i].label;
  }
  const double agreement =
      static_cast<double>(agree) /
      static_cast<double>(exhaustive_records.size());

  std::printf(
      "sweep_pruning gate: %llu of %llu points measured, %llu pruned "
      "(%.2fx speedup, %.2fs exhaustive / %.2fs pruned, top-%d eps=%.4g), "
      "label agreement %zu/%zu = %.1f%%, audit mispredictions %llu/%llu "
      "cells (targets: <= %llu measured, measured + pruned == exhaustive, "
      ">= 99%%, 0)\n",
      static_cast<unsigned long long>(pruned_stats.measured_evals),
      static_cast<unsigned long long>(exhaustive_stats.measured_evals),
      static_cast<unsigned long long>(pruned_stats.pruned_evals), speedup,
      exhaustive_s, pruned_s, kPruneTopK, kPruneEpsilon, agree,
      exhaustive_records.size(), 100.0 * agreement,
      static_cast<unsigned long long>(audit_stats.prune_mispredictions),
      static_cast<unsigned long long>(audit_stats.cells),
      static_cast<unsigned long long>(kMaxPrunedMeasured));

  int rc = 0;
  if (pruned_stats.measured_evals + pruned_stats.pruned_evals !=
      exhaustive_stats.measured_evals) {
    std::fprintf(stderr,
                 "FAIL: %llu measured + %llu pruned points != %llu "
                 "exhaustive points\n",
                 static_cast<unsigned long long>(pruned_stats.measured_evals),
                 static_cast<unsigned long long>(pruned_stats.pruned_evals),
                 static_cast<unsigned long long>(
                     exhaustive_stats.measured_evals));
    rc = 1;
  }
  if (pruned_stats.measured_evals > kMaxPrunedMeasured) {
    std::fprintf(stderr,
                 "FAIL: pruned build measured %llu points, above %llu\n",
                 static_cast<unsigned long long>(pruned_stats.measured_evals),
                 static_cast<unsigned long long>(kMaxPrunedMeasured));
    rc = 1;
  }
  if (agreement < 0.99) {
    std::fprintf(stderr, "FAIL: label agreement %.4f below 0.99\n",
                 agreement);
    rc = 1;
  }
  if (audit_stats.prune_mispredictions != 0) {
    std::fprintf(stderr,
                 "FAIL: epsilon-audit found %llu mispredicted cells\n",
                 static_cast<unsigned long long>(
                     audit_stats.prune_mispredictions));
    rc = 1;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (const int rc = verify_pruning_gate(); rc != 0) return rc;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
