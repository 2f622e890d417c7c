// Micro-benchmarks of the ML training and inference hot paths, with a
// heap-allocation counter wired through global operator new so the
// zero-allocation claim of the flattened inference path is *measured*, not
// asserted. Emits machine-readable JSON via the standard google-benchmark
// flags; the repo's recorded trajectory lives in BENCH_ml_hotpath.json:
//
//   build/bench/ml_hotpath --benchmark_out_format=json
//                          --benchmark_out=BENCH_ml_hotpath.json
//
// The headline series tracked across PRs: BM_SingleInference,
// BM_CompileTuningTable/threads:1, BM_TrainFramework/threads:1, plus the
// ML-layer BM_* kernels below (BM_TreeFitPml is the split finder on the
// real training matrix, BM_ForestFitPml the whole forest fit on it;
// BM_TreeFit's synthetic data is mostly continuous).
// BM_ForestPredictProba (model-only time) and BM_RuntimeTableLookup (one
// application-runtime lookup) complete the paper's online-stage picture.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "alloc_counter.hpp"
#include "bench_util.hpp"
#include "core/dataset_builder.hpp"
#include "core/features.hpp"
#include "ml/flat_forest.hpp"
#include "ml/forest.hpp"
#include "ml/tree.hpp"

namespace {
// Set by BM_BatchInference when the batched kernel's output diverges from
// the scalar path; main() turns it into a nonzero exit so the CI smoke run
// fails on wrong answers even though google-benchmark treats SkipWithError
// as a reporting detail.
std::atomic<bool> g_batch_mismatch{false};
}  // namespace

namespace {

using namespace pml;

ml::Dataset synthetic_dataset(std::size_t n, std::size_t cols, int classes,
                              std::uint64_t seed) {
  ml::Dataset d;
  d.num_classes = classes;
  Rng rng(seed);
  ml::Matrix x(n, cols);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      x.at(r, c) = (c % 3 == 0)
                       ? static_cast<double>(rng.uniform_index(8))
                       : rng.uniform(-2.0, 2.0);
    }
    double s = 0.0;
    for (std::size_t c = 0; c < cols; ++c) s += x.at(r, c) * ((c % 2) ? 1 : -1);
    d.y.push_back(static_cast<int>(
        (static_cast<long long>(s * 3.0) % classes + classes) % classes));
  }
  d.x = x;
  return d;
}

core::PmlFramework& framework() {
  static core::PmlFramework fw = core::PmlFramework::train(
      bench::clusters_except({"Frontera"}), bench::default_train_options());
  return fw;
}

// ---- training kernels -------------------------------------------------------

void BM_TreeFit(benchmark::State& state) {
  const bool reference = state.range(0) != 0;
  const auto d = synthetic_dataset(600, 10, 4, 42);
  ml::TreeParams tp;
  tp.max_features = 3;
  tp.reference_splitter = reference;
  for (auto _ : state) {
    ml::DecisionTree tree(tp);
    Rng rng(7);
    tree.fit(d.x, d.y, d.num_classes, rng);
    benchmark::DoNotOptimize(tree.node_count());
  }
}
BENCHMARK(BM_TreeFit)->Arg(0)->Arg(1)->ArgName("reference")
    ->Unit(benchmark::kMillisecond);

// The real allgather training matrix (the `pml train --exclude
// Frontera,MRI` table, 8,883 rows): discrete hardware columns and small
// message/node/ppn grids, the shape the rank-histogram finder targets.
const ml::Dataset& pml_allgather() {
  static const ml::Dataset d = [] {
    const auto options = bench::default_train_options();
    const auto records = core::build_records(
        bench::clusters_except({"Frontera", "MRI"}),
        coll::Collective::kAllgather, options.build);
    return core::to_ml_dataset(records, coll::Collective::kAllgather);
  }();
  return d;
}

// One tree fit on pml_allgather() with a bootstrap sample. Ranks are built
// once outside the loop, as RandomForest::fit does, so the timed loop is
// the split finder alone.
void BM_TreeFitPml(benchmark::State& state) {
  const ml::Dataset& d = pml_allgather();
  static const ml::ColumnRanks ranks(d.x);
  Rng sample_rng(3);
  std::vector<std::size_t> sample(d.size());
  for (auto& s : sample) {
    s = static_cast<std::size_t>(sample_rng.uniform_index(d.size()));
  }
  ml::TreeParams tp;
  tp.max_features = 6;  // TrainOptions::forest default
  tp.reference_splitter = state.range(0) != 0;
  for (auto _ : state) {
    ml::DecisionTree tree(tp);
    Rng rng(7);
    tree.fit(d.x, ranks, d.y, d.num_classes, rng, sample);
    benchmark::DoNotOptimize(tree.node_count());
  }
  state.counters["rows"] = static_cast<double>(d.size());
}
BENCHMARK(BM_TreeFitPml)->Arg(0)->Arg(1)->ArgName("reference")
    ->Unit(benchmark::kMillisecond);

// A whole forest fit on pml_allgather() with the `pml train` forest
// (TrainOptions::forest: 100 trees, 6 features per split), at one thread
// and at all of them: the ranking, the tree fits, and the merge after the
// tree barrier (the bulk append).
void BM_ForestFitPml(benchmark::State& state) {
  const ml::Dataset& d = pml_allgather();
  ml::RandomForestParams fp = bench::default_train_options().forest;
  fp.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ml::RandomForest forest(fp);
    Rng rng(99);
    forest.fit(d, rng);
    benchmark::DoNotOptimize(forest.tree_count());
  }
}
BENCHMARK(BM_ForestFitPml)->Arg(1)->Arg(0)->ArgName("threads")
    ->Unit(benchmark::kMillisecond);

void BM_ForestFit(benchmark::State& state) {
  const auto d = synthetic_dataset(400, 10, 4, 42);
  ml::RandomForestParams fp;
  fp.n_trees = 20;
  fp.max_features = 3;
  fp.threads = 1;
  for (auto _ : state) {
    ml::RandomForest forest(fp);
    Rng rng(99);
    forest.fit(d, rng);
    benchmark::DoNotOptimize(forest.tree_count());
  }
}
BENCHMARK(BM_ForestFit)->Unit(benchmark::kMillisecond);

// ---- inference kernels ------------------------------------------------------
// 100 trees fitted on synthetic data, packed into one FlatForest.

const ml::FlatForest& flat_fixture() {
  static const ml::FlatForest flat = [] {
    const auto d = synthetic_dataset(400, 10, 4, 42);
    ml::TreeParams tp;
    tp.max_features = 3;
    ml::FlatForest f;
    Rng rng(5);
    for (int t = 0; t < 100; ++t) {
      Rng tree_rng = rng.split();
      ml::DecisionTree tree(tp);
      tree.fit(d.x, d.y, d.num_classes, tree_rng);
      tree.append_flat(f);
    }
    f.finish(d.num_classes);
    return f;
  }();
  return flat;
}

void BM_ForestPredictFlat(benchmark::State& state) {
  const ml::FlatForest& flat = flat_fixture();
  const auto d = synthetic_dataset(64, 10, 4, 1234);
  std::vector<double> out(4);
  std::size_t r = 0;
  const std::size_t allocs_before = g_alloc_count.load();
  for (auto _ : state) {
    flat.predict_proba_into(d.x.row(r), out);
    benchmark::DoNotOptimize(out.data());
    r = (r + 1) % d.x.rows();
  }
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(g_alloc_count.load() - allocs_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ForestPredictFlat);

// ---- batched inference kernels ----------------------------------------------
// BM_ScalarLoopInference is the baseline: the same rows pushed one at a
// time through predict_proba_into. BM_BatchInference runs predict_batch
// (the block descent with no varying column) and first verifies
// (outside the timed loop) that its output is byte-identical to the scalar
// loop — the bench doubles as a correctness smoke in CI, where timing on
// shared runners is meaningless but divergence is not. Its rows are
// synthetic with every column random; BM_BatchInferencePml passes the
// shape callers pass, rows of a training matrix in dataset order.

void BM_ScalarLoopInference(benchmark::State& state) {
  const ml::FlatForest& flat = flat_fixture();
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto d = synthetic_dataset(rows, 10, 4, 1234);
  ml::Matrix out(rows, 4);
  const std::size_t allocs_before = g_alloc_count.load();
  for (auto _ : state) {
    for (std::size_t r = 0; r < rows; ++r) {
      flat.predict_proba_into(d.x.row(r), out.row(r));
    }
    benchmark::DoNotOptimize(out.row(0).data());
  }
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(rows),
      benchmark::Counter::kIsRate);
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(g_alloc_count.load() - allocs_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ScalarLoopInference)
    ->Arg(64)
    ->Arg(1024)
    ->Arg(4096)
    ->ArgName("rows");

/// Time predict_batch over `rows`, after checking its output byte for byte
/// against predict_proba_into row by row.
void time_batch(benchmark::State& state, const ml::FlatForest& flat,
                const ml::Matrix& rows) {
  const auto k = static_cast<std::size_t>(flat.num_classes());
  ml::Matrix out(rows.rows(), k);
  ml::Matrix ref(rows.rows(), k);
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    flat.predict_proba_into(rows.row(r), ref.row(r));
  }
  flat.predict_batch(rows, out);
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    if (std::memcmp(out.row(r).data(), ref.row(r).data(),
                    k * sizeof(double)) != 0) {
      g_batch_mismatch.store(true);
      state.SkipWithError("batched output diverges from the scalar path");
      return;
    }
  }
  const std::size_t allocs_before = g_alloc_count.load();
  for (auto _ : state) {
    flat.predict_batch(rows, out);
    benchmark::DoNotOptimize(out.row(0).data());
  }
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(rows.rows()),
      benchmark::Counter::kIsRate);
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(g_alloc_count.load() - allocs_before),
      benchmark::Counter::kAvgIterations);
}

void BM_BatchInference(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  time_batch(state, flat_fixture(), synthetic_dataset(rows, 10, 4, 1234).x);
}
BENCHMARK(BM_BatchInference)->Arg(64)->Arg(1024)->Arg(4096)->ArgName("rows");

// The first `rows` rows, in dataset order, of the matrix the framework()
// allgather forest was trained on (its selected columns). Timing the
// scalar loop over the same rows is BM_ScalarLoopInferencePml.
ml::Matrix pml_training_rows(std::size_t rows) {
  static const ml::Matrix all = [] {
    const auto collective = coll::Collective::kAllgather;
    const auto records =
        core::build_records(bench::clusters_except({"Frontera"}), collective,
                            bench::default_train_options().build);
    return core::to_ml_dataset(records, collective,
                               framework().selected_columns(collective))
        .x;
  }();
  ml::Matrix head;
  for (std::size_t r = 0; r < std::min(rows, all.rows()); ++r) {
    head.push_row(all.row(r));
  }
  return head;
}

void BM_BatchInferencePml(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  time_batch(state, framework().model(coll::Collective::kAllgather).flat(),
             pml_training_rows(rows));
}
BENCHMARK(BM_BatchInferencePml)->Arg(1024)->Arg(4096)->ArgName("rows");

void BM_ScalarLoopInferencePml(benchmark::State& state) {
  const ml::FlatForest& flat =
      framework().model(coll::Collective::kAllgather).flat();
  const ml::Matrix rows =
      pml_training_rows(static_cast<std::size_t>(state.range(0)));
  std::vector<double> out(static_cast<std::size_t>(flat.num_classes()));
  for (auto _ : state) {
    for (std::size_t r = 0; r < rows.rows(); ++r) {
      flat.predict_proba_into(rows.row(r), out);
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(rows.rows()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ScalarLoopInferencePml)->Arg(1024)->Arg(4096)->ArgName("rows");

// One tuning-table cell's whole message sweep answered by a single
// select_many (feature assembly + one forest sweep + per-size ranking).
// TuningTable::generate issues one select_many per collective over its
// whole grid instead; BM_GridCompileSweep times that kernel.
void BM_BatchCompileSweep(benchmark::State& state) {
  auto& fw = framework();
  const auto& frontera = sim::cluster_by_name("Frontera");
  const auto sizes = sim::power_of_two_sizes(21);
  std::vector<coll::Selection> out(sizes.size());
  const sim::Topology topo{16, 56};
  // Warm the thread_local scratch so the loop measures steady state.
  fw.select_many(coll::Collective::kAlltoall, frontera, topo, sizes, out);
  const std::size_t allocs_before = g_alloc_count.load();
  for (auto _ : state) {
    fw.select_many(coll::Collective::kAlltoall, frontera, topo, sizes, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(sizes.size()),
      benchmark::Counter::kIsRate);
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(g_alloc_count.load() - allocs_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_BatchCompileSweep);

// Frontera's whole default compile grid for one collective (every
// topology x 21 sizes) through one predict_sweep, the call a one-thread
// compile_for makes per collective. Before timing, its output is
// byte-compared with predict_batch over the same materialised rows (a
// divergence fails the binary, as in BM_BatchInference), and predict_batch
// is timed on those rows. Both run the block descent; speedup_vs_batch,
// the ratio of their times per grid, is what carrying the message-size
// axis as one sorted range saves over one block cell per (cell, size) row.
void BM_GridCompileSweep(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  auto& fw = framework();
  const auto collective = coll::Collective::kAlltoall;
  const ml::FlatForest& forest = fw.model(collective).flat();
  const auto& columns = fw.selected_columns(collective);
  const auto& frontera = sim::cluster_by_name("Frontera");
  const core::CompileOptions sweep = core::resolve_compile_sweep(frontera, {});
  const std::vector<double> sizes(sweep.message_sizes.begin(),
                                  sweep.message_sizes.end());
  ml::Matrix fixed;
  ml::Matrix rows;
  for (const int nodes : sweep.node_counts) {
    for (const int ppn : sweep.ppn_values) {
      if (ppn > frontera.hw.threads) continue;
      fixed.push_row(core::project_features(
          core::extract_features(frontera, nodes, ppn, 0), columns));
      for (const std::uint64_t msg : sweep.message_sizes) {
        rows.push_row(core::project_features(
            core::extract_features(frontera, nodes, ppn, msg), columns));
      }
    }
  }
  const auto msg_column =
      std::ranges::find(columns, core::feature_index("msg_size"));
  const std::size_t varying =
      msg_column == columns.end()
          ? ml::FlatForest::npos
          : static_cast<std::size_t>(msg_column - columns.begin());
  const auto k = static_cast<std::size_t>(forest.num_classes());
  ml::Matrix batch(rows.rows(), k);
  ml::Matrix grid(rows.rows(), k);
  forest.predict_batch(rows, batch);
  forest.predict_sweep(fixed, varying, sizes, grid);
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    if (std::memcmp(grid.row(r).data(), batch.row(r).data(),
                    k * sizeof(double)) != 0) {
      g_batch_mismatch.store(true);
      state.SkipWithError("predict_sweep diverges from predict_batch");
      return;
    }
  }
  constexpr int kBatchReps = 20;
  const auto b0 = Clock::now();
  for (int i = 0; i < kBatchReps; ++i) {
    forest.predict_batch(rows, batch);
    benchmark::DoNotOptimize(batch.row(0).data());
  }
  const std::chrono::duration<double> batch_s = Clock::now() - b0;

  // The counter is read around each kernel call rather than around the
  // loop, so the benchmark library's own per-run allocation is not
  // charged to the kernel: a steady state of 0 reads exactly 0.
  std::size_t kernel_allocs = 0;
  const auto t0 = Clock::now();
  for (auto _ : state) {
    const std::size_t before = g_alloc_count.load();
    forest.predict_sweep(fixed, varying, sizes, grid);
    kernel_allocs += g_alloc_count.load() - before;
    benchmark::DoNotOptimize(grid.row(0).data());
    benchmark::ClobberMemory();
  }
  const std::chrono::duration<double> sweep_s = Clock::now() - t0;
  const auto iterations = static_cast<double>(state.iterations());
  state.counters["rows_per_sec"] = benchmark::Counter(
      iterations * static_cast<double>(rows.rows()),
      benchmark::Counter::kIsRate);
  state.counters["allocs_per_iter"] =
      benchmark::Counter(static_cast<double>(kernel_allocs),
                         benchmark::Counter::kAvgIterations);
  state.counters["speedup_vs_batch"] =
      (batch_s.count() / kBatchReps) / (sweep_s.count() / iterations);
}
BENCHMARK(BM_GridCompileSweep);

// ---- framework-level headline series --------------------------------------

// One select(): select_many's one-cell, one-size grid, the path a serve
// table-cache miss takes.
void BM_SingleInference(benchmark::State& state) {
  auto& fw = framework();
  const auto& frontera = sim::cluster_by_name("Frontera");
  const sim::Topology topo{16, 56};
  std::uint64_t msg = 1;
  // Warm the thread_local scratch so the loop measures steady state.
  benchmark::DoNotOptimize(
      fw.select(coll::Collective::kAlltoall, frontera, topo, msg));
  const std::size_t allocs_before = g_alloc_count.load();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fw.select(coll::Collective::kAlltoall, frontera, topo, msg));
    msg = msg >= (1u << 20) ? 1 : msg << 1;
  }
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(g_alloc_count.load() - allocs_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SingleInference);

void BM_CompileTuningTable(benchmark::State& state) {
  auto& fw = framework();
  const auto& frontera = sim::cluster_by_name("Frontera");
  const std::vector<int> nodes = {1, 2, 4, 8, 16};
  const std::vector<int> ppns = {28, 56};
  auto options =
      core::CompileOptions::sweep(nodes, ppns, sim::power_of_two_sizes(21));
  options.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fw.compile_for(frontera, options));
  }
}
BENCHMARK(BM_CompileTuningTable)
    ->Arg(1)
    ->Arg(0)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond);

void BM_TrainFramework(benchmark::State& state) {
  auto options = bench::default_train_options();
  options.threads = static_cast<int>(state.range(0));
  const auto clusters = bench::clusters_except({"Frontera"});
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::PmlFramework::train(clusters, options));
  }
}
BENCHMARK(BM_TrainFramework)
    ->Arg(1)
    ->Arg(0)
    ->ArgName("threads")
    ->Unit(benchmark::kSecond);

void BM_ForestPredictProba(benchmark::State& state) {
  // The trained alltoall forest on a real feature row, separating model
  // time from the feature-extraction + ranking work BM_SingleInference
  // also includes (BM_ForestPredictFlat walks a synthetic forest instead).
  auto& fw = framework();
  const auto& forest = fw.model(coll::Collective::kAlltoall);
  const auto& columns = fw.selected_columns(coll::Collective::kAlltoall);
  const auto& frontera = sim::cluster_by_name("Frontera");
  const auto full = core::extract_features(frontera, 16, 56, 1u << 16);
  const auto row = core::project_features(full, columns);
  std::vector<double> proba(static_cast<std::size_t>(forest.num_classes()));
  for (auto _ : state) {
    forest.predict_proba_into(row, proba);
    benchmark::DoNotOptimize(proba.data());
  }
}
BENCHMARK(BM_ForestPredictProba);

void BM_RuntimeTableLookup(benchmark::State& state) {
  // The application-runtime side of the online stage: one lookup in a
  // compiled table, no inference.
  auto& fw = framework();
  const auto& frontera = sim::cluster_by_name("Frontera");
  const std::vector<int> nodes = {1, 2, 4, 8, 16};
  const std::vector<int> ppns = {28, 56};
  const auto sizes = sim::power_of_two_sizes(21);
  const core::TuningTable table =
      fw.compile_for(frontera, core::CompileOptions::sweep(nodes, ppns, sizes));
  std::uint64_t msg = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table.lookup(coll::Collective::kAllgather, 16, 56, msg));
    msg = msg >= (1u << 20) ? 1 : msg << 1;
  }
}
BENCHMARK(BM_RuntimeTableLookup);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (g_batch_mismatch.load()) {
    std::fprintf(stderr,
                 "FAIL: batched or grid inference diverged from the scalar "
                 "path\n");
    return 1;
  }
  return 0;
}
