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
// ML-layer BM_* kernels below. BM_ForestPredictProba (model-only time) and
// BM_RuntimeTableLookup (one application-runtime lookup) complete the
// paper's online-stage picture.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "bench_util.hpp"
#include "core/features.hpp"
#include "ml/flat_forest.hpp"
#include "ml/forest.hpp"
#include "ml/tree.hpp"

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
// Set by BM_BatchInference when the batched kernel's output diverges from
// the scalar path; main() turns it into a nonzero exit so the CI smoke run
// fails on wrong answers even though google-benchmark treats SkipWithError
// as a reporting detail.
std::atomic<bool> g_batch_mismatch{false};
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
// The same 100 trees in both layouts: per-node heap Nodes (the pre-PR
// representation, walked via leaf_proba_for) vs the packed FlatForest.

struct TreeFixture {
  std::vector<ml::DecisionTree> trees;
  ml::FlatForest flat;
};

const TreeFixture& tree_fixture() {
  static const TreeFixture fixture = [] {
    const auto d = synthetic_dataset(400, 10, 4, 42);
    ml::TreeParams tp;
    tp.max_features = 3;
    TreeFixture f;
    Rng rng(5);
    for (int t = 0; t < 100; ++t) {
      Rng tree_rng = rng.split();
      f.trees.emplace_back(tp);
      f.trees.back().fit(d.x, d.y, d.num_classes, tree_rng);
      f.trees.back().append_flat(f.flat);
    }
    f.flat.finish(d.num_classes);
    return f;
  }();
  return fixture;
}

void BM_ForestPredictFlat(benchmark::State& state) {
  const auto& f = tree_fixture();
  const auto d = synthetic_dataset(64, 10, 4, 1234);
  std::vector<double> out(4);
  std::size_t r = 0;
  const std::size_t allocs_before = g_alloc_count.load();
  for (auto _ : state) {
    f.flat.predict_proba_into(d.x.row(r), out);
    benchmark::DoNotOptimize(out.data());
    r = (r + 1) % d.x.rows();
  }
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(g_alloc_count.load() - allocs_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ForestPredictFlat);

void BM_ForestPredictNodeWalk(benchmark::State& state) {
  const auto& f = tree_fixture();
  const auto d = synthetic_dataset(64, 10, 4, 1234);
  std::vector<double> out(4);
  std::size_t r = 0;
  for (auto _ : state) {
    std::fill(out.begin(), out.end(), 0.0);
    for (const auto& tree : f.trees) {
      const auto leaf = tree.leaf_proba_for(d.x.row(r));
      for (std::size_t c = 0; c < out.size(); ++c) out[c] += leaf[c];
    }
    for (auto& v : out) v /= static_cast<double>(f.trees.size());
    benchmark::DoNotOptimize(out.data());
    r = (r + 1) % d.x.rows();
  }
}
BENCHMARK(BM_ForestPredictNodeWalk);

// ---- batched inference kernels ----------------------------------------------
// BM_ScalarLoopInference is the baseline the tentpole gate compares
// against: the same rows pushed one at a time through predict_proba_into.
// BM_BatchInference runs the tree-major blocked kernel and first verifies
// (outside the timed loop) that its output is byte-identical to the scalar
// loop — the bench doubles as a correctness smoke in CI, where timing on
// shared runners is meaningless but divergence is not.

void BM_ScalarLoopInference(benchmark::State& state) {
  const auto& f = tree_fixture();
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto d = synthetic_dataset(rows, 10, 4, 1234);
  ml::Matrix out(rows, 4);
  const std::size_t allocs_before = g_alloc_count.load();
  for (auto _ : state) {
    for (std::size_t r = 0; r < rows; ++r) {
      f.flat.predict_proba_into(d.x.row(r), out.row(r));
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

void BM_BatchInference(benchmark::State& state) {
  const auto& f = tree_fixture();
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto d = synthetic_dataset(rows, 10, 4, 1234);
  ml::Matrix out(rows, 4);
  ml::Matrix ref(rows, 4);
  for (std::size_t r = 0; r < rows; ++r) {
    f.flat.predict_proba_into(d.x.row(r), ref.row(r));
  }
  f.flat.predict_batch(d.x, out);
  for (std::size_t r = 0; r < rows; ++r) {
    if (std::memcmp(out.row(r).data(), ref.row(r).data(),
                    4 * sizeof(double)) != 0) {
      g_batch_mismatch.store(true);
      state.SkipWithError("batched output diverges from the scalar path");
      return;
    }
  }
  const std::size_t allocs_before = g_alloc_count.load();
  for (auto _ : state) {
    f.flat.predict_batch(d.x, out);
    benchmark::DoNotOptimize(out.row(0).data());
  }
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(rows),
      benchmark::Counter::kIsRate);
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(g_alloc_count.load() - allocs_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_BatchInference)->Arg(64)->Arg(1024)->Arg(4096)->ArgName("rows");

// The compile inner kernel: one tuning-table cell's whole message sweep
// answered by a single select_many (feature assembly + one batched forest
// sweep + per-size ranking), the unit TuningTable::generate now issues.
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

// ---- framework-level headline series --------------------------------------

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
  fw.set_threads(static_cast<int>(state.range(0)));
  const auto& frontera = sim::cluster_by_name("Frontera");
  const std::vector<int> nodes = {1, 2, 4, 8, 16};
  const std::vector<int> ppns = {28, 56};
  const auto sizes = sim::power_of_two_sizes(21);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fw.compile_for(frontera, core::CompileOptions::sweep(nodes, ppns, sizes)));
  }
  fw.set_threads(0);
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
                 "FAIL: batched inference diverged from the scalar path\n");
    return 1;
  }
  return 0;
}
