// Reproduces Fig. 1 and Fig. 7: startup core-hours of offline
// micro-benchmarking vs ACCLAiM vs the proposed pre-trained framework, as
// the evaluated node count grows (TACC Frontera, MPI_Allgather).
//
// The PML column is the *actually measured* wall time of a full tuning
// table inference sweep on one process, exactly as the deployed framework
// would run at MPI-library compile time.
#include <cstdio>

#include "bench_util.hpp"
#include "core/overhead.hpp"

int main() {
  using namespace pml;
  std::printf(
      "== Fig. 1 / Fig. 7: Startup overhead (core hours), Frontera, "
      "MPI_Allgather ==\n\n");

  const auto& frontera = sim::cluster_by_name("Frontera");
  const auto sizes = sim::power_of_two_sizes(21);

  // Train once (offline stage, not counted: it ships with the library),
  // then measure the one-time per-cluster inference sweep.
  auto fw = core::PmlFramework::train(bench::clusters_except({"Frontera"}),
                                      bench::default_train_options());
  const std::vector<int> sweep_nodes = {1, 2, 4, 8, 16};
  const std::vector<int> sweep_ppns = {28, 56};
  const double sweep_s =
      fw.compile_for(frontera,
                     core::CompileOptions::sweep(sweep_nodes, sweep_ppns, sizes))
          .compile_seconds();
  // The deployed step also runs the feature-extraction script
  // (lscpu/lspci/ibstat) and loads the shipped model bundle — budget the
  // paper's "less than a second" for that on top of the measured sweep.
  constexpr double kExtractionSeconds = 0.5;
  const double inference_s = sweep_s + kExtractionSeconds;

  TextTable table({"#nodes", "procs (ppn=56)", "micro-benchmark (core-h)",
                   "ACCLAiM (core-h)", "PML-MPI (core-h)",
                   "PML speedup vs micro", "PML speedup vs ACCLAiM"});
  const int ppn = 56;
  for (const int nodes : {2, 8, 32, 128, 512, 2048, 8192}) {
    const double micro = core::microbenchmark_core_hours(
        frontera, coll::Collective::kAllgather, nodes, ppn, sizes);
    const double acclaim = core::acclaim_core_hours(nodes, ppn);
    const double pml = core::pml_core_hours(inference_s);
    char micro_s[32], acclaim_s[32], pml_s[32], spm[32], spa[32];
    std::snprintf(micro_s, sizeof micro_s, "%.3e", micro);
    std::snprintf(acclaim_s, sizeof acclaim_s, "%.3e", acclaim);
    std::snprintf(pml_s, sizeof pml_s, "%.3e", pml);
    std::snprintf(spm, sizeof spm, "%.1e x", micro / pml);
    std::snprintf(spa, sizeof spa, "%.1e x", acclaim / pml);
    table.add_row({std::to_string(nodes), std::to_string(nodes * ppn),
                   micro_s, acclaim_s, pml_s, spm, spa});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "PML one-time cost: %s measured inference sweep + %.1f s budgeted "
      "feature extraction/model load, on a single process\n",
      format_time(sweep_s).c_str(), kExtractionSeconds);
  std::printf(
      "(paper: ~1e6x over micro-benchmarking at 32 nodes, ~1e4x over "
      "ACCLAiM at 128 nodes; PML stays near-constant)\n");
  return 0;
}
