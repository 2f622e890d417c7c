// Reproduces Fig. 8: normalized runtime of the proposed framework vs
// random algorithm selection on Frontera, 16 nodes x 56 PPN. The paper
// reports random selection up to 15.48x/9.39x slower for MPI_Allgather and
// 8.32x/3.73x for MPI_Alltoall at large message sizes. Random draws among
// the flat algorithms, the label space of the flat model trained here.
#include <cstdio>

#include "bench_util.hpp"

int main() {
  using namespace pml;
  std::printf(
      "== Fig. 8: Proposed vs random selection, Frontera 16 nodes x 56 PPN "
      "==\n\n");

  const auto& frontera = sim::cluster_by_name("Frontera");
  const sim::Topology topo{16, 56};
  auto fw = core::PmlFramework::train(bench::clusters_except({"Frontera"}),
                                      bench::default_train_options());

  for (const auto collective :
       {coll::Collective::kAllgather, coll::Collective::kAlltoall}) {
    TextTable table({"msg size", "PML choice", "PML time",
                     "random (worst-case)", "random (expected)",
                     "worst/PML", "expected/PML"});
    table.set_title(collective == coll::Collective::kAllgather
                        ? "(a) MPI_Allgather"
                        : "(b) MPI_Alltoall");
    double max_worst = 0.0;
    for (std::uint64_t msg = 1; msg <= (1u << 20); msg <<= 1) {
      const auto times =
          bench::point_times(frontera, topo, collective, msg, 8);
      const coll::Selection choice =
          fw.select(collective, frontera, topo, msg);
      const double t_pml =
          bench::selector_time(fw, frontera, topo, collective, msg, times);
      // Random selection among the flat algorithms the model ranks:
      // expectation = mean over the valid ones; worst case = the slowest
      // valid one (a draw the user will hit).
      const bench::FlatBaselines base =
          bench::flat_baselines(collective, times);
      const double worst = base.random_worst;
      const double expected = base.random_expected;
      max_worst = std::max(max_worst, worst / t_pml);
      char wr[32], er[32];
      std::snprintf(wr, sizeof wr, "%.2fx", worst / t_pml);
      std::snprintf(er, sizeof er, "%.2fx", expected / t_pml);
      table.add_row({format_bytes(msg), choice.encode(),
                     format_time(t_pml), format_time(worst),
                     format_time(expected), wr, er});
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("Peak worst-case slowdown of random selection: %.2fx\n\n",
                max_worst);
  }
  std::printf(
      "(paper: 15.48x/9.39x slowdowns for Allgather, 8.32x/3.73x for "
      "Alltoall at large sizes — random selection is not viable)\n");
  return 0;
}
