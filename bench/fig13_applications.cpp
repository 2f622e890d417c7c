// Reproduces Fig. 13: end-to-end application runtime of the Gromacs
// (BenchMEM) and MiniFE proxies on Frontera under three tuning strategies:
// the proposed framework, the MVAPICH2 2.3.7 default, and random
// selection, across a strong-scaling process sweep. Random draws among
// the flat algorithms, the label space of the flat model trained here.
#include <cmath>
#include <cstdio>

#include "apps/proxies.hpp"
#include "bench_util.hpp"

namespace {

using namespace pml;

/// A uniform draw among the flat algorithms valid at the topology, per
/// call.
class FlatRandomSelector final : public core::Selector {
 public:
  explicit FlatRandomSelector(std::uint64_t seed) : rng_(seed) {}
  std::string name() const override { return "Random"; }
  coll::Selection select(coll::Collective collective,
                         const sim::ClusterSpec& /*cluster*/,
                         sim::Topology topo,
                         std::uint64_t /*msg_bytes*/) override {
    valid_.clear();
    for (const coll::Algorithm a : coll::algorithms_for(collective)) {
      const coll::Selection s = coll::Selection::flat(a);
      if (coll::selection_supports(s, topo)) valid_.push_back(s);
    }
    return valid_[static_cast<std::size_t>(rng_.uniform_index(valid_.size()))];
  }

 private:
  Rng rng_;
  std::vector<coll::Selection> valid_;
};

}  // namespace

int main() {
  using namespace pml;
  std::printf("== Fig. 13: Application runtime on Frontera ==\n\n");

  const auto& frontera = sim::cluster_by_name("Frontera");
  auto fw = core::PmlFramework::train(bench::clusters_except({"Frontera", "MRI"}),
                                      bench::default_train_options());
  core::MvapichDefaultSelector mvapich;
  FlatRandomSelector random_sel(23);

  const struct {
    const char* app;
    bool gromacs;
  } apps_under_test[] = {{"Gromacs (BenchMEM proxy)", true},
                         {"MiniFE (CG proxy)", false}};

  for (const auto& app : apps_under_test) {
    TextTable table({"#Processes", "PML-MPI", "MVAPICH default", "Random",
                     "PML vs default", "PML vs random"});
    table.set_title(app.app);
    double geo_def = 0.0;
    double geo_rand = 0.0;
    int n = 0;
    for (const int procs : {28, 56, 112, 224, 448}) {
      const int ppn = std::min(procs, 56);
      const sim::Topology topo{procs / ppn, ppn};
      auto run = [&](core::Selector& sel) {
        return app.gromacs
                   ? apps::run_gromacs_proxy(frontera, topo, sel).total_seconds
                   : apps::run_minife_proxy(frontera, topo, sel).total_seconds;
      };
      const double t_pml = run(fw);
      const double t_def = run(mvapich);
      // Random re-rolls per collective call; average several trials.
      double t_rand = 0.0;
      for (int trial = 0; trial < 10; ++trial) t_rand += run(random_sel);
      t_rand /= 10.0;

      geo_def += std::log(t_def / t_pml);
      geo_rand += std::log(t_rand / t_pml);
      ++n;
      table.add_row({std::to_string(procs), format_time(t_pml),
                     format_time(t_def), format_time(t_rand),
                     bench::percent_faster(t_def, t_pml),
                     bench::percent_faster(t_rand, t_pml)});
    }
    std::printf("%s", table.str().c_str());
    std::printf("Geomean: %+.2f%% vs default, %+.2f%% vs random\n\n",
                (std::exp(geo_def / n) - 1.0) * 100.0,
                (std::exp(geo_rand / n) - 1.0) * 100.0);
  }
  std::printf(
      "(paper: Gromacs +2.90%% vs default, +19.39%% vs random; MiniFE "
      "+4.43%% vs default, +20.66%% vs random; scalability is lost around "
      "224 processes)\n");
  return 0;
}
