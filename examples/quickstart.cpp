// Quickstart: the full PML-MPI lifecycle in one file.
//
//  1. Offline stage: train the pre-trained model on the Table-I clusters
//     (in a real deployment this JSON bundle ships with the MPI library).
//  2. Online stage: arrive at a "new" cluster, compile a tuning table with
//     one inference sweep, and save it as JSON.
//  3. Runtime: look up algorithms from the table and run one collective on
//     the simulated cluster to see the choice in action.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "coll/runner.hpp"
#include "common/strings.hpp"
#include "core/framework.hpp"

int main() {
  using namespace pml;

  // ---- 1. Offline training (ships with the library) ----------------------
  std::vector<sim::ClusterSpec> training;
  for (const auto& c : sim::builtin_clusters()) {
    if (c.name != "Frontera") training.push_back(c);  // keep Frontera unseen
  }
  std::printf("Training the pre-trained model on %zu clusters...\n",
              training.size());
  auto framework = core::PmlFramework::train(training);

  const Json bundle = framework.to_json();
  write_file("/tmp/pml_model.json", bundle.dump(2));
  std::printf("Model bundle saved to /tmp/pml_model.json (%zu bytes)\n\n",
              bundle.dump().size());

  // ---- 2. Online stage on the unseen cluster ------------------------------
  auto shipped = core::PmlFramework::load(
      Json::parse(read_file("/tmp/pml_model.json")));
  const auto& frontera = sim::cluster_by_name("Frontera");
  const std::vector<int> nodes = {1, 2, 4, 8, 16};
  const std::vector<int> ppns = {28, 56};
  const auto sizes = sim::power_of_two_sizes(21);

  const core::TuningTable table =
      shipped.compile_for(frontera, core::CompileOptions::sweep(nodes, ppns, sizes));
  write_file("/tmp/pml_frontera_tuning.json", table.to_json().dump(2));
  std::printf("Compiled tuning table for unseen cluster '%s' in %s\n",
              frontera.name.c_str(),
              format_time(table.compile_seconds()).c_str());
  std::printf("Tuning table saved to /tmp/pml_frontera_tuning.json\n\n");

  // ---- 3. Application runtime ---------------------------------------------
  const sim::Topology topo{4, 28};
  for (const std::uint64_t msg : {64ull, 4096ull, 262144ull}) {
    const coll::Selection choice =
        table.lookup(coll::Collective::kAlltoall, topo.nodes, topo.ppn, msg);
    const auto run = coll::run_selection(frontera, topo, choice, msg);
    std::printf(
        "MPI_Alltoall %7s : table selects %-14s -> %-10s (payload %s)\n",
        format_bytes(msg).c_str(), choice.display().c_str(),
        format_time(run.seconds).c_str(),
        run.verified ? "verified" : "unverified");
  }
  return 0;
}
