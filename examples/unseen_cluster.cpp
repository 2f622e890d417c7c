// Scenario: an application scientist lands on a cluster nobody has tuned
// for — the paper's core motivation (§II). Compare the selection
// strategies available to them on a *custom* cluster spec that is not in
// the training set at all:
//
//   - MVAPICH2 default static table (what they get out of the box),
//   - exhaustive offline micro-benchmarking (optimal, but days of
//     core-hours before the first real run),
//   - PML-MPI (sub-second inference with the shipped pre-trained model).
//
// Build & run:  ./build/examples/unseen_cluster
#include <cmath>
#include <cstdio>

#include "coll/cost.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/framework.hpp"
#include "core/overhead.hpp"

int main() {
  using namespace pml;

  // A brand-new machine: Sapphire-Rapids-style nodes on HDR InfiniBand.
  sim::ClusterSpec novel;
  novel.name = "Atlas (new deployment)";
  novel.processor = "Dual-socket 48-core, 3.8 GHz boost";
  novel.interconnect = sim::Interconnect::kInfinibandHdr;
  novel.hw.cpu_max_clock_ghz = 3.8;
  novel.hw.l3_cache_mb = 210.0;
  novel.hw.mem_bw_gbs = 307.0;
  novel.hw.cores = 96;
  novel.hw.threads = 192;
  novel.hw.sockets = 2;
  novel.hw.numa_nodes = 8;
  novel.hw.pcie_lanes = 16;
  novel.hw.pcie_version = 4;
  novel.hw.hca_link_speed_gbps = sim::lane_speed_gbps(novel.interconnect);
  novel.hw.hca_link_width = 4;
  novel.node_counts = {1, 2, 4, 8};
  novel.ppn_values = {48, 96};
  novel.message_sizes = sim::power_of_two_sizes(21);

  std::printf("New cluster: %s\n  %s, %s\n\n", novel.name.c_str(),
              novel.processor.c_str(),
              sim::to_string(novel.interconnect).c_str());

  // The shipped model has never seen this machine.
  auto framework = core::PmlFramework::train(
      std::span<const sim::ClusterSpec>(sim::builtin_clusters()));
  core::MvapichDefaultSelector mvapich;
  core::OracleSelector oracle;

  // What would each strategy cost before the first production run?
  // Empty CompileOptions grids fall back to the cluster's own sweep.
  const auto table = framework.compile_for(novel);
  const double micro_hours = core::microbenchmark_core_hours(
      novel, coll::Collective::kAlltoall, 8, 96, novel.message_sizes);
  std::printf("Startup cost on this cluster:\n");
  std::printf("  offline micro-benchmarking : %.1f core-hours\n", micro_hours);
  std::printf("  PML-MPI inference          : %s on one core\n\n",
              format_time(table.compile_seconds()).c_str());

  // And what quality of selection does each deliver at 8 nodes x 96 ppn?
  const sim::Topology topo{8, 96};
  const sim::NetworkModel model(novel, topo);
  TextTable results({"msg size", "default pick", "PML pick", "oracle pick",
                     "default/oracle", "PML/oracle"});
  results.set_title("MPI_Alltoall, 8 nodes x 96 PPN");
  double geo_def = 0.0;
  double geo_pml = 0.0;
  int count = 0;
  for (std::uint64_t msg = 1; msg <= (1u << 20); msg <<= 4) {
    const auto pick_def =
        mvapich.select(coll::Collective::kAlltoall, novel, topo, msg);
    const auto pick_pml =
        table.lookup(coll::Collective::kAlltoall, topo.nodes, topo.ppn, msg);
    const auto pick_orc =
        oracle.select(coll::Collective::kAlltoall, novel, topo, msg);
    const double t_def = coll::analytic_cost(novel, topo, pick_def, msg);
    const double t_pml = coll::analytic_cost(novel, topo, pick_pml, msg);
    const double t_orc = coll::analytic_cost(novel, topo, pick_orc, msg);
    geo_def += std::log(t_def / t_orc);
    geo_pml += std::log(t_pml / t_orc);
    ++count;
    char rd[16], rp[16];
    std::snprintf(rd, sizeof rd, "%.2fx", t_def / t_orc);
    std::snprintf(rp, sizeof rp, "%.2fx", t_pml / t_orc);
    results.add_row({format_bytes(msg), pick_def.encode(),
                     pick_pml.encode(), pick_orc.encode(), rd,
                     rp});
  }
  std::printf("%s\n", results.str().c_str());
  std::printf("Geomean distance from optimal: default %.1f%%, PML %.1f%%\n",
              (std::exp(geo_def / count) - 1.0) * 100.0,
              (std::exp(geo_pml / count) - 1.0) * 100.0);
  return 0;
}
