// End-to-end label-space-v2 pipeline tests: hierarchical dataset builds
// (thread-count determinism, flat-prefix stability), v2 dataset/table
// artifact round trips with v1 decode, serve protocol v2, and the
// v2-vs-flat selector accuracy acceptance.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "coll/cost.hpp"
#include "coll/selection.hpp"
#include "common/json.hpp"
#include "core/dataset_builder.hpp"
#include "core/framework.hpp"
#include "core/serve.hpp"
#include "core/tuning_table.hpp"

namespace pml::core {
namespace {

const sim::ClusterSpec& frontera() { return sim::cluster_by_name("Frontera"); }

BuildOptions hier_build() {
  BuildOptions options;
  options.hierarchy = true;
  return options;
}

// --- Hierarchical build determinism ----------------------------------------

TEST(HierBuild, BitIdenticalAcrossThreadCounts) {
  // The v2 sweep measures the full selection space under the cluster's
  // hierarchy model; per-cell RNG splitting must keep records bit-identical
  // at any thread count, exactly like the flat builder.
  std::vector<std::vector<TuningRecord>> runs;
  for (const int threads : {1, 2, 8}) {
    BuildOptions options = hier_build();
    options.threads = threads;
    runs.push_back(build_cluster_records(
        frontera(), coll::Collective::kAllgather, options));
  }
  ASSERT_EQ(runs[0].size(), runs[1].size());
  ASSERT_EQ(runs[0].size(), runs[2].size());
  for (std::size_t i = 0; i < runs[0].size(); ++i) {
    for (const std::size_t other : {std::size_t{1}, std::size_t{2}}) {
      EXPECT_EQ(runs[0][i].label, runs[other][i].label) << "record " << i;
      EXPECT_EQ(runs[0][i].times, runs[other][i].times) << "record " << i;
      EXPECT_EQ(runs[0][i].features, runs[other][i].features) << "record " << i;
    }
  }
}

TEST(HierBuild, FlatPrefixMatchesFlatBuild) {
  // Turning the hierarchy on widens the label space but must not perturb
  // the flat measurements: the flat prefix of a v2 record equals the flat
  // build bit for bit (same per-candidate RNG stream order).
  const auto flat = build_cluster_records(
      frontera(), coll::Collective::kAllgather, BuildOptions{});
  const auto hier = build_cluster_records(
      frontera(), coll::Collective::kAllgather, hier_build());
  const std::size_t flat_width =
      coll::algorithms_for(coll::Collective::kAllgather).size();
  const std::size_t space =
      coll::selection_space(coll::Collective::kAllgather).size();
  ASSERT_EQ(flat.size(), hier.size());
  for (std::size_t i = 0; i < flat.size(); ++i) {
    ASSERT_EQ(flat[i].times.size(), flat_width);
    ASSERT_EQ(hier[i].times.size(), space);
    for (std::size_t a = 0; a < flat_width; ++a) {
      EXPECT_EQ(flat[i].times[a], hier[i].times[a])
          << "record " << i << " candidate " << a;
    }
  }
}

TEST(HierBuild, LeaderCandidatesWinSomewhere) {
  // The acceptance premise of label space v2: on a multi-node high-PPN
  // cluster, some cells are best served by a hierarchical schedule.
  int hier_labels = 0;
  for (const auto collective :
       {coll::Collective::kAllgather, coll::Collective::kBcast}) {
    const std::size_t flat_width = coll::algorithms_for(collective).size();
    for (const auto& rec :
         build_cluster_records(frontera(), collective, hier_build())) {
      if (static_cast<std::size_t>(rec.label) >= flat_width) ++hier_labels;
    }
  }
  EXPECT_GT(hier_labels, 0);
}

// --- Dataset artifact v2 ----------------------------------------------------

TEST(DatasetV2, RoundTripsHierarchicalRecords) {
  const auto records = build_cluster_records(
      frontera(), coll::Collective::kBcast, hier_build());
  const Json j = records_to_json(records, coll::Collective::kBcast);
  EXPECT_EQ(j.at("format").as_string(), "pml-dataset-v2");
  const auto& space = coll::selection_space(coll::Collective::kBcast);
  const auto& sels = j.at("selections").as_array();
  ASSERT_EQ(sels.size(), space.size());
  for (std::size_t i = 0; i < space.size(); ++i) {
    EXPECT_EQ(sels[i].as_string(), space[i].encode());
  }

  const auto decoded = records_from_json(j);
  ASSERT_EQ(decoded.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(decoded[i].label, records[i].label);
    EXPECT_EQ(decoded[i].times, records[i].times);
    EXPECT_EQ(decoded[i].features, records[i].features);
  }
}

TEST(DatasetV2, RejectsV1Documents) {
  // The v1 read (flat label space, no `selections` array) is retired:
  // a v1 document is refused even when its records would still fit.
  const auto flat = build_cluster_records(
      frontera(), coll::Collective::kAllgather, BuildOptions{});
  Json j = records_to_json(flat, coll::Collective::kAllgather);
  j["format"] = "pml-dataset-v1";
  EXPECT_THROW(records_from_json(j), TuningError);
}

TEST(DatasetV2, RejectsLabelSpaceMismatch) {
  const auto records = build_cluster_records(
      frontera(), coll::Collective::kAllgather, BuildOptions{});
  Json j = records_to_json(records, coll::Collective::kAllgather);
  j["selections"].as_array()[0] = "not_a_real_selection";
  EXPECT_THROW(records_from_json(j), Error);
}

// --- Tuning table schema v2 -------------------------------------------------

TEST(TableV2, RoundTripsHierarchicalEntries) {
  TuningTable table("Frontera");
  JobTable job;
  job.collective = coll::Collective::kAllgather;
  job.nodes = 4;
  job.ppn = 32;
  job.entries.push_back(TuningEntry{
      4096, coll::Selection::flat(coll::Algorithm::kAgRecursiveDoubling)});
  // Last entry is open-ended by lookup semantics; generate() stores real
  // sweep sizes, never sentinel bounds (doubles back the JSON numbers).
  job.entries.push_back(TuningEntry{
      1u << 20, coll::Selection::leader(coll::Algorithm::kAgRing,
                                        coll::Algorithm::kBcBinomial)});
  table.add(job);

  const Json j = table.to_json();
  EXPECT_EQ(j.at("format").as_string(), "pml-mpi-tuning-table-v2");

  const TuningTable back = TuningTable::from_json(j);
  const coll::Selection small =
      back.lookup(coll::Collective::kAllgather, 4, 32, 1024);
  EXPECT_FALSE(small.hierarchical());
  EXPECT_EQ(small.algorithm, coll::Algorithm::kAgRecursiveDoubling);
  const coll::Selection large =
      back.lookup(coll::Collective::kAllgather, 4, 32, 1 << 22);
  EXPECT_TRUE(large.hierarchical());
  EXPECT_EQ(large.encode(), "leader:ring+binomial");
  EXPECT_EQ(back.to_json().dump(), j.dump());
}

TEST(TableV2, RejectsV1AlgorithmEntries) {
  // The v1 read (a bare algorithm name under "algorithm") is retired: a
  // v1 table is refused, and so is a v2 table with a v1-style entry.
  const std::string v1 = R"({
    "format": "pml-mpi-tuning-table-v1",
    "cluster": "Frontera",
    "jobs": [{
      "collective": "allgather", "nodes": 2, "ppn": 16,
      "entries": [{"max_bytes": 1048576, "algorithm": "ring"}]
    }]
  })";
  EXPECT_THROW(TuningTable::from_json(Json::parse(v1)), TuningError);
  Json v2_with_v1_entry = Json::parse(v1);
  v2_with_v1_entry["format"] = "pml-mpi-tuning-table-v2";
  EXPECT_THROW(TuningTable::from_json(v2_with_v1_entry), Error);
}

// --- Serve protocol v2 ------------------------------------------------------

TEST(ServeV2, SelectReplyCarriesStructuredSelection) {
  ServeOptions options;
  options.async_compile = false;  // deterministic: compile on this thread
  ServeEngine engine(options);    // no model: heuristic rung

  const Json reply = Json::parse(engine.handle_line(
      R"({"op":"select","cluster":"Frontera","collective":"allgather",)"
      R"("nodes":4,"ppn":32,"msg_bytes":1048576})"));
  ASSERT_TRUE(reply.at("ok").as_bool());

  // v2: the structured `selection` object carries the algorithm; no
  // top-level `algorithm` member is sent.
  ASSERT_TRUE(reply.contains("selection"));
  const Json& sel = reply.at("selection");
  const coll::Selection decoded = coll::Selection::decode(
      coll::Collective::kAllgather, sel.at("encoded").as_string());
  EXPECT_EQ(sel.at("kind").as_string(),
            coll::to_string(decoded.kind));
  EXPECT_EQ(sel.at("algorithm").as_string(),
            coll::to_string(decoded.algorithm));
  EXPECT_EQ(sel.at("intra").as_string(), coll::to_string(decoded.intra));
  EXPECT_FALSE(reply.contains("algorithm"));
  EXPECT_EQ(reply.at("display_name").as_string(), decoded.display());
  EXPECT_TRUE(coll::selection_supports(decoded, sim::Topology{4, 32}));
}

// --- Acceptance: v2 selector vs flat ---------------------------------------

/// Geomean of choice-cost / best-valid-selection-cost over the given
/// grids on an unseen cluster (lower is better; 1.0 is oracle).
double slowdown_vs_oracle(PmlFramework& fw, const sim::ClusterSpec& cluster,
                          std::initializer_list<sim::Topology> grids) {
  double log_ratio = 0.0;
  int n = 0;
  for (const sim::Topology topo : grids) {
    for (const auto collective :
         {coll::Collective::kAllgather, coll::Collective::kAlltoall}) {
      for (std::uint64_t msg = 64; msg <= (1u << 20); msg <<= 2) {
        const coll::Selection choice =
            fw.select(collective, cluster, topo, msg);
        const double t_choice =
            coll::analytic_cost(cluster, topo, choice, msg);
        double t_best = t_choice;
        for (const coll::Selection& s :
             coll::valid_selections(collective, topo)) {
          t_best = std::min(t_best,
                            coll::analytic_cost(cluster, topo, s, msg));
        }
        log_ratio += std::log(t_choice / t_best);
        ++n;
      }
    }
  }
  return std::exp(log_ratio / n);
}

TEST(HierTrain, V2SelectorMatchesOrBeatsFlatSelector) {
  // Acceptance: retraining on label space v2 (hierarchical candidates
  // included) yields a selector no worse than the flat-trained one against
  // the full-space oracle — and the flat selector cannot reach the
  // hierarchical winners at all on these grids.
  TrainOptions flat_options;
  flat_options.forest.n_trees = 20;
  TrainOptions hier_options = flat_options;
  hier_options.build.hierarchy = true;

  std::vector<sim::ClusterSpec> clusters;
  for (const char* name : {"RI", "RI2", "Rome", "Haswell", "Bridges"}) {
    clusters.push_back(sim::cluster_by_name(name));
  }
  PmlFramework flat_fw = PmlFramework::train(clusters, flat_options);
  PmlFramework hier_fw = PmlFramework::train(clusters, hier_options);

  // On multi-node high-PPN grids (where hierarchical schedules are in
  // play) the v2 selector must match or beat the flat one.
  const auto& mri = sim::cluster_by_name("MRI");
  const double flat_slowdown = slowdown_vs_oracle(
      flat_fw, mri, {sim::Topology{4, 32}, sim::Topology{8, 16}});
  const double hier_slowdown = slowdown_vs_oracle(
      hier_fw, mri, {sim::Topology{4, 32}, sim::Topology{8, 16}});
  EXPECT_LE(hier_slowdown, flat_slowdown * 1.02)
      << "hier " << hier_slowdown << " vs flat " << flat_slowdown;

  // On flat grids (single node: no leader schedule is valid) the wider
  // label space must not cost accuracy.
  const double flat_on_flat = slowdown_vs_oracle(
      flat_fw, mri, {sim::Topology{1, 16}, sim::Topology{1, 28}});
  const double hier_on_flat = slowdown_vs_oracle(
      hier_fw, mri, {sim::Topology{1, 16}, sim::Topology{1, 28}});
  EXPECT_LE(hier_on_flat, flat_on_flat * 1.05)
      << "hier " << hier_on_flat << " vs flat " << flat_on_flat;

  // The v2 selector actually uses the wider label space.
  int hier_choices = 0;
  for (const sim::Topology topo : {sim::Topology{4, 32}, sim::Topology{8, 16}}) {
    for (std::uint64_t msg = 64; msg <= (1u << 20); msg <<= 2) {
      if (hier_fw.select(coll::Collective::kAllgather, mri, topo, msg)
              .hierarchical()) {
        ++hier_choices;
      }
    }
  }
  EXPECT_GT(hier_choices, 0);
}

}  // namespace
}  // namespace pml::core
