#include "core/tuning_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace pml::core {
namespace {

using coll::Algorithm;
using coll::Collective;
using coll::Selection;

JobTable simple_job(Collective c, int nodes, int ppn) {
  JobTable job;
  job.collective = c;
  job.nodes = nodes;
  job.ppn = ppn;
  job.entries = {
      TuningEntry{1024, Selection::flat(Algorithm::kAgBruck)},
      TuningEntry{65536, Selection::flat(Algorithm::kAgRecursiveDoubling)},
      TuningEntry{1 << 20, Selection::flat(Algorithm::kAgRing)},
  };
  return job;
}

TEST(TuningTable, LookupBySizeRange) {
  TuningTable t("X");
  t.add(simple_job(Collective::kAllgather, 4, 8));
  EXPECT_EQ(t.lookup(Collective::kAllgather, 4, 8, 1), Algorithm::kAgBruck);
  EXPECT_EQ(t.lookup(Collective::kAllgather, 4, 8, 1024), Algorithm::kAgBruck);
  EXPECT_EQ(t.lookup(Collective::kAllgather, 4, 8, 1025),
            Algorithm::kAgRecursiveDoubling);
  EXPECT_EQ(t.lookup(Collective::kAllgather, 4, 8, 1 << 19),
            Algorithm::kAgRing);
  // Beyond the last boundary: the final range is open-ended.
  EXPECT_EQ(t.lookup(Collective::kAllgather, 4, 8, 1u << 30),
            Algorithm::kAgRing);
}

TEST(TuningTable, NearestJobShapeFallback) {
  TuningTable t("X");
  t.add(simple_job(Collective::kAllgather, 4, 8));
  JobTable big = simple_job(Collective::kAllgather, 16, 32);
  big.entries = {TuningEntry{1 << 20, Selection::flat(Algorithm::kAgRing)}};
  t.add(std::move(big));
  // (8, 16) is geometrically nearer to (4,8) than (16,32)? log-distance:
  // (1,1) vs (1,1) — tie broken by first match; just verify no throw and a
  // valid result.
  EXPECT_NO_THROW(t.lookup(Collective::kAllgather, 8, 16, 64));
  // (15, 30) is clearly nearest (16, 32).
  EXPECT_EQ(t.lookup(Collective::kAllgather, 15, 30, 64), Algorithm::kAgRing);
}

TEST(TuningTable, NearestTieBreakIsDeterministicAcrossRegistrationOrder) {
  // (4,8) is equidistant in log-space from (2,8) and (8,8). The fixed
  // tie-break (smaller nodes, then smaller ppn) must win regardless of
  // which job was added first — serve replies depend on lookup being
  // byte-stable for any job ordering.
  JobTable low = simple_job(Collective::kAllgather, 2, 8);
  low.entries = {TuningEntry{1 << 20, Selection::flat(Algorithm::kAgBruck)}};
  JobTable high = simple_job(Collective::kAllgather, 8, 8);
  high.entries = {TuningEntry{1 << 20, Selection::flat(Algorithm::kAgRing)}};

  TuningTable low_first("X");
  low_first.add(low);
  low_first.add(high);
  TuningTable high_first("X");
  high_first.add(high);
  high_first.add(low);

  EXPECT_EQ(low_first.lookup(Collective::kAllgather, 4, 8, 64),
            Algorithm::kAgBruck);
  EXPECT_EQ(high_first.lookup(Collective::kAllgather, 4, 8, 64),
            Algorithm::kAgBruck);

  // Same story on the ppn axis: (4,4) ties between (4,2) and (4,8).
  JobTable narrow = simple_job(Collective::kAlltoall, 4, 2);
  narrow.entries = {TuningEntry{1 << 20, Selection::flat(Algorithm::kAaBruck)}};
  JobTable wide = simple_job(Collective::kAlltoall, 4, 8);
  wide.entries = {TuningEntry{1 << 20, Selection::flat(Algorithm::kAaPairwise)}};
  TuningTable wide_first("X");
  wide_first.add(wide);
  wide_first.add(narrow);
  EXPECT_EQ(wide_first.lookup(Collective::kAlltoall, 4, 4, 64),
            Algorithm::kAaBruck);
}

TEST(TuningTable, MissingCollectiveThrows) {
  TuningTable t("X");
  t.add(simple_job(Collective::kAllgather, 4, 8));
  EXPECT_THROW(t.lookup(Collective::kAlltoall, 4, 8, 64), TuningError);
}

TEST(TuningTable, RejectsMalformedJobTables) {
  TuningTable t("X");
  JobTable empty;
  empty.collective = Collective::kAllgather;
  empty.nodes = 1;
  empty.ppn = 1;
  EXPECT_THROW(t.add(empty), TuningError);

  JobTable unsorted = simple_job(Collective::kAllgather, 1, 1);
  std::swap(unsorted.entries[0], unsorted.entries[2]);
  EXPECT_THROW(t.add(std::move(unsorted)), TuningError);

  t.add(simple_job(Collective::kAllgather, 2, 2));
  EXPECT_THROW(t.add(simple_job(Collective::kAllgather, 2, 2)), TuningError);
}

TEST(TuningTable, HasChecksExactShape) {
  TuningTable t("X");
  t.add(simple_job(Collective::kAllgather, 4, 8));
  EXPECT_TRUE(t.has(Collective::kAllgather, 4, 8));
  EXPECT_FALSE(t.has(Collective::kAllgather, 4, 16));
  EXPECT_FALSE(t.has(Collective::kAlltoall, 4, 8));
}

TEST(TuningTable, JsonRoundTrip) {
  TuningTable t("ClusterY");
  t.add(simple_job(Collective::kAllgather, 4, 8));
  JobTable aa;
  aa.collective = Collective::kAlltoall;
  aa.nodes = 2;
  aa.ppn = 16;
  aa.entries = {TuningEntry{512, Selection::flat(Algorithm::kAaBruck)},
                TuningEntry{1 << 20, Selection::flat(Algorithm::kAaPairwise)}};
  t.add(std::move(aa));

  const TuningTable restored =
      TuningTable::from_json(Json::parse(t.to_json().dump(2)));
  EXPECT_EQ(restored.cluster_name(), "ClusterY");
  EXPECT_EQ(restored.job_count(), 2u);
  EXPECT_EQ(restored.lookup(Collective::kAllgather, 4, 8, 2048),
            Algorithm::kAgRecursiveDoubling);
  EXPECT_EQ(restored.lookup(Collective::kAlltoall, 2, 16, 100),
            Algorithm::kAaBruck);
  EXPECT_EQ(restored.lookup(Collective::kAlltoall, 2, 16, 4096),
            Algorithm::kAaPairwise);
}

TEST(TuningTable, FromJsonRejectsWrongFormat) {
  Json j = Json::object();
  j["format"] = "something-else";
  EXPECT_THROW(TuningTable::from_json(j), TuningError);
  EXPECT_THROW(TuningTable::from_json(Json::object()), TuningError);
}

TEST(TuningTable, FromJsonRejectsOutOfRangeShapesAndSizes) {
  // A table file is outside input: a node or ppn count lookup() cannot
  // take the log2 of, or a size that would wrap to a huge uint64, is
  // refused with an error naming where it sits.
  TuningTable t("X");
  t.set_sweep(std::vector<int>{4}, std::vector<int>{8},
              std::vector<std::uint64_t>{1024});
  t.add(simple_job(Collective::kAllgather, 4, 8));
  const Json good = Json::parse(t.to_json().dump());
  ASSERT_NO_THROW(TuningTable::from_json(good));
  const auto expect_refused = [](const Json& doc, const std::string& where) {
    try {
      TuningTable::from_json(doc);
      ADD_FAILURE() << "accepted a table with a bad " << where;
    } catch (const TuningError& e) {
      EXPECT_NE(std::string(e.what()).find(where), std::string::npos)
          << e.what();
    }
  };
  for (const double nodes : {0.0, -4.0, 2147483648.0}) {
    Json doc = good;
    doc["jobs"].as_array()[0]["nodes"] = nodes;
    expect_refused(doc, "job 0 (allgather) nodes");
  }
  Json bad_ppn = good;
  bad_ppn["jobs"].as_array()[0]["ppn"] = -1;
  expect_refused(bad_ppn, "job 0 (allgather) ppn");
  Json bad_bytes = good;
  bad_bytes["jobs"].as_array()[0]["entries"].as_array()[0]["max_bytes"] = -1;
  expect_refused(bad_bytes, "job 0 (allgather) entry 0 max_bytes");
  Json bad_sweep = good;
  bad_sweep["sweep"]["msg_sizes"].as_array()[0] = -1;
  expect_refused(bad_sweep, "sweep msg_sizes[0]");
  bad_sweep = good;
  bad_sweep["sweep"]["nodes"].as_array()[0] = 0;
  expect_refused(bad_sweep, "sweep nodes[0]");
}

TEST(TuningTable, GenerateCompressesRanges) {
  // A selector with one crossover must yield exactly two entries per job.
  class TwoRange final : public Selector {
   public:
    std::string name() const override { return "two-range"; }
    coll::Selection select(Collective c, const sim::ClusterSpec&,
                           sim::Topology, std::uint64_t msg) override {
      if (c == Collective::kAllgather) {
        return Selection::flat(msg <= 4096 ? Algorithm::kAgBruck
                                           : Algorithm::kAgRing);
      }
      return Selection::flat(msg <= 4096 ? Algorithm::kAaBruck
                                         : Algorithm::kAaPairwise);
    }
  };
  TwoRange selector;
  const auto& cluster = sim::cluster_by_name("RI");
  const std::vector<int> nodes = {1};
  const std::vector<int> ppns = {4};
  const auto sizes = sim::power_of_two_sizes(21);
  const TuningTable t =
      TuningTable::generate(selector, cluster, nodes, ppns, sizes);
  EXPECT_EQ(t.job_count(), 2u);  // one per collective
  EXPECT_EQ(t.lookup(Collective::kAllgather, 1, 4, 4096),
            Algorithm::kAgBruck);
  EXPECT_EQ(t.lookup(Collective::kAllgather, 1, 4, 8192), Algorithm::kAgRing);

  const Json j = t.to_json();
  // Two compressed entries, not 21.
  EXPECT_EQ(j.at("jobs").as_array()[0].at("entries").as_array().size(), 2u);
}

TEST(TuningTable, ParallelGenerateMatchesSerialByteForByte) {
  OracleSelector oracle;  // stateless -> thread-safe select()
  const auto& ri = sim::cluster_by_name("RI");
  const std::vector<int> nodes = {1, 2, 4};
  const std::vector<int> ppns = {2, 4, 8};
  const auto sizes = sim::power_of_two_sizes(12);
  const auto collectives = coll::paper_collectives();
  const TuningTable serial = TuningTable::generate(oracle, ri, nodes, ppns,
                                                   sizes, collectives, 1);
  for (const int threads : {2, 4, 8}) {
    const TuningTable parallel_table = TuningTable::generate(
        oracle, ri, nodes, ppns, sizes, collectives, threads);
    EXPECT_EQ(parallel_table.to_json().dump(), serial.to_json().dump())
        << "threads=" << threads;
  }
}

TEST(TuningTable, GenerateMakesOneSelectManyPerCollectiveOverEveryTopology) {
  // Each collective is one grid: a model-backed selector answers it with
  // one inference call, at any thread count.
  class Counting final : public Selector {
   public:
    std::string name() const override { return "counting"; }
    Selection select(Collective collective, const sim::ClusterSpec& cluster,
                     sim::Topology topo, std::uint64_t msg) override {
      return oracle_.select(collective, cluster, topo, msg);
    }
    void select_many(Collective collective, const sim::ClusterSpec& cluster,
                     std::span<const sim::Topology> topos,
                     std::span<const std::uint64_t> msg_sizes,
                     std::span<Selection> out) override {
      {
        const std::lock_guard lock(mutex_);
        calls.emplace_back(collective,
                           std::vector<sim::Topology>(topos.begin(),
                                                      topos.end()));
      }
      Selector::select_many(collective, cluster, topos, msg_sizes, out);
    }
    std::vector<std::pair<Collective, std::vector<sim::Topology>>> calls;

   private:
    OracleSelector oracle_;
    std::mutex mutex_;
  };
  const auto& ri = sim::cluster_by_name("RI");  // 16 threads per node
  const std::vector<int> nodes = {1, 2, 4};
  const std::vector<int> ppns = {2, 4, 8, 32};  // 32 is not runnable
  const auto sizes = sim::power_of_two_sizes(5);
  const auto collectives = coll::paper_collectives();
  std::vector<sim::Topology> topos;
  for (const int n : nodes) {
    for (const int p : {2, 4, 8}) topos.push_back(sim::Topology{n, p});
  }
  for (const int threads : {1, 2, 0}) {
    Counting counting;
    TuningTable::generate(counting, ri, nodes, ppns, sizes, collectives,
                          threads);
    ASSERT_EQ(counting.calls.size(), collectives.size())
        << "threads=" << threads;
    for (const Collective collective : collectives) {
      EXPECT_EQ(std::ranges::count(counting.calls, collective,
                                   [](const auto& call) { return call.first; }),
                1)
          << coll::to_string(collective) << " threads=" << threads;
    }
    for (const auto& [collective, seen] : counting.calls) {
      ASSERT_EQ(seen.size(), topos.size()) << coll::to_string(collective);
      for (std::size_t t = 0; t < topos.size(); ++t) {
        EXPECT_EQ(seen[t].nodes, topos[t].nodes);
        EXPECT_EQ(seen[t].ppn, topos[t].ppn);
      }
    }
  }
}

TEST(TuningTable, GenerateRecordsSweepAndJsonRoundTripsIt) {
  OracleSelector oracle;
  const auto& ri = sim::cluster_by_name("RI");
  const std::vector<int> nodes = {1, 2};
  const std::vector<int> ppns = {4};
  const auto sizes = sim::power_of_two_sizes(6);
  const TuningTable t =
      TuningTable::generate(oracle, ri, nodes, ppns, sizes);
  EXPECT_TRUE(t.matches_sweep(nodes, ppns, sizes));
  EXPECT_FALSE(t.matches_sweep(std::vector<int>{1}, ppns, sizes));
  EXPECT_FALSE(t.matches_sweep(nodes, ppns, sim::power_of_two_sizes(7)));

  const TuningTable restored =
      TuningTable::from_json(Json::parse(t.to_json().dump()));
  EXPECT_TRUE(restored.matches_sweep(nodes, ppns, sizes));
  EXPECT_EQ(restored.sweep_nodes(), nodes);
  EXPECT_EQ(restored.sweep_ppn(), ppns);
  EXPECT_EQ(restored.sweep_msg_sizes(), sizes);

  // Hand-built tables carry no sweep and never match one.
  TuningTable manual("X");
  manual.add(simple_job(Collective::kAllgather, 4, 8));
  EXPECT_FALSE(manual.matches_sweep(nodes, ppns, sizes));
}

TEST(TuningTable, GenerateSkipsOversubscribedPpn) {
  OracleSelector oracle;
  const auto& ri = sim::cluster_by_name("RI");  // 8 cores, 16 threads
  const std::vector<int> nodes = {1};
  const std::vector<int> ppns = {8, 1024};  // 1024 is not runnable
  const auto sizes = sim::power_of_two_sizes(4);
  const TuningTable t =
      TuningTable::generate(oracle, ri, nodes, ppns, sizes);
  EXPECT_EQ(t.job_count(), 2u);  // only ppn=8, for each collective
}

}  // namespace
}  // namespace pml::core
