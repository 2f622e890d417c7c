// Unit tests for the benchmark's own code: statistics, open-loop
// accounting, seeded generators and span bookkeeping. Run them with
// `python3 perfbench/run.py --selftest`.
#include <gtest/gtest.h>

#include <set>

#include "gen.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Percentile, NearestRank) {
  EXPECT_DOUBLE_EQ(percentile(one_to(100), 90.0), 90.0);
  EXPECT_DOUBLE_EQ(percentile(one_to(100), 99.0), 99.0);
  EXPECT_DOUBLE_EQ(percentile(one_to(10), 50.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(one_to(10), 100.0), 10.0);
  EXPECT_EQ(samples_beyond(100, 90.0), 10u);
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(samples_beyond(999, 99.0), 9u);
}

TEST(TailRule, HighestPercentileWithTenSamplesBeyond) {
  Tail t = highest_supported_percentile(one_to(1000));
  EXPECT_DOUBLE_EQ(t.p, 99.0);
  EXPECT_DOUBLE_EQ(t.value, 990.0);
  EXPECT_EQ(t.samples, 1000u);
  EXPECT_EQ(t.beyond, 10u);

  t = highest_supported_percentile(one_to(999));  // p99 has only 9 beyond
  EXPECT_DOUBLE_EQ(t.p, 90.0);
  EXPECT_EQ(t.beyond, 99u);

  t = highest_supported_percentile(one_to(10000));
  EXPECT_DOUBLE_EQ(t.p, 99.9);
  EXPECT_EQ(t.beyond, 10u);

  t = highest_supported_percentile(one_to(20));
  EXPECT_DOUBLE_EQ(t.p, 50.0);
  EXPECT_EQ(t.beyond, 10u);

  t = highest_supported_percentile(one_to(19));  // not even the median
  EXPECT_DOUBLE_EQ(t.p, 0.0);
  EXPECT_EQ(t.samples, 19u);
}

TEST(OpenLoop, DueTimesFollowTheRate) {
  EXPECT_EQ(open_loop_due_ns(1000, 1000.0, 0), 1000);
  EXPECT_EQ(open_loop_due_ns(1000, 1000.0, 3), 1000 + 3'000'000);
  EXPECT_EQ(open_loop_due_ns(0, 4000.0, 4000), 1'000'000'000);
}

TEST(OpenLoop, StallIsChargedFromTheDueTime) {
  // Requests due every 1 ms; the generator stalls so requests 1 and 2 go
  // out late. Latency counts from the due time, lateness from due to send.
  // Times start at 10 ms: a zero time stamp means "never happened".
  constexpr std::int64_t t = 10'000'000;
  const std::vector<OpenLoopRecord> records = {
      {t, t, t + 100'000},                                    // on time, 100 us
      {t + 1'000'000, t + 2'500'000, t + 2'600'000},          // 1.5 ms late
      {t + 2'000'000, t + 2'500'000, t + 2'700'000},          // 0.5 ms late
      {t + 3'000'000, t + 3'000'000, 0},                      // never answered
      {t + 4'000'000, 0, 0},                                  // never sent
  };
  const OpenLoopSummary s = summarize_open_loop(records);
  EXPECT_EQ(s.completed, 3u);
  EXPECT_EQ(s.missing, 1u);
  ASSERT_EQ(s.latency_us.size(), 3u);
  EXPECT_DOUBLE_EQ(s.latency_us[0], 100.0);
  EXPECT_DOUBLE_EQ(s.latency_us[1], 1600.0);
  EXPECT_DOUBLE_EQ(s.latency_us[2], 700.0);
  ASSERT_EQ(s.lateness_us.size(), 4u);
  EXPECT_DOUBLE_EQ(s.lateness_us[1], 1500.0);
  EXPECT_DOUBLE_EQ(s.lateness_us[2], 500.0);
  EXPECT_DOUBLE_EQ(s.lateness_us[3], 0.0);
}

TEST(OpenLoop, WindowsGroupByDueTime) {
  // Two 1 ms windows from t = 10 ms: latencies 1..4 us in the first, 10 and
  // 20 us in the second; one unanswered request is ignored.
  constexpr std::int64_t t = 10'000'000;
  const std::vector<OpenLoopRecord> records = {
      {t + 0, t + 1, t + 1'000},
      {t + 100, t + 101, t + 2'100},
      {t + 200, t + 201, t + 3'200},
      {t + 300, t + 301, t + 4'300},
      {t + 1'000'000, t + 1'000'001, t + 1'010'000},
      {t + 1'500'000, t + 1'500'001, t + 1'520'000},
      {t + 1'600'000, t + 1'600'001, 0},
  };
  const auto p50 = windowed_latency_us(records, t, 1'000'000, 50.0, 1);
  ASSERT_EQ(p50.size(), 2u);
  EXPECT_DOUBLE_EQ(p50[0], 2.0);
  EXPECT_DOUBLE_EQ(p50[1], 10.0);
  // A window with too few samples is skipped.
  const auto sparse = windowed_latency_us(records, t, 1'000'000, 50.0, 3);
  ASSERT_EQ(sparse.size(), 1u);
  EXPECT_DOUBLE_EQ(sparse[0], 2.0);
}

TEST(Generators, SameSeedSameRequestStream) {
  const auto a = make_select_mix(7, 500);
  const auto b = make_select_mix(7, 500);
  const auto c = make_select_mix(8, 500);
  ASSERT_EQ(a.size(), 500u);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].line, b[i].line);
    differs = differs || a[i].line != c[i].line;
  }
  EXPECT_TRUE(differs);
}

TEST(Generators, SelectMixStaysOnEachClustersGrid) {
  std::set<std::string> clusters;
  for (const SelectRequest& r : make_select_mix(3, 2000)) {
    const auto& spec = pml::sim::cluster_by_name(r.cluster);
    EXPECT_NE(std::find(spec.node_counts.begin(), spec.node_counts.end(), r.nodes),
              spec.node_counts.end());
    EXPECT_NE(std::find(spec.ppn_values.begin(), spec.ppn_values.end(), r.ppn),
              spec.ppn_values.end());
    EXPECT_GE(r.msg_bytes, 1u);
    EXPECT_LE(r.msg_bytes, 1u << 20);
    clusters.insert(r.cluster);
  }
  EXPECT_EQ(clusters.size(), pml::sim::builtin_clusters().size());
}

TEST(Generators, MessageSizesCoverEveryTableRowEqually) {
  // Row e of a power-of-two table answers sizes in (2^(e-1), 2^e].
  constexpr std::size_t kRows = 21;
  constexpr std::size_t kDraws = 21'000;
  std::vector<std::size_t> per_row(kRows, 0);
  std::size_t off_breakpoint = 0;
  for (const SelectRequest& r : make_select_mix(5, kDraws)) {
    std::size_t row = 0;
    while ((std::uint64_t{1} << row) < r.msg_bytes) ++row;
    ASSERT_LT(row, kRows) << r.msg_bytes;
    ++per_row[row];
    off_breakpoint += (r.msg_bytes & (r.msg_bytes - 1)) != 0;
  }
  for (std::size_t row = 0; row < kRows; ++row) {
    EXPECT_GT(per_row[row], 800u) << "row " << row;
    EXPECT_LT(per_row[row], 1200u) << "row " << row;
  }
  EXPECT_GT(off_breakpoint, kDraws / 2);
}

TEST(Generators, UnseenClustersHaveDistinctFingerprints) {
  const auto a = make_unseen_clusters(11, 300);
  const auto b = make_unseen_clusters(11, 300);
  ASSERT_EQ(a.size(), 300u);
  std::set<std::uint64_t> fingerprints;
  for (const auto& builtin : pml::sim::builtin_clusters()) {
    fingerprints.insert(builtin.hardware_fingerprint());
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(fingerprints.insert(a[i].hardware_fingerprint()).second) << i;
    EXPECT_EQ(table_request_line(a[i]), table_request_line(b[i]));
  }
}

TEST(Tracer, SpansNestAndDisabledTracerRecordsNothing) {
  Tracer off(false);
  { Span s(off, "x"); }
  EXPECT_EQ(off.size(), 0u);

  Tracer on(true);
  {
    Span outer(on, "outer", 5);
    Span inner(on, "inner", 5);
  }
  on.record("done", 10, 30);
  EXPECT_EQ(on.size(), 3u);
  EXPECT_EQ(on.durations_ns("inner").size(), 1u);
  EXPECT_DOUBLE_EQ(on.durations_ns("done").front(), 20.0);
  EXPECT_LE(on.durations_ns("inner").front(), on.durations_ns("outer").front());
}

}  // namespace
}  // namespace perfbench
