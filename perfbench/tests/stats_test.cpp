// Unit tests for the benchmark's own arithmetic: the percentile rule,
// backlog detection, the saturated completion rate, the capacity-ladder
// search and span self time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Percentile, NeedsTenSamplesBeyondTheRank) {
  // p99 of 1000 samples has exactly 10 beyond it: reported.
  EXPECT_EQ(percentile(one_to(1000), 0.99), 990.0);
  // 999 samples leave only 9 beyond the p99 rank: withheld.
  EXPECT_FALSE(percentile(one_to(999), 0.99).has_value());
  EXPECT_EQ(samples_for(0.99), 1000u);
  EXPECT_EQ(samples_for(0.9), 100u);
  EXPECT_EQ(samples_for(0.5), 20u);
  EXPECT_EQ(percentile(one_to(20), 0.5), 10.0);
  EXPECT_FALSE(percentile(one_to(19), 0.5).has_value());
}

TEST(Percentile, OrderIndependentNearestRank) {
  std::vector<double> v = one_to(200);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(percentile(v, 0.9), 180.0);
  EXPECT_FALSE(percentile({}, 0.5).has_value());
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0, 10.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({5.0}), 5.0);
}

TEST(Backlog, StationaryLagIsNotABacklog) {
  std::vector<LagSample> s;
  for (int i = 0; i < 400; ++i) s.push_back({i * 0.01, 4.0 + (i % 7) * 0.5});
  EXPECT_FALSE(backlog_growing(s));
}

TEST(Backlog, LinearlyGrowingLagIsABacklog) {
  std::vector<LagSample> s;
  // Arrivals at 1.2x the service rate: every request waits a little
  // longer than the one before.
  for (int i = 0; i < 400; ++i) s.push_back({i * 0.01, 4.0 + i * 0.05});
  EXPECT_TRUE(backlog_growing(s));
  // Due order, not vector order, defines the trend.
  std::reverse(s.begin(), s.end());
  EXPECT_TRUE(backlog_growing(s));
}

TEST(Backlog, SmallJitterBelowTheFloorIsIgnored) {
  std::vector<LagSample> s;
  for (int i = 0; i < 100; ++i) s.push_back({i * 0.01, i < 50 ? 1.0 : 2.5});
  EXPECT_FALSE(backlog_growing(s));  // +1.5 ms is under the 2 ms floor
  EXPECT_FALSE(backlog_growing({{0.0, 1.0}, {1.0, 100.0}}));  // too few samples
}

TEST(ChunkedRate, MedianOfChunksIgnoresOneStall) {
  // Batches of 4 completing every 10 ms: 400 completions/s.
  std::vector<double> done;
  for (int b = 0; b < 40; ++b) {
    for (int j = 0; j < 4; ++j) done.push_back(b * 0.010 + (b >= 20 ? 0.5 : 0.0));
  }
  // One 0.5 s stall sits in one of the 19 runs of 8.
  const std::vector<double> rates = chunk_rates(done, 8);
  ASSERT_EQ(rates.size(), 19u);
  EXPECT_NEAR(median(rates), 400.0, 1e-6);
  EXPECT_NEAR(*std::min_element(rates.begin(), rates.end()), 8.0 / 0.52, 1e-6);
  EXPECT_TRUE(chunk_rates(done, 160).empty());  // no whole run
  EXPECT_TRUE(chunk_rates({}, 8).empty());
}

TEST(Ladder, FindsTheHighestPassingRung) {
  for (int capacity = -1; capacity <= 40; ++capacity) {
    int probes = 0;
    const int got = highest_passing_rung(40, [&](int rung) {
      ++probes;
      return rung <= capacity;
    });
    EXPECT_EQ(got, capacity);
    EXPECT_LE(probes, 6);  // ceil(log2(42))
  }
}

TEST(Ladder, GeometricRungsStepAtMostFivePercent) {
  for (int i = 0; i < 56; ++i) {
    const double ratio = rung_rate(100.0, 1.05, i + 1) / rung_rate(100.0, 1.05, i);
    EXPECT_NEAR(ratio, 1.05, 1e-12);
  }
  EXPECT_DOUBLE_EQ(rung_rate(100.0, 1.05, 0), 100.0);
}

SpanRecord span(const char* name, double start_ms, double end_ms, int parent) {
  const Clock::time_point t0{};
  SpanRecord s;
  s.name = name;
  s.start = t0 + std::chrono::microseconds(static_cast<long>(start_ms * 1000));
  s.end = t0 + std::chrono::microseconds(static_cast<long>(end_ms * 1000));
  s.parent = parent;
  return s;
}

TEST(SelfTime, DurationMinusMergedChildCoverage) {
  const std::vector<SpanRecord> spans = {
      span("step", 0, 100, -1),
      span("a", 10, 40, 0),
      span("b", 30, 50, 0),    // overlaps a: union [10, 50)
      span("c", 90, 120, 0),   // clipped to the parent: [90, 100)
      span("a.inner", 15, 20, 1),
  };
  const std::vector<double> self = self_times_ms(spans);
  EXPECT_NEAR(self[0], 100 - 40 - 10, 1e-9);
  EXPECT_NEAR(self[1], 30 - 5, 1e-9);
  EXPECT_NEAR(self[2], 20, 1e-9);
  EXPECT_NEAR(self[3], 30, 1e-9);
  EXPECT_NEAR(self[4], 5, 1e-9);
  const auto totals = totals_by_name(spans);
  EXPECT_EQ(totals.at("a").count, 1);
  EXPECT_NEAR(totals.at("step").self_ms, 50, 1e-9);
}

TEST(SelfTime, NestedRecordingKeepsParents) {
  Tracer& t = Tracer::instance();
  t.clear();
  t.enable(true);
  {
    Span outer("outer");
    { Span inner("inner", 7); }
  }
  t.enable(false);
  { Span ignored("ignored"); }
  const std::vector<SpanRecord> spans = t.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].request, 7);
  EXPECT_LE(spans[0].start, spans[1].start);
  EXPECT_GE(spans[0].end, spans[1].end);
  t.clear();
}

}  // namespace
}  // namespace perfbench
