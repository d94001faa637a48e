#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.h"

namespace ronpath {
namespace {

TEST(RunningStat, EmptyDefaults) {
  RunningStat s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStat, MatchesNaiveComputation) {
  RunningStat s;
  const double xs[] = {1.0, 2.0, 4.0, 8.0, 16.0};
  double sum = 0.0;
  for (double x : xs) {
    s.add(x);
    sum += x;
  }
  const double mean = sum / 5.0;
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= 5.0;
  EXPECT_DOUBLE_EQ(s.mean(), mean);
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 16.0);
  EXPECT_DOUBLE_EQ(s.sum(), sum);
}

TEST(RunningStat, MergeEqualsCombined) {
  Rng rng(3);
  RunningStat all;
  RunningStat a;
  RunningStat b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(10.0, 4.0);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeWithEmpty) {
  RunningStat a;
  a.add(5.0);
  RunningStat b;
  a.merge(b);
  EXPECT_EQ(a.count(), 1);
  b.merge(a);
  EXPECT_EQ(b.count(), 1);
  EXPECT_DOUBLE_EQ(b.mean(), 5.0);
}

TEST(Histogram, BinsAndEdges) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.0);    // bin 0
  h.add(0.999);  // bin 0
  h.add(5.0);    // bin 5
  h.add(9.999);  // bin 9
  h.add(-1.0);   // underflow
  h.add(10.0);   // overflow (right-open)
  h.add(100.0);  // overflow
  EXPECT_EQ(h.bin(0), 2);
  EXPECT_EQ(h.bin(5), 1);
  EXPECT_EQ(h.bin(9), 1);
  EXPECT_EQ(h.underflow(), 1);
  EXPECT_EQ(h.overflow(), 2);
  EXPECT_EQ(h.total(), 7);
  EXPECT_DOUBLE_EQ(h.bin_lo(5), 5.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(5), 6.0);
}

TEST(Histogram, FractionBelow) {
  Histogram h(0.0, 1.0, 10);
  for (int i = 0; i < 10; ++i) h.add(i / 10.0 + 0.05);
  EXPECT_DOUBLE_EQ(h.fraction_below(0.5), 0.5);
  EXPECT_DOUBLE_EQ(h.fraction_below(1.0), 1.0);
  EXPECT_DOUBLE_EQ(h.fraction_below(0.0), 0.0);
}

TEST(EmpiricalCdf, QuantilesOfKnownData) {
  EmpiricalCdf c;
  for (int i = 1; i <= 100; ++i) c.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(c.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(c.quantile(1.0), 100.0);
  EXPECT_NEAR(c.median(), 50.5, 1e-9);
  EXPECT_NEAR(c.quantile(0.25), 25.75, 1e-9);
}

TEST(EmpiricalCdf, FractionAtOrBelow) {
  EmpiricalCdf c;
  for (double x : {1.0, 2.0, 2.0, 3.0}) c.add(x);
  EXPECT_DOUBLE_EQ(c.fraction_at_or_below(0.5), 0.0);
  EXPECT_DOUBLE_EQ(c.fraction_at_or_below(1.0), 0.25);
  EXPECT_DOUBLE_EQ(c.fraction_at_or_below(2.0), 0.75);
  EXPECT_DOUBLE_EQ(c.fraction_at_or_below(9.0), 1.0);
}

TEST(EmpiricalCdf, CurveDistinctPoints) {
  EmpiricalCdf c;
  for (double x : {1.0, 1.0, 2.0, 3.0, 3.0, 3.0}) c.add(x);
  const auto pts = c.curve();
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_DOUBLE_EQ(pts[0].x, 1.0);
  EXPECT_NEAR(pts[0].f, 2.0 / 6.0, 1e-12);
  EXPECT_DOUBLE_EQ(pts[2].x, 3.0);
  EXPECT_DOUBLE_EQ(pts[2].f, 1.0);
}

TEST(EmpiricalCdf, DownsampledCurveBounds) {
  EmpiricalCdf c;
  for (int i = 0; i < 1000; ++i) c.add(static_cast<double>(i));
  const auto pts = c.curve(10);
  ASSERT_EQ(pts.size(), 10u);
  EXPECT_DOUBLE_EQ(pts.front().x, 0.0);
  EXPECT_DOUBLE_EQ(pts.back().x, 999.0);
}

TEST(EmpiricalCdf, InterleavedAddAndQuery) {
  EmpiricalCdf c;
  c.add(5.0);
  EXPECT_DOUBLE_EQ(c.median(), 5.0);
  c.add(1.0);  // must re-sort lazily
  EXPECT_DOUBLE_EQ(c.min(), 1.0);
  EXPECT_DOUBLE_EQ(c.max(), 5.0);
}

TEST(LossCounter, Rates) {
  LossCounter lc;
  for (int i = 0; i < 97; ++i) lc.record(false);
  for (int i = 0; i < 3; ++i) lc.record(true);
  EXPECT_EQ(lc.sent(), 100);
  EXPECT_EQ(lc.lost(), 3);
  EXPECT_EQ(lc.received(), 97);
  EXPECT_DOUBLE_EQ(lc.loss_rate(), 0.03);
  EXPECT_DOUBLE_EQ(lc.loss_percent(), 3.0);
}

TEST(LossCounter, EmptyIsZero) {
  LossCounter lc;
  EXPECT_DOUBLE_EQ(lc.loss_rate(), 0.0);
}

TEST(LossCounter, Merge) {
  LossCounter a;
  LossCounter b;
  a.record(true);
  b.record(false);
  b.record(true);
  a.merge(b);
  EXPECT_EQ(a.sent(), 3);
  EXPECT_EQ(a.lost(), 2);
}

// PairCounter is the core of Table 5; verify the column semantics exactly.
TEST(PairCounter, TableFiveColumns) {
  PairCounter pc;
  // 1000 pairs: 10 first-only, 6 second-only, 4 both, 980 clean.
  for (int i = 0; i < 980; ++i) pc.record(false, false);
  for (int i = 0; i < 10; ++i) pc.record(true, false);
  for (int i = 0; i < 6; ++i) pc.record(false, true);
  for (int i = 0; i < 4; ++i) pc.record(true, true);
  EXPECT_EQ(pc.pairs(), 1000);
  EXPECT_DOUBLE_EQ(pc.first_loss_percent(), 1.4);   // (10+4)/1000
  EXPECT_DOUBLE_EQ(pc.second_loss_percent(), 1.0);  // (6+4)/1000
  EXPECT_DOUBLE_EQ(pc.total_loss_percent(), 0.4);   // 4/1000
  ASSERT_TRUE(pc.conditional_loss_percent().has_value());
  EXPECT_NEAR(*pc.conditional_loss_percent(), 100.0 * 4.0 / 14.0, 1e-9);
}

TEST(PairCounter, NoFirstLossesMeansNoClp) {
  PairCounter pc;
  pc.record(false, true);
  EXPECT_FALSE(pc.conditional_loss_percent().has_value());
}

TEST(PairCounter, Merge) {
  PairCounter a;
  PairCounter b;
  a.record(true, true);
  b.record(true, false);
  b.record(false, false);
  a.merge(b);
  EXPECT_EQ(a.pairs(), 3);
  EXPECT_EQ(a.first_lost(), 2);
  EXPECT_EQ(a.both_lost(), 1);
  EXPECT_NEAR(*a.conditional_loss_percent(), 50.0, 1e-9);
}

// Property: independence implies clp ~= second marginal.
TEST(PairCounter, IndependentLossesHaveClpNearMarginal) {
  Rng rng(77);
  PairCounter pc;
  for (int i = 0; i < 300'000; ++i) pc.record(rng.bernoulli(0.05), rng.bernoulli(0.2));
  ASSERT_TRUE(pc.conditional_loss_percent().has_value());
  EXPECT_NEAR(*pc.conditional_loss_percent(), 20.0, 1.5);
}

}  // namespace
}  // namespace ronpath
