#include "util/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace ronpath {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkIsDeterministicAndTagSensitive) {
  const Rng parent(7);
  Rng c1 = parent.fork("alpha");
  Rng c2 = parent.fork("alpha");
  Rng c3 = parent.fork("beta");
  EXPECT_EQ(c1.next_u64(), c2.next_u64());
  Rng c4 = parent.fork("alpha");
  EXPECT_NE(c4.next_u64(), c3.next_u64());
}

TEST(Rng, ForkDoesNotPerturbParent) {
  Rng a(99);
  Rng b(99);
  (void)a.fork("child");
  (void)a.fork(42u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, NumericTagForks) {
  const Rng parent(7);
  Rng a = parent.fork(std::uint64_t{1});
  Rng b = parent.fork(std::uint64_t{2});
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r(5);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowCoversRange) {
  Rng r(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(r.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng r(13);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng r(17);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
    EXPECT_FALSE(r.bernoulli(-1.0));
    EXPECT_TRUE(r.bernoulli(2.0));
  }
}

class RngMoments : public ::testing::TestWithParam<int> {};

TEST_P(RngMoments, SampleMeansMatch) {
  const int which = GetParam();
  Rng r(1000 + static_cast<std::uint64_t>(which));
  const int n = 200'000;
  double sum = 0.0;
  double sum2 = 0.0;
  double expected_mean = 0.0;
  double expected_var = 0.0;
  for (int i = 0; i < n; ++i) {
    double x = 0.0;
    switch (which) {
      case 0:  // uniform [2, 6)
        x = r.uniform(2.0, 6.0);
        expected_mean = 4.0;
        expected_var = 16.0 / 12.0;
        break;
      case 1:  // exponential mean 3
        x = r.exponential(3.0);
        expected_mean = 3.0;
        expected_var = 9.0;
        break;
      case 2:  // normal(5, 2)
        x = r.normal(5.0, 2.0);
        expected_mean = 5.0;
        expected_var = 4.0;
        break;
      case 3:  // bernoulli 0.3 as 0/1
        x = r.bernoulli(0.3) ? 1.0 : 0.0;
        expected_mean = 0.3;
        expected_var = 0.21;
        break;
      case 4:  // lognormal(mu=0, sigma=0.5): mean = exp(0.125)
        x = r.lognormal(0.0, 0.5);
        expected_mean = std::exp(0.125);
        expected_var = (std::exp(0.25) - 1.0) * std::exp(0.25);
        break;
      default:
        FAIL();
    }
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  // 5-sigma-ish tolerance on the sample mean.
  const double tol = 5.0 * std::sqrt(expected_var / n);
  EXPECT_NEAR(mean, expected_mean, tol) << "case " << which;
  // 5 % on the sample variance: eight or more standard errors in every
  // case at this n, yet tight enough to catch a wrong distribution.
  EXPECT_NEAR(var, expected_var, 0.05 * expected_var) << "case " << which;
}

INSTANTIATE_TEST_SUITE_P(Distributions, RngMoments, ::testing::Range(0, 5));

TEST(Rng, ParetoBoundedBelowByScale) {
  Rng r(23);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(r.pareto(2.0, 1.5), 2.0);
}

TEST(Rng, ExponentialDurationMean) {
  Rng r(29);
  const Duration mean = Duration::millis(50);
  double sum_ms = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum_ms += r.exponential_duration(mean).to_millis_f();
  EXPECT_NEAR(sum_ms / n, 50.0, 1.5);
}

TEST(Rng, UniformDurationWithinBounds) {
  Rng r(31);
  const Duration lo = Duration::millis(600);
  const Duration hi = Duration::millis(1200);
  for (int i = 0; i < 1000; ++i) {
    const Duration d = r.uniform_duration(lo, hi);
    EXPECT_GE(d, lo);
    EXPECT_LE(d, hi);
  }
}

}  // namespace
}  // namespace ronpath
