#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

#include "src/stats/confidence.h"
#include "src/stats/summary.h"

namespace {

using ckptsim::stats::ConfidenceInterval;
using ckptsim::stats::mean_confidence;
using ckptsim::stats::normal_critical;
using ckptsim::stats::normal_quantile;
using ckptsim::stats::student_t_critical;
using ckptsim::stats::Summary;

TEST(Summary, EmptyStateIsSafe) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_TRUE(std::isnan(s.mean()));
  EXPECT_TRUE(std::isnan(s.variance()));
  EXPECT_TRUE(std::isnan(s.stddev()));
  EXPECT_TRUE(std::isnan(s.std_error()));
  EXPECT_EQ(s.sum(), 0.0);
  EXPECT_TRUE(std::isinf(s.min()));
  EXPECT_TRUE(std::isinf(s.max()));
}

TEST(Summary, SingleObservation) {
  Summary s;
  s.add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_TRUE(std::isnan(s.variance()));
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(Summary, KnownMoments) {
  Summary s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of this classic dataset is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Summary, MergeMatchesSequential) {
  std::mt19937_64 gen(7);
  std::normal_distribution<double> dist(10.0, 3.0);
  Summary all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = dist(gen);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Summary, MergeWithEmpty) {
  Summary a, b;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(b);  // no-op
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  b.merge(a);  // copies
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), mean);
}

TEST(Summary, Reset) {
  Summary s;
  s.add(42.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_TRUE(std::isnan(s.mean()));
}

TEST(Summary, NumericallyStableForLargeOffsets) {
  Summary s;
  const double offset = 1e12;
  for (int i = 0; i < 1000; ++i) s.add(offset + (i % 2 == 0 ? 1.0 : -1.0));
  EXPECT_NEAR(s.mean(), offset, 1e-2);
  EXPECT_NEAR(s.variance(), 1.001, 0.01);  // ~1 (n/(n-1))
}

TEST(NormalQuantile, MatchesKnownValues) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-8);
  EXPECT_NEAR(normal_quantile(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(normal_quantile(0.995), 2.575829, 1e-5);
  EXPECT_NEAR(normal_quantile(0.025), -1.959964, 1e-5);
  EXPECT_NEAR(normal_quantile(1e-6), -4.753424, 1e-4);
}

TEST(NormalQuantile, RejectsOutOfRange) {
  EXPECT_THROW((void)normal_quantile(0.0), std::invalid_argument);
  EXPECT_THROW((void)normal_quantile(1.0), std::invalid_argument);
  EXPECT_THROW((void)normal_quantile(-0.5), std::invalid_argument);
}

TEST(NormalCritical, TwoSided) {
  EXPECT_NEAR(normal_critical(0.95), 1.959964, 1e-5);
  EXPECT_NEAR(normal_critical(0.90), 1.644854, 1e-5);
  EXPECT_NEAR(normal_critical(0.99), 2.575829, 1e-5);
}

TEST(StudentT, SmallDofTable) {
  EXPECT_NEAR(student_t_critical(1, 0.95), 12.706, 1e-3);
  EXPECT_NEAR(student_t_critical(2, 0.95), 4.303, 1e-3);
  EXPECT_NEAR(student_t_critical(4, 0.95), 2.776, 1e-3);
  EXPECT_NEAR(student_t_critical(10, 0.99), 3.169, 1e-3);
  EXPECT_NEAR(student_t_critical(30, 0.90), 1.697, 1e-3);
}

TEST(StudentT, LargeDofApproachesNormal) {
  EXPECT_NEAR(student_t_critical(10000, 0.95), normal_critical(0.95), 2e-3);
  EXPECT_NEAR(student_t_critical(120, 0.95), 1.9799, 2e-3);
}

TEST(StudentT, RejectsZeroDof) {
  EXPECT_THROW((void)student_t_critical(0, 0.95), std::invalid_argument);
}

TEST(StudentT, RejectsNonsenseLevels) {
  // The boundary levels describe no interval, and NaN/Inf would silently
  // poison every downstream half-width instead of failing loudly.
  for (const double bad : {0.0, 1.0, -0.5, 1.5,
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW((void)student_t_critical(10, bad), std::invalid_argument)
        << "level " << bad << " must be rejected";
    EXPECT_THROW((void)student_t_critical(1, bad), std::invalid_argument);
  }
  // In-range levels stay accepted across the whole open interval.
  EXPECT_NO_THROW((void)student_t_critical(5, 0.001));
  EXPECT_NO_THROW((void)student_t_critical(5, 0.999));
}

TEST(MeanConfidence, RejectsNonsenseLevels) {
  Summary many;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) many.add(x);
  Summary one;
  one.add(1.0);
  const Summary empty;
  for (const double bad : {0.0, 1.0, -1.0, 2.0,
                           std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW((void)mean_confidence(many, bad), std::invalid_argument);
    // The < 2-sample early returns must validate too: a bad level is a bad
    // level regardless of how much data has arrived yet.
    EXPECT_THROW((void)mean_confidence(one, bad), std::invalid_argument);
    EXPECT_THROW((void)mean_confidence(empty, bad), std::invalid_argument);
  }
  EXPECT_NO_THROW((void)mean_confidence(empty, 0.95));
  EXPECT_NO_THROW((void)mean_confidence(one, 0.95));
}

TEST(ConfidenceInterval, BasicGeometry) {
  ConfidenceInterval ci;
  ci.mean = 10.0;
  ci.half_width = 2.0;
  EXPECT_DOUBLE_EQ(ci.lower(), 8.0);
  EXPECT_DOUBLE_EQ(ci.upper(), 12.0);
  EXPECT_DOUBLE_EQ(ci.relative_half_width(), 0.2);
  EXPECT_TRUE(ci.contains(9.0));
  EXPECT_FALSE(ci.contains(12.5));
}

TEST(ConfidenceInterval, ZeroMeanRelativeWidth) {
  ConfidenceInterval ci;
  ci.half_width = 1.0;
  EXPECT_TRUE(std::isinf(ci.relative_half_width()));
}

TEST(MeanConfidence, KnownDataset) {
  Summary s;
  for (const double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
  const auto ci = mean_confidence(s, 0.95);
  EXPECT_DOUBLE_EQ(ci.mean, 3.0);
  // stderr = sqrt(2.5/5) ~ 0.7071; t(4, .95) = 2.776
  EXPECT_NEAR(ci.half_width, 2.776 * std::sqrt(0.5), 1e-3);
  EXPECT_EQ(ci.samples, 5u);
}

TEST(MeanConfidence, CoverageOnNormalData) {
  // 95% CIs computed from repeated samples should contain the true mean
  // roughly 95% of the time.
  std::mt19937_64 gen(11);
  std::normal_distribution<double> dist(5.0, 2.0);
  int covered = 0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    Summary s;
    for (int i = 0; i < 20; ++i) s.add(dist(gen));
    if (mean_confidence(s, 0.95).contains(5.0)) ++covered;
  }
  const double coverage = static_cast<double>(covered) / trials;
  EXPECT_GT(coverage, 0.90);
  EXPECT_LT(coverage, 0.99);
}

}  // namespace
