// Unit tests for the statistics toolkit: moments, order statistics and
// the binomial tail behind the cross-correlation significance test.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/stats.hpp"

namespace {

using namespace elsa::util;

TEST(Stats, MeanVarianceBasics) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(xs), 3.0);
  EXPECT_DOUBLE_EQ(variance(xs), 2.5);
  EXPECT_DOUBLE_EQ(stddev(xs), std::sqrt(2.5));
}

TEST(Stats, EmptyAndSingleton) {
  const std::vector<double> empty;
  EXPECT_DOUBLE_EQ(mean(empty), 0.0);
  EXPECT_DOUBLE_EQ(variance(empty), 0.0);
  EXPECT_DOUBLE_EQ(median(empty), 0.0);
  EXPECT_DOUBLE_EQ(mad(empty), 0.0);
  const std::vector<double> one{7.0};
  EXPECT_DOUBLE_EQ(mean(one), 7.0);
  EXPECT_DOUBLE_EQ(variance(one), 0.0);
  EXPECT_DOUBLE_EQ(median(one), 7.0);
  EXPECT_DOUBLE_EQ(mad(one), 0.0);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4, 1, 3, 2}), 2.5);
}

TEST(Stats, MadRobustToOutlier) {
  std::vector<double> xs{1, 1, 1, 1, 1, 1, 1, 1000};
  EXPECT_DOUBLE_EQ(mad(xs), 0.0);  // median deviation unaffected
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25.0);
}

TEST(Stats, BinomialTailClosedForms) {
  // P(X >= 1) = 1 - (1-p)^n
  EXPECT_NEAR(binomial_tail_pvalue(10, 1, 0.1), 1.0 - std::pow(0.9, 10),
              1e-12);
  // P(X >= n) = p^n
  EXPECT_NEAR(binomial_tail_pvalue(5, 5, 0.5), std::pow(0.5, 5), 1e-12);
  EXPECT_DOUBLE_EQ(binomial_tail_pvalue(5, 0, 0.3), 1.0);
  EXPECT_DOUBLE_EQ(binomial_tail_pvalue(5, 6, 0.3), 0.0);
  EXPECT_DOUBLE_EQ(binomial_tail_pvalue(5, 3, 0.0), 0.0);
}

TEST(Stats, BinomialTailMonotoneInK) {
  double prev = 1.1;
  for (int k = 0; k <= 20; ++k) {
    const double p = binomial_tail_pvalue(20, k, 0.3);
    EXPECT_LE(p, prev + 1e-12);
    prev = p;
  }
}

}  // namespace
