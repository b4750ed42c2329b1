#include "analysis/histogram.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "analysis/stats.hpp"
#include "util/rng.hpp"

namespace streamlab {
namespace {

TEST(Histogram, EmptyHasNoBins) {
  Histogram h(10.0);
  EXPECT_TRUE(h.bins().empty());
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.mode().count, 0u);
}

TEST(Histogram, BinAssignment) {
  Histogram h(10.0);
  h.add(5.0);    // bin [0,10)
  h.add(9.999);  // bin [0,10)
  h.add(10.0);   // bin [10,20)
  h.add(-1.0);   // bin [-10,0)
  const auto bins = h.bins();
  ASSERT_EQ(bins.size(), 3u);
  EXPECT_DOUBLE_EQ(bins[0].lower, -10.0);
  EXPECT_EQ(bins[0].count, 1u);
  EXPECT_DOUBLE_EQ(bins[1].lower, 0.0);
  EXPECT_EQ(bins[1].count, 2u);
  EXPECT_DOUBLE_EQ(bins[2].lower, 10.0);
  EXPECT_EQ(bins[2].count, 1u);
}

TEST(Histogram, ProbabilitiesSumToOne) {
  Histogram h(50.0);
  Rng rng(4);
  for (int i = 0; i < 5000; ++i) h.add(rng.uniform(0, 1500));
  double total = 0.0;
  for (const auto& b : h.bins()) total += b.probability;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Histogram, GapsBetweenOccupiedBinsIncluded) {
  Histogram h(10.0);
  h.add(5.0);
  h.add(95.0);
  const auto bins = h.bins();
  ASSERT_EQ(bins.size(), 10u);  // [0,10) through [90,100), gaps at zero count
  EXPECT_EQ(bins[0].count, 1u);
  EXPECT_EQ(bins[5].count, 0u);
  EXPECT_EQ(bins[9].count, 1u);
}

TEST(Histogram, ModeFindsPeak) {
  Histogram h(1.0);
  for (int i = 0; i < 10; ++i) h.add(5.5);
  for (int i = 0; i < 3; ++i) h.add(2.5);
  const auto mode = h.mode();
  EXPECT_DOUBLE_EQ(mode.lower, 5.0);
  EXPECT_EQ(mode.count, 10u);
  EXPECT_NEAR(mode.probability, 10.0 / 13.0, 1e-12);
}

TEST(Histogram, MassIn) {
  Histogram h(10.0);
  for (int i = 0; i < 8; ++i) h.add(15.0);  // bin [10,20)
  for (int i = 0; i < 2; ++i) h.add(55.0);  // bin [50,60)
  EXPECT_NEAR(h.mass_in(10.0, 20.0), 0.8, 1e-12);
  EXPECT_NEAR(h.mass_in(0.0, 100.0), 1.0, 1e-12);
  EXPECT_NEAR(h.mass_in(20.0, 50.0), 0.0, 1e-12);
}

TEST(Histogram, CustomOrigin) {
  Histogram h(10.0, 5.0);  // bins [5,15), [15,25), ...
  h.add(5.0);
  h.add(14.9);
  h.add(15.0);
  const auto bins = h.bins();
  ASSERT_EQ(bins.size(), 2u);
  EXPECT_DOUBLE_EQ(bins[0].lower, 5.0);
  EXPECT_EQ(bins[0].count, 2u);
  EXPECT_EQ(bins[1].count, 1u);
}

TEST(Histogram, CentersAreMidBin) {
  Histogram h(100.0);
  h.add(50.0);
  EXPECT_DOUBLE_EQ(h.bins()[0].center, 50.0);
}

TEST(EmpiricalCdf, StepFunctionProperties) {
  const auto cdf = empirical_cdf({3.0, 1.0, 2.0, 2.0});
  // Duplicates collapse: x=2 appears once with cumulative probability.
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].x, 1.0);
  EXPECT_DOUBLE_EQ(cdf[0].p, 0.25);
  EXPECT_DOUBLE_EQ(cdf[1].x, 2.0);
  EXPECT_DOUBLE_EQ(cdf[1].p, 0.75);
  EXPECT_DOUBLE_EQ(cdf[2].x, 3.0);
  EXPECT_DOUBLE_EQ(cdf[2].p, 1.0);
}

TEST(EmpiricalCdf, MonotoneNonDecreasing) {
  Rng rng(5);
  std::vector<double> values(500);
  for (auto& v : values) v = rng.normal();
  const auto cdf = empirical_cdf(values);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GT(cdf[i].x, cdf[i - 1].x);
    EXPECT_GT(cdf[i].p, cdf[i - 1].p);
  }
  EXPECT_DOUBLE_EQ(cdf.back().p, 1.0);
}

TEST(EmpiricalCdf, EmptyInput) {
  EXPECT_TRUE(empirical_cdf({}).empty());
}

TEST(CdfAtQuantiles, EvenSpacing) {
  std::vector<double> values;
  for (int i = 0; i <= 100; ++i) values.push_back(static_cast<double>(i));
  const auto pts = cdf_at_quantiles(values, 11);
  ASSERT_EQ(pts.size(), 11u);
  EXPECT_DOUBLE_EQ(pts[0].p, 0.0);
  EXPECT_DOUBLE_EQ(pts[10].p, 1.0);
  EXPECT_NEAR(pts[5].x, 50.0, 1e-9);
}

TEST(Cdf, QuantilesMatchQuantilePointForPoint) {
  // cdf_at_quantiles sorts once and interpolates every point; each point
  // must carry the very bits quantile() gives for its level.
  Rng rng(20020501);
  std::vector<std::vector<double>> samples = {{3.5}, {2.0, -1.0}, {7.0, 7.0}};
  for (const std::size_t n : {3u, 10u, 57u, 1000u}) {
    std::vector<double> normal;
    std::vector<double> duplicates;  // few distinct values, many repeats
    for (std::size_t i = 0; i < n; ++i) {
      normal.push_back(rng.normal(1.0, 0.3));
      duplicates.push_back(static_cast<double>(rng.uniform_int(0, 4)) * 0.25);
    }
    samples.push_back(normal);
    samples.push_back(duplicates);
  }
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const auto& values : samples) {
    for (int points = 2; points <= 41; ++points) {
      const auto cdf = cdf_at_quantiles(values, points);
      ASSERT_EQ(cdf.size(), static_cast<std::size_t>(points));
      for (int i = 0; i < points; ++i) {
        const double p = static_cast<double>(i) / (points - 1);
        EXPECT_EQ(bits(cdf[i].p), bits(p)) << values.size() << " values, " << points << " points";
        EXPECT_EQ(bits(cdf[i].x), bits(quantile(values, p)))
            << values.size() << " values, point " << i << " of " << points;
      }
    }
  }
}

}  // namespace
}  // namespace streamlab
