// Tests for simulation statistics: distributions and fairness.
#include <gtest/gtest.h>

#include "shg/sim/stats.hpp"

namespace shg::sim {
namespace {

TEST(Distribution, MeanMax) {
  Distribution d;
  for (double x : {4.0, 1.0, 3.0, 2.0}) d.add(x);
  EXPECT_DOUBLE_EQ(d.mean(), 2.5);
  EXPECT_DOUBLE_EQ(d.max(), 4.0);
  EXPECT_EQ(d.count(), 4u);
}

TEST(Distribution, PercentilesNearestRank) {
  Distribution d;
  for (int i = 1; i <= 100; ++i) d.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(d.percentile(0.50), 50.0);
  EXPECT_DOUBLE_EQ(d.percentile(0.95), 95.0);
  EXPECT_DOUBLE_EQ(d.percentile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(d.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(d.percentile(1.0), 100.0);
}

TEST(Distribution, PercentileAfterMoreSamples) {
  // The lazily sorted cache must refresh when samples are added.
  Distribution d;
  d.add(1.0);
  EXPECT_DOUBLE_EQ(d.percentile(1.0), 1.0);
  d.add(10.0);
  EXPECT_DOUBLE_EQ(d.percentile(1.0), 10.0);
}

TEST(Distribution, EmptyThrows) {
  Distribution d;
  EXPECT_TRUE(d.empty());
  EXPECT_THROW(d.mean(), Error);
  EXPECT_THROW(d.percentile(0.5), Error);
  d.add(1.0);
  EXPECT_THROW(d.percentile(1.5), Error);
}

TEST(Distribution, CapFoldsIntoBins) {
  Distribution d(/*sample_cap=*/8);
  for (int i = 1; i <= 8; ++i) d.add(static_cast<double>(i));
  EXPECT_FALSE(d.binned());
  d.add(9.0);  // crosses the cap
  EXPECT_TRUE(d.binned());
  EXPECT_EQ(d.count(), 9u);
  // Golden values for 1..9: binned summaries must equal the exact ones.
  EXPECT_DOUBLE_EQ(d.mean(), 5.0);
  EXPECT_DOUBLE_EQ(d.max(), 9.0);
  EXPECT_DOUBLE_EQ(d.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(d.percentile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(d.percentile(1.0), 9.0);
}

TEST(Distribution, BinnedMatchesExactOnIntegerSamples) {
  // Packet latencies are integer cycle counts: every summary the simulator
  // reports must agree between a capped and an uncapped distribution.
  Distribution exact;           // default cap, never folds at this size
  Distribution capped(/*sample_cap=*/0);  // bins from the first sample
  for (int i = 0; i < 1000; ++i) {
    const double sample = static_cast<double>((i * 37) % 211 + 3);
    exact.add(sample);
    capped.add(sample);
  }
  EXPECT_TRUE(capped.binned());
  EXPECT_FALSE(exact.binned());
  EXPECT_DOUBLE_EQ(capped.mean(), exact.mean());
  EXPECT_DOUBLE_EQ(capped.max(), exact.max());
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(capped.percentile(q), exact.percentile(q)) << q;
  }
}

TEST(Distribution, OverflowBucketReportsMax) {
  Distribution d(/*sample_cap=*/0);
  d.add(1.0);
  d.add(2.0);
  const double huge = static_cast<double>(Distribution::kMaxTrackedValue) * 4;
  d.add(huge);
  EXPECT_DOUBLE_EQ(d.max(), huge);
  // The overflow rank resolves to the exact max, not a bucket edge.
  EXPECT_DOUBLE_EQ(d.percentile(1.0), huge);
  EXPECT_DOUBLE_EQ(d.percentile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(d.mean(), (1.0 + 2.0 + huge) / 3.0);
}

TEST(Distribution, MeanIsInsertionOrderSumAfterFold) {
  // The fold re-accumulates sum_ in insertion order, so mean() must be
  // bit-identical (==, not near) to the unbounded accumulate over the same
  // sequence — the property the bit-identity suite relies on.
  std::vector<double> samples;
  for (int i = 0; i < 64; ++i) {
    samples.push_back(static_cast<double>((i * 7919) % 101) + 0.0);
  }
  Distribution capped(/*sample_cap=*/16);
  double sum = 0.0;
  for (double s : samples) {
    capped.add(s);
    sum += s;
  }
  EXPECT_TRUE(capped.binned());
  EXPECT_EQ(capped.mean(), sum / static_cast<double>(samples.size()));
}

TEST(Fairness, PerfectlyFair) {
  EXPECT_DOUBLE_EQ(fairness_ratio({5.0, 5.0, 5.0}), 1.0);
}

TEST(Fairness, StarvedSourceShowsUp) {
  // One source sees 4x the latency of the others.
  const double ratio = fairness_ratio({10.0, 10.0, 40.0, 10.0});
  EXPECT_NEAR(ratio, 40.0 / 17.5, 1e-12);
}

TEST(Fairness, Validation) {
  EXPECT_THROW(fairness_ratio({}), Error);
  EXPECT_THROW(fairness_ratio({-1.0}), Error);
}

TEST(Fairness, AllZeroMeansArePerfectlyFair) {
  // Degenerate empty-measurement corner: every source saw identical (zero)
  // service, so aggregation must get 1.0 instead of a trap.
  EXPECT_DOUBLE_EQ(fairness_ratio({0.0, 0.0}), 1.0);
  EXPECT_DOUBLE_EQ(fairness_ratio({0.0}), 1.0);
}

}  // namespace
}  // namespace shg::sim
