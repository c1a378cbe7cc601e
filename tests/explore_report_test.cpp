// Tests for the design-space explorer (SHG vs Ruche).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "shg/common/prng.hpp"
#include "shg/customize/explore.hpp"
#include "shg/tech/presets.hpp"
#include "shg/topo/generators.hpp"

namespace shg::customize {
namespace {

tech::ArchParams arch_a() {
  return tech::knc_scenario(tech::KncScenario::kA);
}

TEST(Explore, ShgEnumerationCounts) {
  ExploreOptions options;
  options.max_row_skips = 1;
  options.max_col_skips = 1;
  // SR: {} plus {x} for x in 2..7 -> 7 choices; same for SC: 49 configs.
  const auto points = explore_shg(arch_a(), options);
  EXPECT_EQ(points.size(), 49u);
}

TEST(Explore, RucheEnumerationCounts) {
  ExploreOptions options;
  // rx in {0, 2..7} (7 choices) x ry in {0, 2..7} (7 choices).
  const auto points = explore_ruche(arch_a(), options);
  EXPECT_EQ(points.size(), 49u);
}

TEST(Explore, RucheIsSubsetOfShg) {
  // With one skip per dimension the two enumerations screen identical
  // topologies, so every Ruche point must appear among SHG points.
  ExploreOptions options;
  options.max_row_skips = 1;
  options.max_col_skips = 1;
  const auto shg = explore_shg(arch_a(), options);
  const auto ruche = explore_ruche(arch_a(), options);
  for (const auto& rp : ruche) {
    bool found = false;
    for (const auto& sp : shg) {
      if (sp.params == rp.params) {
        EXPECT_NEAR(sp.metrics.area_overhead, rp.metrics.area_overhead,
                    1e-12);
        EXPECT_NEAR(sp.metrics.throughput_bound, rp.metrics.throughput_bound,
                    1e-12);
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << rp.label;
  }
}

TEST(Explore, ShgFrontCoversAtLeastRuche) {
  // The Section VI claim, quantified: a superset family can only reach a
  // front coverage >= its subset's.
  ExploreOptions options;
  options.max_row_skips = 2;
  options.max_col_skips = 2;
  const auto shg_front = trade_off_front(explore_shg(arch_a(), options));
  const auto ruche_front = trade_off_front(explore_ruche(arch_a(), options));
  EXPECT_GE(front_coverage(shg_front, 0.40),
            front_coverage(ruche_front, 0.40) - 1e-12);
  // And with two skips per dimension it is strictly richer.
  EXPECT_GT(front_coverage(shg_front, 0.40),
            front_coverage(ruche_front, 0.40) * 1.02);
}

TEST(Explore, FrontIsNonDominatedAndSorted) {
  ExploreOptions options;
  options.max_row_skips = 1;
  options.max_col_skips = 1;
  const auto front = trade_off_front(explore_shg(arch_a(), options));
  ASSERT_GE(front.size(), 2u);
  for (std::size_t i = 1; i < front.size(); ++i) {
    EXPECT_GE(front[i].metrics.area_overhead,
              front[i - 1].metrics.area_overhead);
  }
  for (const auto& a : front) {
    for (const auto& b : front) {
      if (&a == &b) continue;
      const bool dominates =
          a.metrics.area_overhead <= b.metrics.area_overhead &&
          a.metrics.throughput_bound >= b.metrics.throughput_bound &&
          a.metrics.avg_hops <= b.metrics.avg_hops &&
          (a.metrics.area_overhead < b.metrics.area_overhead ||
           a.metrics.throughput_bound > b.metrics.throughput_bound ||
           a.metrics.avg_hops < b.metrics.avg_hops);
      EXPECT_FALSE(dominates);
    }
  }
}

/// The definition: a point is on the front unless some point is no worse
/// in all three metrics and strictly better in one (all pairs compared),
/// kept in input order, then sorted by area overhead.
std::vector<ExploredPoint> brute_force_front(
    const std::vector<ExploredPoint>& points) {
  std::vector<ExploredPoint> front;
  for (const auto& candidate : points) {
    bool dominated = false;
    for (const auto& other : points) {
      const CandidateMetrics& a = other.metrics;
      const CandidateMetrics& b = candidate.metrics;
      if (a.area_overhead <= b.area_overhead &&
          a.throughput_bound >= b.throughput_bound &&
          a.avg_hops <= b.avg_hops &&
          (a.area_overhead < b.area_overhead ||
           a.throughput_bound > b.throughput_bound ||
           a.avg_hops < b.avg_hops)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) front.push_back(candidate);
  }
  std::sort(front.begin(), front.end(),
            [](const ExploredPoint& a, const ExploredPoint& b) {
              return a.metrics.area_overhead < b.metrics.area_overhead;
            });
  return front;
}

TEST(Explore, FrontMatchesBruteForceDefinition) {
  // Metrics drawn from a few levels each, so ties in one or two metrics and
  // whole duplicate points are common; unique labels pin the output order.
  Prng prng(0xf207u);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = prng.range(0, 120);
    const int levels = prng.range(1, 6);
    std::vector<ExploredPoint> points(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      ExploredPoint& p = points[static_cast<std::size_t>(i)];
      p.metrics.area_overhead = 0.05 * prng.range(0, levels);
      p.metrics.throughput_bound = 0.25 * prng.range(0, levels);
      p.metrics.avg_hops = 1.0 + 0.5 * prng.range(0, levels);
      if (i > 0 && prng.chance(0.1)) {
        p.metrics = points[static_cast<std::size_t>(prng.range(0, i - 1))]
                        .metrics;
      }
      p.label = "p" + std::to_string(i);
    }
    const std::vector<ExploredPoint> want = brute_force_front(points);
    const std::vector<ExploredPoint> got = trade_off_front(points);
    ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].label, want[i].label) << "trial " << trial;
      EXPECT_EQ(got[i].metrics, want[i].metrics) << "trial " << trial;
    }
  }
}

TEST(Explore, CoverageStaircase) {
  // Hand-built front: bound 1.0 from overhead 0.1, bound 2.0 from 0.3.
  std::vector<ExploredPoint> front(2);
  front[0].metrics.area_overhead = 0.1;
  front[0].metrics.throughput_bound = 1.0;
  front[1].metrics.area_overhead = 0.3;
  front[1].metrics.throughput_bound = 2.0;
  // Integral over [0, 0.4]: 0 * 0.1 + 1.0 * 0.2 + 2.0 * 0.1 = 0.4.
  EXPECT_NEAR(front_coverage(front, 0.40), 0.4, 1e-12);
  EXPECT_THROW(front_coverage(front, 0.0), Error);
}

}  // namespace
}  // namespace shg::customize
