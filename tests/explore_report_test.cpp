// Tests for the design-space explorer (SHG vs Ruche).
#include <gtest/gtest.h>

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
