// Tests for the five-step cost model (Section IV-B): invariants, formula
// cross-checks and the qualitative orderings the paper's design principles
// predict.
#include <gtest/gtest.h>

#include "shg/model/cost_model.hpp"
#include "shg/phys/global_route.hpp"
#include "shg/tech/presets.hpp"
#include "shg/topo/generators.hpp"

namespace shg::model {
namespace {

using tech::ArchParams;
using tech::KncScenario;
using tech::knc_scenario;

TEST(CostModel, RejectsMismatchedGrid) {
  const ArchParams arch = knc_scenario(KncScenario::kA);  // 8x8
  EXPECT_THROW(evaluate_cost(arch, topo::make_mesh(4, 4)), Error);
}

TEST(CostModel, BasicInvariants) {
  const ArchParams arch = knc_scenario(KncScenario::kA);
  const CostReport report = evaluate_cost(arch, topo::make_mesh(8, 8));
  EXPECT_GT(report.router_area_ge, 0.0);
  EXPECT_NEAR(report.tile_area_ge,
              arch.endpoint_area_ge + report.router_area_ge, 1e-6);
  EXPECT_GT(report.tile_w_mm, 0.0);
  EXPECT_GT(report.tile_h_mm, 0.0);
  EXPECT_NEAR(report.noc_area_mm2,
              report.total_area_mm2 - report.base_area_mm2, 1e-9);
  EXPECT_GT(report.area_overhead, 0.0);
  EXPECT_LT(report.area_overhead, 1.0);
  EXPECT_NEAR(report.noc_power_w,
              report.total_power_w - report.base_power_w, 1e-9);
  EXPECT_NEAR(report.noc_power_w,
              report.router_power_w + report.wire_power_w, 1e-9);
  EXPECT_EQ(report.links.size(),
            static_cast<std::size_t>(topo::make_mesh(8, 8).graph().num_edges()));
}

TEST(CostModel, BaseAreaIndependentOfTopology) {
  const ArchParams arch = knc_scenario(KncScenario::kA);
  const CostReport mesh = evaluate_cost(arch, topo::make_mesh(8, 8));
  const CostReport fb =
      evaluate_cost(arch, topo::make_flattened_butterfly(8, 8));
  EXPECT_NEAR(mesh.base_area_mm2, fb.base_area_mm2, 1e-9);
  EXPECT_NEAR(mesh.base_area_mm2,
              arch.tech.ge_to_mm2(64 * arch.endpoint_area_ge), 1e-9);
}

TEST(CostModel, TileAspectRatioRespected) {
  ArchParams arch = knc_scenario(KncScenario::kA);
  arch.tile_aspect_ratio = 2.0;  // height : width
  const CostReport report = evaluate_cost(arch, topo::make_mesh(8, 8));
  EXPECT_NEAR(report.tile_h_mm / report.tile_w_mm, 2.0, 1e-9);
}

TEST(CostModel, MinimumLinkLatencyIsOneCycle) {
  const ArchParams arch = knc_scenario(KncScenario::kA);
  const CostReport report = evaluate_cost(arch, topo::make_mesh(8, 8));
  for (const LinkCost& link : report.links) {
    EXPECT_GE(link.latency_cycles, 1);
    EXPECT_GE(static_cast<double>(link.latency_cycles),
              link.latency_cycles_exact - 1e-9);
  }
}

TEST(CostModel, MeshLinkLatencyMatchesTilePitch) {
  const ArchParams arch = knc_scenario(KncScenario::kA);
  const CostReport report = evaluate_cost(arch, topo::make_mesh(8, 8));
  // A 35 MGE tile is ~2.68 mm wide; a neighbor link spans one tile pitch,
  // well within one 1.2 GHz cycle at 150 ps/mm.
  for (const LinkCost& link : report.links) {
    EXPECT_NEAR(link.length_mm, report.tile_w_mm, 0.2);
    EXPECT_EQ(link.latency_cycles, 1);
  }
}

TEST(CostModel, LongLinksAreSlower) {
  const ArchParams arch = knc_scenario(KncScenario::kA);
  const auto topo = topo::make_flattened_butterfly(8, 8);
  const CostReport report = evaluate_cost(arch, topo);
  double max_latency = 0.0;
  for (const LinkCost& link : report.links) {
    max_latency = std::max(max_latency, link.latency_cycles_exact);
  }
  // A 7-tile link (~19 mm) takes multiple cycles at 1.2 GHz / 150 ps/mm.
  EXPECT_GT(max_latency, 2.0);
}

TEST(CostModel, DesignPrincipleCostOrdering) {
  // Principle #1/#2: higher radix and longer links => more area and power.
  const ArchParams arch = knc_scenario(KncScenario::kA);
  const CostReport ring = evaluate_cost(arch, topo::make_ring(8, 8));
  const CostReport mesh = evaluate_cost(arch, topo::make_mesh(8, 8));
  const CostReport shg =
      evaluate_cost(arch, topo::make_sparse_hamming(8, 8, {4}, {2, 5}));
  const CostReport fb =
      evaluate_cost(arch, topo::make_flattened_butterfly(8, 8));
  EXPECT_LT(ring.area_overhead, mesh.area_overhead + 1e-12);
  EXPECT_LT(mesh.area_overhead, shg.area_overhead);
  EXPECT_LT(shg.area_overhead, fb.area_overhead);
  EXPECT_LT(mesh.noc_power_w, fb.noc_power_w);
}

TEST(CostModel, ShgCostGrowsMonotonicallyWithSkips) {
  const ArchParams arch = knc_scenario(KncScenario::kA);
  double prev_overhead = -1.0;
  for (const auto& skips : {std::set<int>{}, {4}, {2, 4}, {2, 4, 6}}) {
    const CostReport report =
        evaluate_cost(arch, topo::make_sparse_hamming(8, 8, skips, skips));
    EXPECT_GT(report.area_overhead, prev_overhead);
    prev_overhead = report.area_overhead;
  }
}

TEST(CostModel, SlimNocPaysForNonUniformDensity) {
  // SlimNoC has a similar bisection-class connectivity to the flattened
  // butterfly's rows but concentrates wires (ULD violation): its area
  // overhead must be substantial, and well above the mesh.
  const ArchParams arch = knc_scenario(KncScenario::kC);  // 8x16
  const CostReport slim = evaluate_cost(arch, topo::make_slim_noc(8, 16));
  const CostReport mesh = evaluate_cost(arch, topo::make_mesh(8, 16));
  EXPECT_GT(slim.area_overhead, 2.0 * mesh.area_overhead);
}

TEST(CostModel, CollisionsAreRare) {
  const ArchParams arch = knc_scenario(KncScenario::kA);
  const CostReport report =
      evaluate_cost(arch, topo::make_flattened_butterfly(8, 8));
  EXPECT_LT(static_cast<double>(report.collision_cells),
            0.05 * static_cast<double>(report.h_cells + report.v_cells));
}

TEST(CostModel, LinkLatenciesVectorMatches) {
  const ArchParams arch = knc_scenario(KncScenario::kA);
  const CostReport report = evaluate_cost(arch, topo::make_torus(8, 8));
  const auto latencies = report.link_latencies();
  ASSERT_EQ(latencies.size(), report.links.size());
  for (std::size_t i = 0; i < latencies.size(); ++i) {
    EXPECT_EQ(latencies[i], report.links[i].latency_cycles);
  }
}

/// Per-channel peaks of a routing, the step-2 summary the peaks overload
/// takes.
void channel_peaks(const phys::GlobalRoutingResult& loads,
                   std::vector<int>* h_peaks, std::vector<int>* v_peaks) {
  h_peaks->clear();
  v_peaks->clear();
  for (int i = 0; i < static_cast<int>(loads.h_loads.size()); ++i) {
    h_peaks->push_back(loads.max_h_load(i));
  }
  for (int j = 0; j < static_cast<int>(loads.v_loads.size()); ++j) {
    v_peaks->push_back(loads.max_v_load(j));
  }
}

TEST(ScreeningCost, PeaksOverloadMatchesTopologyOverload) {
  // The radix + channel-peaks entry must reproduce the topology entry bit
  // for bit — it runs the same step 1/3/4 arithmetic on the same peaks.
  // kA is the 8x8 grid; kC (8x16 = 128 tiles = 2 * 8^2) admits a SlimNoC,
  // whose diagonal links load both orientations at once.
  struct Case {
    tech::ArchParams arch;
    topo::Topology topo;
  };
  const Case cases[] = {
      {tech::knc_scenario(tech::KncScenario::kA),
       topo::make_sparse_hamming(8, 8, {3, 6}, {4})},
      {tech::knc_scenario(tech::KncScenario::kA),
       topo::make_sparse_hamming(8, 8, {}, {})},
      {tech::knc_scenario(tech::KncScenario::kC),
       topo::make_sparse_hamming(8, 16, {5, 11}, {2})},
      {tech::knc_scenario(tech::KncScenario::kC),
       topo::make_slim_noc(8, 16)},
  };
  for (const auto& [arch, topo] : cases) {
    const ScreeningCost from_topo = evaluate_screening_cost(arch, topo);
    std::vector<int> h_peaks, v_peaks;
    channel_peaks(phys::global_route_loads(topo), &h_peaks, &v_peaks);
    const ScreeningCost from_peaks =
        evaluate_screening_cost(arch, topo.radix(), h_peaks, v_peaks);
    EXPECT_EQ(from_topo.total_area_mm2, from_peaks.total_area_mm2);
    EXPECT_EQ(from_topo.base_area_mm2, from_peaks.base_area_mm2);
    EXPECT_EQ(from_topo.noc_area_mm2, from_peaks.noc_area_mm2);
    EXPECT_EQ(from_topo.area_overhead, from_peaks.area_overhead);

    // A tile-geometry cache warmed by one entry must not change the bits
    // of the other.
    TileGeometryCache cache;
    const ScreeningCost cached1 =
        evaluate_screening_cost(arch, topo.radix(), h_peaks, v_peaks, &cache);
    const ScreeningCost cached2 =
        evaluate_screening_cost(arch, topo.radix(), h_peaks, v_peaks, &cache);
    EXPECT_EQ(cached1.area_overhead, from_topo.area_overhead);
    EXPECT_EQ(cached2.area_overhead, from_topo.area_overhead);
  }
}

TEST(ScreeningCost, PeaksOverloadRejectsMismatchedProfiles) {
  tech::ArchParams arch = tech::knc_scenario(tech::KncScenario::kA);
  const auto topo = topo::make_mesh(arch.rows - 1, arch.cols);
  std::vector<int> h_peaks, v_peaks;
  channel_peaks(phys::global_route_loads(topo), &h_peaks, &v_peaks);
  EXPECT_THROW(evaluate_screening_cost(arch, topo.radix(), h_peaks, v_peaks),
               Error);
  // Swapped axes on a non-square grid do not fit either.
  arch.rows = 4;
  arch.cols = 6;
  channel_peaks(phys::global_route_loads(topo::make_mesh(4, 6)), &h_peaks,
                &v_peaks);
  EXPECT_NO_THROW(evaluate_screening_cost(arch, 4, h_peaks, v_peaks));
  EXPECT_THROW(evaluate_screening_cost(arch, 4, v_peaks, h_peaks), Error);
}

}  // namespace
}  // namespace shg::model
