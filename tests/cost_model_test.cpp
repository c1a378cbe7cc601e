// Tests for the five-step cost model (Section IV-B): invariants, formula
// cross-checks and the qualitative orderings the paper's design principles
// predict.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>

#include "golden.hpp"
#include "shg/eval/scenario.hpp"
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

/// Per-channel peaks of a routing, the step-2 summary AxisSpacing prices.
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

TEST(ScreeningCost, AxisOverloadMatchesTopologyOverload) {
  // The radix + per-axis spacing entry must reproduce the topology entry
  // bit for bit: the topology entry runs through it on the same peaks.
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
    const AxisSpacing h(arch, true, h_peaks);
    const AxisSpacing v(arch, false, v_peaks);
    const ScreeningCost from_axes =
        evaluate_screening_cost(arch, topo.radix(), h, v);
    EXPECT_EQ(from_topo.total_area_mm2, from_axes.total_area_mm2);
    EXPECT_EQ(from_topo.base_area_mm2, from_axes.base_area_mm2);
    EXPECT_EQ(from_topo.noc_area_mm2, from_axes.noc_area_mm2);
    EXPECT_EQ(from_topo.area_overhead, from_axes.area_overhead);
    // The extents are the full model's chip dimensions.
    const CostReport report = evaluate_cost(arch, topo);
    EXPECT_EQ(phys::stacked_extent(h.spacing(), report.tile_h_mm),
              report.chip_height_mm);
    EXPECT_EQ(phys::stacked_extent(v.spacing(), report.tile_w_mm),
              report.chip_width_mm);
    EXPECT_EQ(h.peak_load(), report.peak_h_channel_load);
    EXPECT_EQ(v.peak_load(), report.peak_v_channel_load);

    // A tile-geometry cache warmed by one call
    // must not change the bits of the next.
    TileGeometryCache cache;
    const ScreeningCost cached1 =
        evaluate_screening_cost(arch, topo.radix(), h, v, &cache);
    const ScreeningCost cached2 =
        evaluate_screening_cost(arch, topo.radix(), h, v, &cache);
    EXPECT_EQ(cached1.area_overhead, from_topo.area_overhead);
    EXPECT_EQ(cached2.area_overhead, from_topo.area_overhead);
  }
}

TEST(ScreeningCost, AxisOverloadRejectsMismatchedProfiles) {
  tech::ArchParams arch = tech::knc_scenario(tech::KncScenario::kA);
  const auto topo = topo::make_mesh(arch.rows - 1, arch.cols);
  std::vector<int> h_peaks, v_peaks;
  channel_peaks(phys::global_route_loads(topo), &h_peaks, &v_peaks);
  EXPECT_THROW(AxisSpacing(arch, true, h_peaks), Error);
  EXPECT_THROW(evaluate_screening_cost(arch, topo.radix(), AxisSpacing(),
                                       AxisSpacing(arch, false, v_peaks)),
               Error);
  // Swapped axes on a non-square grid do not fit either.
  arch.rows = 4;
  arch.cols = 6;
  channel_peaks(phys::global_route_loads(topo::make_mesh(4, 6)), &h_peaks,
                &v_peaks);
  const AxisSpacing h(arch, true, h_peaks);
  const AxisSpacing v(arch, false, v_peaks);
  EXPECT_NO_THROW(evaluate_screening_cost(arch, 4, h, v));
  EXPECT_THROW(AxisSpacing(arch, true, v_peaks), Error);
  EXPECT_THROW(AxisSpacing(arch, false, h_peaks), Error);
  EXPECT_THROW(evaluate_screening_cost(arch, 4, v, h), Error);
}

// ---- Golden cost reports ---------------------------------------------------
// Every CostReport scalar of a set of topologies, kept as data in
// tests/golden/cost_reports.txt (see tests/golden.hpp). One line per case:
//
//   <key> peak_h peak_v h_cells v_cells collision_cells links
//         latency_digest length_digest <19 doubles>
//
// The digests are FNV-1a over link_latencies() and over the bit patterns of
// every link's length_mm; the doubles follow CostReport's declaration order.

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (8 * byte)) & 0xffu;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string report_fields(const CostReport& r) {
  std::uint64_t latency_digest = 0xcbf29ce484222325ull;
  for (const int latency : r.link_latencies()) {
    latency_digest = fnv1a(latency_digest, static_cast<std::uint64_t>(latency));
  }
  std::uint64_t length_digest = 0xcbf29ce484222325ull;
  for (const LinkCost& link : r.links) {
    length_digest =
        fnv1a(length_digest, std::bit_cast<std::uint64_t>(link.length_mm));
  }
  std::ostringstream out;
  out << r.peak_h_channel_load << ' ' << r.peak_v_channel_load << ' '
      << r.h_cells << ' ' << r.v_cells << ' ' << r.collision_cells << ' '
      << r.links.size() << ' ' << golden::hex(latency_digest) << ' '
      << golden::hex(length_digest);
  for (const double v :
       {r.router_area_ge, r.tile_area_ge, r.tile_w_mm, r.tile_h_mm,
        r.cell_w_mm, r.cell_h_mm, r.chip_width_mm, r.chip_height_mm,
        r.total_area_mm2, r.base_area_mm2, r.noc_area_mm2, r.area_overhead,
        r.total_power_w, r.base_power_w, r.noc_power_w, r.router_power_w,
        r.wire_power_w, r.avg_link_latency_cycles,
        r.max_link_latency_cycles}) {
    out << ' ' << golden::bits(v);
  }
  return out.str();
}

void expect_golden_report(const std::string& label, const ArchParams& arch,
                          const topo::Topology& topo) {
  golden::expect_line("cost_reports.txt", label,
                      report_fields(evaluate_cost(arch, topo)));
}

/// Scenario-a parameters on an n x n grid.
ArchParams scenario_a_grid(int n) {
  ArchParams arch = knc_scenario(KncScenario::kA);
  arch.rows = n;
  arch.cols = n;
  return arch;
}

TEST(CostReportGolden, Figure6Topologies) {
  for (const eval::Scenario& scenario : eval::figure6_scenarios()) {
    for (const topo::Topology& topo : eval::scenario_topologies(scenario)) {
      expect_golden_report(scenario.label + " " + golden::topo_label(topo),
                           scenario.arch, topo);
    }
  }
}

TEST(CostReportGolden, LargerGrids) {
  for (const int n : {16, 24}) {
    const ArchParams arch = scenario_a_grid(n);
    const topo::Topology topologies[] = {
        topo::make_mesh(n, n),
        n == 16 ? topo::make_sparse_hamming(n, n, {2, 6}, {3, 9})
                : topo::make_sparse_hamming(n, n, {2, 5, 12}, {3, 11}),
        topo::make_torus(n, n),
        topo::make_flattened_butterfly(n, n),
    };
    for (const topo::Topology& topo : topologies) {
      expect_golden_report(golden::topo_label(topo), arch, topo);
    }
  }
}

TEST(CostReportGolden, LargeCellGrids) {
  // Unit-cell grids of 9.4M (48x48) and 18.2M (64x64) cells; the 24x24
  // flattened butterfly above has 24.9M. Step 5 must count them exactly
  // without holding state per cell.
  expect_golden_report("48x48", scenario_a_grid(48),
                       topo::make_sparse_hamming(48, 48, {2, 5, 24}, {3, 47}));
  expect_golden_report("64x64", scenario_a_grid(64),
                       topo::make_sparse_hamming(64, 64, {2, 5, 32}, {3, 63}));
}

}  // namespace
}  // namespace shg::model
