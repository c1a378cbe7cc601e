// Tests for the physical model substrate: floorplan geometry, global
// routing and detailed routing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "shg/common/prng.hpp"
#include "shg/model/cost_model.hpp"
#include "shg/phys/detailed_route.hpp"
#include "shg/phys/floorplan.hpp"
#include "shg/phys/global_route.hpp"
#include "shg/tech/presets.hpp"
#include "shg/topo/generators.hpp"

namespace shg::phys {
namespace {

Floorplan tiny_plan() {
  // 2x2 grid of 1x1 mm tiles with channels 0.1/0.2/0.3 horizontal and
  // 0.05/0.15/0.25 vertical; 10 um cells.
  return Floorplan(2, 2, 1.0, 1.0, {0.1, 0.2, 0.3}, {0.05, 0.15, 0.25},
                   0.01, 0.01);
}

TEST(Floorplan, PrefixGeometry) {
  const Floorplan plan = tiny_plan();
  EXPECT_DOUBLE_EQ(plan.chan_h_top(0), 0.0);
  EXPECT_DOUBLE_EQ(plan.row_top(0), 0.1);
  EXPECT_DOUBLE_EQ(plan.chan_h_top(1), 1.1);
  EXPECT_DOUBLE_EQ(plan.row_top(1), 1.3);
  EXPECT_DOUBLE_EQ(plan.chan_h_top(2), 2.3);
  EXPECT_DOUBLE_EQ(plan.chip_height(), 2.6);

  EXPECT_DOUBLE_EQ(plan.chan_v_left(0), 0.0);
  EXPECT_DOUBLE_EQ(plan.col_left(0), 0.05);
  EXPECT_DOUBLE_EQ(plan.chan_v_left(1), 1.05);
  EXPECT_DOUBLE_EQ(plan.col_left(1), 1.2);
  EXPECT_DOUBLE_EQ(plan.chip_width(), 2.45);
}

TEST(Floorplan, TileCenter) {
  const Floorplan plan = tiny_plan();
  const PointMM c = plan.tile_center(0, 0);
  EXPECT_DOUBLE_EQ(c.x, 0.55);
  EXPECT_DOUBLE_EQ(c.y, 0.6);
}

TEST(Floorplan, RejectsBadSpacingCounts) {
  EXPECT_THROW(Floorplan(2, 2, 1.0, 1.0, {0.1, 0.2}, {0.0, 0.0, 0.0}, 0.01,
                         0.01),
               Error);
  EXPECT_THROW(Floorplan(2, 2, 1.0, 1.0, {0.1, 0.2, -0.1}, {0.0, 0.0, 0.0},
                         0.01, 0.01),
               Error);
}

TEST(GlobalRoute, MeshIsAllStraight) {
  const auto topo = topo::make_mesh(4, 4);
  const GlobalRoutingResult result = global_route(topo);
  for (const auto& route : result.routes) {
    EXPECT_TRUE(route.straight);
    EXPECT_TRUE(route.spans.empty());
  }
  // Unit links occupy no channel capacity at all.
  for (int i = 0; i <= 4; ++i) {
    EXPECT_EQ(result.max_h_load(i), 0);
    EXPECT_EQ(result.max_v_load(i), 0);
  }
}

TEST(GlobalRoute, TorusWrapsSpreadOverChannels) {
  const auto topo = topo::make_torus(4, 4);
  const GlobalRoutingResult result = global_route(topo);
  int total_h = 0;
  int total_v = 0;
  for (int i = 0; i <= 4; ++i) {
    EXPECT_LE(result.max_h_load(i), 1) << "channel " << i;
    EXPECT_LE(result.max_v_load(i), 1) << "channel " << i;
    total_h += result.max_h_load(i);
    total_v += result.max_v_load(i);
  }
  // 4 row wraps and 4 column wraps must all be placed.
  EXPECT_EQ(total_h, 4);
  EXPECT_EQ(total_v, 4);
}

TEST(GlobalRoute, ShgSkipLoadsAreBalanced) {
  // Row skips of 4 on an 8x8 grid: 4 spans per row, all overlapping at the
  // center columns, so 32 spans over 9 channels cannot beat a peak of
  // ceil(32/9) = 4 — the greedy router must reach that optimum and must
  // spread load over many channels instead of piling onto one per row.
  const auto topo = topo::make_sparse_hamming(8, 8, {4}, {});
  const GlobalRoutingResult result = global_route(topo);
  int peak = 0;
  int used_channels = 0;
  for (int i = 0; i <= 8; ++i) {
    peak = std::max(peak, result.max_h_load(i));
    if (result.max_h_load(i) > 0) ++used_channels;
    EXPECT_EQ(result.max_v_load(i), 0);
  }
  EXPECT_EQ(peak, 4);
  EXPECT_GE(used_channels, 8);
}

TEST(GlobalRoute, DiagonalLinksGetLRoutes) {
  const auto topo = topo::make_slim_noc(5, 10);
  const GlobalRoutingResult result = global_route(topo);
  bool saw_l_route = false;
  for (graph::EdgeId e = 0; e < topo.graph().num_edges(); ++e) {
    if (!topo.link_axis_aligned(e)) {
      const auto& route = result.routes[static_cast<std::size_t>(e)];
      ASSERT_EQ(route.spans.size(), 2u);
      EXPECT_TRUE(route.spans[0].horizontal);
      EXPECT_FALSE(route.spans[1].horizontal);
      saw_l_route = true;
    }
  }
  EXPECT_TRUE(saw_l_route);
}

TEST(GlobalRoute, FacesMatchChannels) {
  const auto topo = topo::make_sparse_hamming(4, 4, {2}, {2});
  const GlobalRoutingResult result = global_route(topo);
  for (graph::EdgeId e = 0; e < topo.graph().num_edges(); ++e) {
    const auto& route = result.routes[static_cast<std::size_t>(e)];
    if (route.straight) continue;
    const auto& edge = topo.graph().edge(e);
    const auto [u, v] = std::minmax(edge.u, edge.v);
    const auto cu = topo.coord(u);
    if (route.spans[0].horizontal) {
      // North face iff the channel above u's row was chosen.
      if (route.spans[0].index == cu.row) {
        EXPECT_EQ(route.face_u, Face::kNorth);
      } else {
        EXPECT_EQ(route.face_u, Face::kSouth);
        EXPECT_EQ(route.spans[0].index, cu.row + 1);
      }
    }
  }
}

TEST(GlobalRoute, LoadConservation) {
  // Every channel-span position increments exactly one load counter, so the
  // total load mass must equal the sum of span extents.
  for (const auto& topo :
       {topo::make_torus(6, 6), topo::make_sparse_hamming(6, 8, {3, 5}, {2}),
        topo::make_slim_noc(5, 10)}) {
    const GlobalRoutingResult result = global_route(topo);
    long long span_mass = 0;
    for (const auto& route : result.routes) {
      for (const auto& span : route.spans) {
        span_mass += span.hi - span.lo + 1;
      }
    }
    long long load_mass = 0;
    for (const auto& channel : result.h_loads) {
      for (int load : channel) load_mass += load;
    }
    for (const auto& channel : result.v_loads) {
      for (int load : channel) load_mass += load;
    }
    EXPECT_EQ(load_mass, span_mass) << topo.name();
  }
}

TEST(GlobalRoute, EveryNonUnitLinkHasSpans) {
  const auto topo = topo::make_sparse_hamming(6, 6, {2, 4}, {3});
  const GlobalRoutingResult result = global_route(topo);
  for (graph::EdgeId e = 0; e < topo.graph().num_edges(); ++e) {
    const auto& route = result.routes[static_cast<std::size_t>(e)];
    if (topo.link_grid_length(e) == 1) {
      EXPECT_TRUE(route.straight);
    } else {
      EXPECT_FALSE(route.straight);
      EXPECT_FALSE(route.spans.empty());
    }
  }
}

TEST(GlobalRoute, LoadAccessorsRejectOutOfRangeChannels) {
  // Regression: max_h_load / max_v_load silently read out-of-range channel
  // indices (vector UB), feeding garbage spacing into the cost model; they
  // must throw instead.
  const auto topo = topo::make_sparse_hamming(4, 6, {3}, {2});
  const GlobalRoutingResult result = global_route(topo);
  EXPECT_THROW(result.max_h_load(-1), Error);
  EXPECT_THROW(result.max_h_load(topo.rows() + 1), Error);
  EXPECT_THROW(result.max_v_load(-1), Error);
  EXPECT_THROW(result.max_v_load(topo.cols() + 1), Error);
  // In-range channels stay fine, including both boundary channels.
  EXPECT_GE(result.max_h_load(0), 0);
  EXPECT_GE(result.max_h_load(topo.rows()), 0);
  EXPECT_GE(result.max_v_load(topo.cols()), 0);
}

/// Golden channel-load profiles for canonical fabrics. These pin the greedy
/// router's exact output: a refactor that silently shifts one decision
/// changes a peak load, and with it the spacing and area the cost model
/// reports — this test makes that a loud failure instead.
TEST(GlobalRoute, GoldenLoadProfiles) {
  struct Golden {
    topo::Topology topo;
    std::vector<int> h;  ///< max_h_load per channel [0, rows]
    std::vector<int> v;  ///< max_v_load per channel [0, cols]
  };
  const Golden cases[] = {
      // 8x8 mesh: unit links cross channels directly, no channel capacity.
      {topo::make_mesh(8, 8),
       {0, 0, 0, 0, 0, 0, 0, 0, 0},
       {0, 0, 0, 0, 0, 0, 0, 0, 0}},
      // The 10x10 SR={3,6} SC={3,6} SHG the benches customize toward.
      {topo::make_sparse_hamming(10, 10, {3, 6}, {3, 6}),
       {5, 6, 7, 8, 8, 8, 8, 8, 8, 7, 7},
       {5, 6, 7, 8, 8, 8, 8, 8, 8, 7, 7}},
      // SlimNoC 5x10 (p = 5): L-shaped diagonals load both orientations.
      {topo::make_slim_noc(5, 10),
       {19, 21, 20, 20, 5, 5},
       {8, 10, 10, 10, 11, 12, 12, 12, 11, 10, 9}},
      // Single skip distance on 8x8 (the balanced-loads example above).
      {topo::make_sparse_hamming(8, 8, {4}, {}),
       {2, 3, 4, 4, 4, 4, 4, 4, 3},
       {0, 0, 0, 0, 0, 0, 0, 0, 0}},
  };
  for (const Golden& c : cases) {
    const GlobalRoutingResult result = global_route_loads(c.topo);
    ASSERT_EQ(c.h.size(), static_cast<std::size_t>(c.topo.rows()) + 1);
    ASSERT_EQ(c.v.size(), static_cast<std::size_t>(c.topo.cols()) + 1);
    for (int i = 0; i <= c.topo.rows(); ++i) {
      EXPECT_EQ(result.max_h_load(i), c.h[static_cast<std::size_t>(i)])
          << c.topo.name() << " h channel " << i;
    }
    for (int j = 0; j <= c.topo.cols(); ++j) {
      EXPECT_EQ(result.max_v_load(j), c.v[static_cast<std::size_t>(j)])
          << c.topo.name() << " v channel " << j;
    }
  }
}

/// Checks the route-shape invariants documented in global_route.hpp for
/// every link of a routed topology.
void expect_route_shapes(const topo::Topology& topo) {
  const GlobalRoutingResult result = global_route(topo);
  ASSERT_EQ(result.routes.size(),
            static_cast<std::size_t>(topo.graph().num_edges()));
  for (graph::EdgeId e = 0; e < topo.graph().num_edges(); ++e) {
    const GlobalRoute& route = result.routes[static_cast<std::size_t>(e)];
    const auto& edge = topo.graph().edge(e);
    const auto [u, v] = std::minmax(edge.u, edge.v);
    const topo::TileCoord cu = topo.coord(u);
    const topo::TileCoord cv = topo.coord(v);
    const int len = topo.link_grid_length(e);
    if (len == 1) {
      // Unit links cross the shared channel directly.
      EXPECT_TRUE(route.straight) << topo.name() << " edge " << e;
      EXPECT_TRUE(route.spans.empty()) << topo.name() << " edge " << e;
      continue;
    }
    EXPECT_FALSE(route.straight) << topo.name() << " edge " << e;
    if (topo.link_axis_aligned(e)) {
      // Aligned links occupy exactly one span along their own row/column.
      ASSERT_EQ(route.spans.size(), 1u) << topo.name() << " edge " << e;
      const ChannelSpan& span = route.spans[0];
      EXPECT_EQ(span.horizontal, cu.row == cv.row);
      EXPECT_EQ(span.hi - span.lo, len) << "span covers the link extent";
      // Both ports sit on the same face, matching the chosen channel.
      EXPECT_EQ(route.face_u, route.face_v);
      if (span.horizontal) {
        EXPECT_TRUE(span.index == cu.row || span.index == cu.row + 1);
        EXPECT_EQ(route.face_u,
                  span.index == cu.row ? Face::kNorth : Face::kSouth);
        EXPECT_EQ(span.lo, std::min(cu.col, cv.col));
      } else {
        EXPECT_TRUE(span.index == cu.col || span.index == cu.col + 1);
        EXPECT_EQ(route.face_u,
                  span.index == cu.col ? Face::kWest : Face::kEast);
        EXPECT_EQ(span.lo, std::min(cu.row, cv.row));
      }
    } else {
      // Diagonal links take exactly one L: a horizontal span in u's row
      // channel pair, then a vertical span in v's column channel pair,
      // with the faces consistent with the chosen channels.
      ASSERT_EQ(route.spans.size(), 2u) << topo.name() << " edge " << e;
      const ChannelSpan& hspan = route.spans[0];
      const ChannelSpan& vspan = route.spans[1];
      EXPECT_TRUE(hspan.horizontal);
      EXPECT_FALSE(vspan.horizontal);
      EXPECT_TRUE(hspan.index == cu.row || hspan.index == cu.row + 1);
      EXPECT_TRUE(vspan.index == cv.col || vspan.index == cv.col + 1);
      EXPECT_EQ(route.face_u,
                hspan.index == cu.row ? Face::kNorth : Face::kSouth);
      EXPECT_EQ(route.face_v,
                vspan.index == cv.col ? Face::kWest : Face::kEast);
      EXPECT_EQ(hspan.lo, std::min(cu.col, cv.col));
      EXPECT_EQ(hspan.hi, std::max(cu.col, cv.col));
      EXPECT_EQ(vspan.lo, std::min(cu.row, cv.row));
      EXPECT_EQ(vspan.hi, std::max(cu.row, cv.row));
    }
  }
}

/// Property test over topo::for_each_skip_link: every skip-generated link
/// of randomized SHG parameterizations satisfies the shape invariants,
/// including degenerate one-row and one-column fabrics.
TEST(GlobalRoute, SkipLinkRouteShapeInvariants) {
  Prng prng(0x5ba9e5u);
  for (int trial = 0; trial < 12; ++trial) {
    const int rows = prng.range(1, 9);
    const int cols = rows == 1 ? prng.range(2, 9) : prng.range(1, 9);
    std::set<int> row_skips, col_skips;
    for (int x = 2; x < cols; ++x) {
      if (prng.chance(0.4)) row_skips.insert(x);
    }
    for (int x = 2; x < rows; ++x) {
      if (prng.chance(0.4)) col_skips.insert(x);
    }
    // The generated topology and the enumeration agree by construction;
    // assert it anyway so the route-shape claims below are anchored.
    const topo::Topology topo =
        topo::make_sparse_hamming(rows, cols, row_skips, col_skips);
    int skip_links = 0;
    topo::for_each_skip_link(rows, cols, row_skips, col_skips,
                             [&](topo::TileCoord a, topo::TileCoord b) {
                               EXPECT_TRUE(topo.graph().has_edge(
                                   topo.node(a), topo.node(b)));
                               ++skip_links;
                             });
    const int mesh_links =
        rows * (cols - 1) + cols * (rows - 1);
    EXPECT_EQ(topo.graph().num_edges(), mesh_links + skip_links);
    expect_route_shapes(topo);
  }
  // Degenerate fabrics with explicit skip sets.
  expect_route_shapes(topo::make_sparse_hamming(1, 8, {2, 3, 7}, {}));
  expect_route_shapes(topo::make_sparse_hamming(8, 1, {}, {2, 5, 7}));
  // Diagonal (SlimNoC) links exercise the L-shape invariants.
  expect_route_shapes(topo::make_slim_noc(5, 10));
  expect_route_shapes(topo::make_torus(5, 7));
}

class DetailedRouteFixture : public ::testing::Test {
 protected:
  // Builds a floorplan sized like the cost model would for the topology:
  // 1 mm tiles, spacing = peak load * cell size, 10 um cells.
  static Floorplan plan_for(const topo::Topology& topo,
                            const GlobalRoutingResult& global) {
    const double cell = 0.01;
    std::vector<double> h_spacing(static_cast<std::size_t>(topo.rows()) + 1);
    std::vector<double> v_spacing(static_cast<std::size_t>(topo.cols()) + 1);
    for (int i = 0; i <= topo.rows(); ++i) {
      h_spacing[static_cast<std::size_t>(i)] = global.max_h_load(i) * cell;
    }
    for (int j = 0; j <= topo.cols(); ++j) {
      v_spacing[static_cast<std::size_t>(j)] = global.max_v_load(j) * cell;
    }
    return Floorplan(topo.rows(), topo.cols(), 1.0, 1.0, std::move(h_spacing),
                     std::move(v_spacing), cell, cell);
  }
};

TEST_F(DetailedRouteFixture, MeshLinksAreTilePitchLong) {
  const auto topo = topo::make_mesh(4, 4);
  const auto global = global_route(topo);
  const auto plan = plan_for(topo, global);
  const auto detailed = detailed_route(topo, plan, global);
  ASSERT_EQ(detailed.routes.size(),
            static_cast<std::size_t>(topo.graph().num_edges()));
  for (const auto& route : detailed.routes) {
    // Zero-width channels: the channel crossing has zero length and the
    // total is the two half-tile runs from the ports to the router centers.
    EXPECT_NEAR(route.channel_length_mm, 0.0, 1e-9);
    EXPECT_NEAR(route.total_length_mm, 1.0, 1e-9);
  }
  EXPECT_EQ(detailed.collision_cells, 0);
}

TEST_F(DetailedRouteFixture, LongLinkLengthScalesWithSpan) {
  const auto topo = topo::make_sparse_hamming(4, 4, {3}, {});
  const auto global = global_route(topo);
  const auto plan = plan_for(topo, global);
  const auto detailed = detailed_route(topo, plan, global);
  for (graph::EdgeId e = 0; e < topo.graph().num_edges(); ++e) {
    if (topo.link_grid_length(e) == 3) {
      // Three tile pitches in the channel plus the two half-tile runs from
      // the north/south ports down to the router centers.
      EXPECT_GT(detailed.routes[static_cast<std::size_t>(e)].total_length_mm,
                3.5);
      EXPECT_LT(detailed.routes[static_cast<std::size_t>(e)].total_length_mm,
                4.8);
    }
  }
}

TEST_F(DetailedRouteFixture, ParallelRunsLandInDistinctCells) {
  // Flattened butterfly rows produce many parallel spans; with left-edge
  // track assignment inside adequately sized channels, the only possible
  // collisions are port jogs, which must stay a small fraction of cells.
  const auto topo = topo::make_flattened_butterfly(4, 4);
  const auto global = global_route(topo);
  const auto plan = plan_for(topo, global);
  const auto detailed = detailed_route(topo, plan, global);
  EXPECT_GT(detailed.h_cells, 0);
  EXPECT_GT(detailed.v_cells, 0);
  EXPECT_LT(static_cast<double>(detailed.collision_cells),
            0.05 * static_cast<double>(detailed.h_cells + detailed.v_cells));
}

TEST_F(DetailedRouteFixture, LengthsDominateManhattanLowerBound) {
  // No detailed route can be shorter than the Manhattan distance between
  // the two router centers (tile pitch 1 mm + channel widths).
  const auto topo = topo::make_sparse_hamming(5, 5, {3}, {2});
  const auto global = global_route(topo);
  const auto plan = plan_for(topo, global);
  const auto detailed = detailed_route(topo, plan, global);
  for (graph::EdgeId e = 0; e < topo.graph().num_edges(); ++e) {
    const auto& edge = topo.graph().edge(e);
    const auto cu = topo.coord(edge.u);
    const auto cv = topo.coord(edge.v);
    const PointMM a = plan.tile_center(cu.row, cu.col);
    const PointMM b = plan.tile_center(cv.row, cv.col);
    EXPECT_GE(detailed.routes[static_cast<std::size_t>(e)].total_length_mm,
              manhattan(a, b) - 1e-9)
        << "edge " << e;
  }
}

TEST_F(DetailedRouteFixture, SegmentsStartAndEndAtPorts) {
  const auto topo = topo::make_torus(4, 4);
  const auto global = global_route(topo);
  const auto plan = plan_for(topo, global);
  const auto detailed = detailed_route(topo, plan, global);
  for (graph::EdgeId e = 0; e < topo.graph().num_edges(); ++e) {
    const auto& segs = detailed.routes[static_cast<std::size_t>(e)].segments;
    ASSERT_FALSE(segs.empty());
    // Consecutive segments must be connected.
    for (std::size_t i = 0; i + 1 < segs.size(); ++i) {
      EXPECT_EQ(segs[i].b, segs[i + 1].a);
    }
  }
}

// ---- Unit-cell counts against a cell-by-cell raster ------------------------

struct RasterCounts {
  long long h_cells = 0;
  long long v_cells = 0;
  long long collision_cells = 0;
};

/// Reference for step 5's cell counts: rasterizes every segment cell by cell
/// (cell (floor(x / cell_w), floor(y / cell_h)), zero-length segments
/// occupy nothing), deduplicates each link's cells per direction, and
/// counts a cell as a collision when >= 2 links occupy it in one direction.
RasterCounts raster_counts(const std::vector<DetailedRoute>& routes,
                           double cell_w, double cell_h) {
  auto cell = [](double coord, double size) {
    return static_cast<std::int64_t>(std::floor(coord / size));
  };
  auto key = [](std::int64_t ix, std::int64_t iy) {
    return (iy << 32) ^ ix;
  };
  std::unordered_map<std::int64_t, int> h_links, v_links;
  for (const DetailedRoute& route : routes) {
    std::unordered_set<std::int64_t> h, v;
    for (const Segment& seg : route.segments) {
      if (seg.length() <= 0.0) continue;
      if (seg.horizontal) {
        const std::int64_t iy = cell(seg.a.y, cell_h);
        for (std::int64_t ix = cell(std::min(seg.a.x, seg.b.x), cell_w);
             ix <= cell(std::max(seg.a.x, seg.b.x), cell_w); ++ix) {
          h.insert(key(ix, iy));
        }
      } else {
        const std::int64_t ix = cell(seg.a.x, cell_w);
        for (std::int64_t iy = cell(std::min(seg.a.y, seg.b.y), cell_h);
             iy <= cell(std::max(seg.a.y, seg.b.y), cell_h); ++iy) {
          v.insert(key(ix, iy));
        }
      }
    }
    for (const std::int64_t k : h) ++h_links[k];
    for (const std::int64_t k : v) ++v_links[k];
  }
  RasterCounts counts;
  counts.h_cells = static_cast<long long>(h_links.size());
  counts.v_cells = static_cast<long long>(v_links.size());
  for (const auto* links : {&h_links, &v_links}) {
    for (const auto& [k, n] : *links) {
      if (n >= 2) ++counts.collision_cells;
    }
  }
  return counts;
}

void expect_raster_counts(const DetailedRoutingResult& detailed,
                          const Floorplan& plan, const std::string& what) {
  const RasterCounts raster =
      raster_counts(detailed.routes, plan.cell_w(), plan.cell_h());
  EXPECT_EQ(detailed.h_cells, raster.h_cells) << what;
  EXPECT_EQ(detailed.v_cells, raster.v_cells) << what;
  EXPECT_EQ(detailed.collision_cells, raster.collision_cells) << what;
}

/// The floorplan evaluate_cost builds for `topo` (steps 1, 3 and 4),
/// rebuilt from the report's tile and cell geometry.
Floorplan cost_model_plan(const tech::ArchParams& arch,
                          const topo::Topology& topo,
                          const GlobalRoutingResult& global,
                          const model::CostReport& report) {
  const double wires = arch.wires_per_link();
  std::vector<double> h_spacing, v_spacing;
  for (int i = 0; i <= topo.rows(); ++i) {
    h_spacing.push_back(
        arch.tech.wires.h_wires_to_mm(global.max_h_load(i) * wires));
  }
  for (int j = 0; j <= topo.cols(); ++j) {
    v_spacing.push_back(
        arch.tech.wires.v_wires_to_mm(global.max_v_load(j) * wires));
  }
  return Floorplan(topo.rows(), topo.cols(), report.tile_w_mm,
                   report.tile_h_mm, std::move(h_spacing),
                   std::move(v_spacing), report.cell_w_mm, report.cell_h_mm);
}

TEST_F(DetailedRouteFixture, CellCountsMatchRasterReference) {
  const topo::Topology topologies[] = {
      topo::make_mesh(5, 7),
      topo::make_torus(6, 6),
      topo::make_flattened_butterfly(5, 6),
      topo::make_sparse_hamming(7, 9, {2, 5}, {3, 6}),
      topo::make_ruche(8, 8, 3, 2),
      topo::make_slim_noc(5, 10),
  };
  for (const topo::Topology& topo : topologies) {
    const auto global = global_route(topo);
    const auto plan = plan_for(topo, global);
    expect_raster_counts(detailed_route(topo, plan, global), plan,
                         topo.name());
  }
}

TEST(DetailedRoute, CostModelCellCountsMatchRasterReference) {
  using tech::KncScenario;
  struct Case {
    KncScenario scenario;
    topo::Topology topo;
  };
  const Case cases[] = {
      {KncScenario::kA, topo::make_mesh(8, 8)},
      {KncScenario::kA, topo::make_torus(8, 8)},
      {KncScenario::kB, topo::make_flattened_butterfly(8, 8)},
      {KncScenario::kA, topo::make_sparse_hamming(8, 8, {4}, {2, 5})},
      {KncScenario::kD, topo::make_sparse_hamming(8, 16, {2, 4}, {2, 4})},
      {KncScenario::kA, topo::make_ruche(8, 8, 3, 3)},
      {KncScenario::kC, topo::make_slim_noc(8, 16)},
  };
  for (const auto& [scenario, topo] : cases) {
    const tech::ArchParams arch = tech::knc_scenario(scenario);
    const model::CostReport report = model::evaluate_cost(arch, topo);
    const auto global = global_route(topo);
    const Floorplan plan = cost_model_plan(arch, topo, global, report);
    ASSERT_EQ(plan.chip_width(), report.chip_width_mm) << topo.name();
    ASSERT_EQ(plan.chip_height(), report.chip_height_mm) << topo.name();
    const DetailedRoutingResult detailed = detailed_route(topo, plan, global);
    EXPECT_EQ(detailed.h_cells, report.h_cells) << topo.name();
    EXPECT_EQ(detailed.v_cells, report.v_cells) << topo.name();
    EXPECT_EQ(detailed.collision_cells, report.collision_cells)
        << topo.name();
    expect_raster_counts(detailed, plan, topo.name());
  }
}

// Hand-made routes on a 1 x 1 mm chip of 0.1 mm cells (a 1x1 grid of 0.8 mm
// tiles between 0.1 mm channels): nx = ny = 12 cell lines.
Floorplan cell_test_plan() {
  return Floorplan(1, 1, 0.8, 0.8, {0.1, 0.1}, {0.1, 0.1}, 0.1, 0.1);
}

DetailedRoute link(std::vector<Segment> segments) {
  DetailedRoute route;
  route.segments = std::move(segments);
  return route;
}

Segment h_seg(double x0, double x1, double y) {
  return Segment{{x0, y}, {x1, y}, true};
}
Segment v_seg(double x, double y0, double y1) {
  return Segment{{x, y0}, {x, y1}, false};
}

/// Counts `routes` with count_unit_cells, checks them against the raster
/// reference, and returns them.
RasterCounts counted(std::vector<DetailedRoute> routes) {
  const Floorplan plan = cell_test_plan();
  DetailedRoutingResult result;
  result.routes = std::move(routes);
  count_unit_cells(plan, result);
  expect_raster_counts(result, plan, "hand-made routes");
  return {result.h_cells, result.v_cells, result.collision_cells};
}

TEST(UnitCellCount, ZeroLengthJogsOccupyNothing) {
  const RasterCounts c = counted({link({v_seg(0.05, 0.05, 0.05),
                                        h_seg(0.05, 0.35, 0.05),
                                        v_seg(0.35, 0.05, 0.05)}),
                                  link({h_seg(0.55, 0.55, 0.15)})});
  EXPECT_EQ(c.h_cells, 4);
  EXPECT_EQ(c.v_cells, 0);
  EXPECT_EQ(c.collision_cells, 0);
}

TEST(UnitCellCount, LinkRevisitingItsOwnCellCountsItOnce) {
  // Down column 0, a short run inside one cell, back up column 0: the two
  // vertical jogs cover the same three cells of one link.
  const RasterCounts c = counted({link({v_seg(0.02, 0.05, 0.25),
                                        h_seg(0.02, 0.08, 0.25),
                                        v_seg(0.08, 0.25, 0.05)})});
  EXPECT_EQ(c.h_cells, 1);
  EXPECT_EQ(c.v_cells, 3);
  EXPECT_EQ(c.collision_cells, 0);
}

TEST(UnitCellCount, TouchingRunsDoNotCollide) {
  // Cells [0, 2] and [3, 5] on row 1 touch without sharing a cell; two runs
  // that meet at one x coordinate share that coordinate's cell.
  const RasterCounts touching = counted(
      {link({h_seg(0.05, 0.25, 0.15)}), link({h_seg(0.35, 0.55, 0.15)})});
  EXPECT_EQ(touching.h_cells, 6);
  EXPECT_EQ(touching.collision_cells, 0);
  const RasterCounts boundary = counted(
      {link({h_seg(0.05, 0.3, 0.15)}), link({h_seg(0.3, 0.55, 0.15)})});
  EXPECT_EQ(boundary.h_cells, 6);
  EXPECT_EQ(boundary.collision_cells, 1);
}

TEST(UnitCellCount, CollisionsCountPerDirection) {
  // Three links share cell (2, 2) horizontally: one collision. A vertical
  // run through the same cell is another direction and collides with
  // nothing; two vertical runs of column 7 that meet in cell 1 add one.
  const RasterCounts c = counted({link({h_seg(0.05, 0.25, 0.25)}),
                                  link({h_seg(0.25, 0.45, 0.25)}),
                                  link({h_seg(0.21, 0.22, 0.28)}),
                                  link({v_seg(0.25, 0.05, 0.35)}),
                                  link({v_seg(0.75, 0.05, 0.15)}),
                                  link({v_seg(0.75, 0.15, 0.55)})});
  EXPECT_EQ(c.h_cells, 5);
  EXPECT_EQ(c.v_cells, 4 + 6);
  EXPECT_EQ(c.collision_cells, 1 + 1);
}

TEST(UnitCellCount, RandomRunsMatchRasterReference) {
  Prng prng(0xce115u);
  for (int round = 0; round < 50; ++round) {
    std::vector<DetailedRoute> routes(static_cast<std::size_t>(prng.range(1, 8)));
    for (DetailedRoute& route : routes) {
      for (int k = prng.range(0, 6); k > 0; --k) {
        // Coordinates on a 0.05 mm lattice hit cell boundaries often.
        const double a = 0.05 * prng.range(0, 22);
        const double b = 0.05 * prng.range(0, 22);
        const double at = 0.05 * prng.range(0, 22);
        route.segments.push_back(prng.chance(0.5) ? h_seg(a, b, at)
                                                  : v_seg(at, a, b));
      }
    }
    counted(std::move(routes));
  }
}

TEST(UnitCellCount, SegmentLeavingTheChipThrows) {
  const Floorplan plan = cell_test_plan();
  DetailedRoutingResult result;
  result.routes = {link({h_seg(0.05, 1.5, 0.15)})};
  EXPECT_THROW(count_unit_cells(plan, result), Error);
  result.routes = {link({v_seg(0.15, -0.2, 0.5)})};
  EXPECT_THROW(count_unit_cells(plan, result), Error);
}

TEST(UnitCellCount, GridBeyondPackedKeyThrows) {
  // A cell line or a cell index must fit its 31-bit field of the packed
  // sweep key. A 1 mm tile in 2^-30 mm cells fits: one run of cells
  // [2^28, 3 * 2^28] exercises the high bits of the cell field.
  const double small = std::ldexp(1.0, -30);
  DetailedRoutingResult result;
  result.routes = {link({h_seg(0.25, 0.75, 0.5)})};
  count_unit_cells(Floorplan(1, 1, 1.0, 1.0, {0.0, 0.0}, {0.0, 0.0}, small,
                             small),
                   result);
  EXPECT_EQ(result.h_cells, (std::int64_t{1} << 29) + 1);
  EXPECT_EQ(result.v_cells, 0);
  EXPECT_EQ(result.collision_cells, 0);
  // A line's cells run to index floor(extent / cell) + 2, so 2^31 - 3
  // cells per line are the most that fit: in 2^-31 mm cells a tile of
  // 1 - 3 * 2^-31 mm fits, reaching cell 2^31 - 1, and one of
  // 1 - 2 * 2^-31 mm throws across either axis, as do 10^10 cells.
  const double cell = std::ldexp(1.0, -31);
  const double fits = 1.0 - 3 * cell;
  const double over = 1.0 - 2 * cell;
  count_unit_cells(Floorplan(1, 1, fits, fits, {0.0, 0.0}, {0.0, 0.0}, cell,
                             cell),
                   result);
  EXPECT_EQ(result.h_cells, (std::int64_t{1} << 30) + 1);
  EXPECT_THROW(count_unit_cells(Floorplan(1, 1, over, fits, {0.0, 0.0},
                                          {0.0, 0.0}, cell, cell),
                                result),
               Error);
  EXPECT_THROW(count_unit_cells(Floorplan(1, 1, fits, over, {0.0, 0.0},
                                          {0.0, 0.0}, cell, cell),
                                result),
               Error);
  EXPECT_THROW(count_unit_cells(Floorplan(1, 1, 1.0, 1.0, {0.0, 0.0},
                                          {0.0, 0.0}, 1e-10, 0.1),
                                result),
               Error);
  EXPECT_THROW(count_unit_cells(Floorplan(1, 1, 1.0, 1.0, {0.0, 0.0},
                                          {0.0, 0.0}, 0.1, 1e-10),
                                result),
               Error);
}

}  // namespace
}  // namespace shg::phys
