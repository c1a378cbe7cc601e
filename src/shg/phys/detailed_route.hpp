// Detailed routing in the grid of unit cells (step 5 of the model, Fig. 5e).
//
// Within each channel, overlapping spans are assigned to parallel tracks by
// the classic left-edge (interval partitioning) algorithm — the channel
// spacing from step 3 provides exactly peak-load many tracks, so parallel
// runs land in distinct unit cells. Remaining collisions (several links
// occupying the same unit cell in the same direction) can only come from
// the short port jogs and are counted and reported.
//
// The detailed route of every link is an axis-aligned polyline in chip
// coordinates; its length drives the link latency estimate and its
// unit-cell footprint drives the power estimate. Only the footprint's size
// is used, so it is counted, never rasterized: each segment is an interval
// of cells on one cell line, and one sorted sweep over the intervals'
// endpoints counts the covered and the shared cells in
// O(segments log segments) time and O(segments) memory, whatever the chip
// area.
#pragma once

#include <vector>

#include "shg/common/geometry.hpp"
#include "shg/phys/floorplan.hpp"
#include "shg/phys/global_route.hpp"
#include "shg/topo/topology.hpp"

namespace shg::phys {

/// One axis-aligned piece of a detailed route.
struct Segment {
  PointMM a;
  PointMM b;
  bool horizontal = true;

  double length() const {
    return horizontal ? std::abs(b.x - a.x) : std::abs(b.y - a.y);
  }
};

/// Detailed route of one link.
struct DetailedRoute {
  std::vector<Segment> segments;   ///< channel polyline (port to port)
  double channel_length_mm = 0.0;  ///< sum of segment lengths
  double total_length_mm = 0.0;    ///< + intra-tile port-to-router runs
};

/// Result of detailed routing for a whole topology.
struct DetailedRoutingResult {
  std::vector<DetailedRoute> routes;  ///< indexed by EdgeId
  long long h_cells = 0;     ///< distinct unit cells with a horizontal part
  long long v_cells = 0;     ///< distinct unit cells with a vertical part
  long long collision_cells = 0;  ///< cells with >= 2 same-direction links
};

/// Runs track assignment and geometry construction for all links.
DetailedRoutingResult detailed_route(const topo::Topology& topo,
                                     const Floorplan& plan,
                                     const GlobalRoutingResult& global);

/// Sets `result`'s cell counts from the segments of `result.routes`. A
/// segment of positive length occupies the cells from floor(start / cell)
/// to floor(end / cell) along its cell line; each link occupies a cell at
/// most once per direction, and a cell two or more links occupy in one
/// direction is one collision of that direction. Throws if a segment
/// leaves the chip's cell grid, or if that grid has 2^31 or more cells
/// along a line (the width of a packed sweep key's fields).
void count_unit_cells(const Floorplan& plan, DetailedRoutingResult& result);

}  // namespace shg::phys
