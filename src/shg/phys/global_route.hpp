// Global routing in the grid of tiles (step 2 of the model, Fig. 5b).
//
// Links cannot be routed over tiles (Section II-A: tiles occupy all metal
// layers), so every link is assigned a path through the channels between
// tile rows/columns. As in real VLSI design, a greedy heuristic assigns
// each link (longest first) the channel(s) that minimize congestion, then
// the per-channel peak loads drive the spacing estimate of step 3.
//
// Route shapes:
//  * unit-length links cross the single channel between the two adjacent
//    tiles directly ("short links come with minuscule area overheads");
//  * same-row links of length >= 2 run in the horizontal channel above or
//    below their row (ports on the tile's north/south face);
//  * same-column links run in a vertical channel (east/west ports);
//  * diagonal links (SlimNoC) take an L: one horizontal + one vertical
//    channel span.
//
// Product form. Same-row links read and write only the horizontal
// channels, same-column links only the vertical ones, and every link of
// a sparse Hamming graph is one or the other. Its horizontal profile is
// therefore a function of the row skips alone and its vertical profile of
// the column skips alone: `axis_route_loads` routes one axis on its own,
// bit-identical to that axis of `global_route_loads` on the whole graph,
// which is what lets DSE screening route each distinct row-skip set and
// column-skip set once instead of once per candidate.
#pragma once

#include <set>
#include <vector>

#include "shg/topo/topology.hpp"

namespace shg::phys {

/// Tile face a port sits on.
enum class Face { kNorth, kSouth, kEast, kWest };

/// A contiguous occupation of one channel. For horizontal channels,
/// positions lo..hi are tile-column indices the wire runs alongside; for
/// vertical channels they are tile-row indices.
struct ChannelSpan {
  bool horizontal = true;
  int index = 0;  ///< channel index: [0, R] horizontal / [0, C] vertical
  int lo = 0;
  int hi = 0;  ///< inclusive; lo <= hi
};

/// Global route of one link.
struct GlobalRoute {
  bool straight = false;  ///< unit link: direct port-to-port crossing
  std::vector<ChannelSpan> spans;  ///< empty / 1 (aligned) / 2 (L-shape)
  Face face_u = Face::kEast;  ///< port face at the lower-id endpoint
  Face face_v = Face::kWest;  ///< port face at the other endpoint
};

/// Result of global routing: per-link routes plus channel load profiles.
struct GlobalRoutingResult {
  std::vector<GlobalRoute> routes;        ///< indexed by EdgeId
  std::vector<std::vector<int>> h_loads;  ///< [rows+1][cols] cut loads
  std::vector<std::vector<int>> v_loads;  ///< [cols+1][rows] cut loads

  /// Peak number of parallel links in horizontal channel i (the NL of the
  /// spacing formula in step 3). Throws shg::Error when `channel` is outside
  /// [0, rows] — a silent out-of-range read here would feed garbage spacing
  /// into the cost model.
  int max_h_load(int channel) const;
  /// Peak number of parallel links in vertical channel j. Throws shg::Error
  /// when `channel` is outside [0, cols].
  int max_v_load(int channel) const;
};

/// Runs greedy global routing for all links of a topology.
GlobalRoutingResult global_route(const topo::Topology& topo);

/// Loads-only variant for screening: takes exactly the same routing
/// decisions (same greedy order, same candidate evaluation and tie-breaks,
/// so h_loads / v_loads are bit-identical to global_route's) but does not
/// materialize the per-link GlobalRoute objects, whose span vectors
/// dominate the routine's cost. `routes` is left empty. Step 3 of the cost
/// model only reads the load profiles, which makes this the hot-path entry
/// for DSE screening.
GlobalRoutingResult global_route_loads(const topo::Topology& topo);

/// One axis of `global_route_loads(make_sparse_hamming(rows, cols, SR,
/// SC))`, routed without the graph. With `horizontal`, `skips` is SR and
/// the result is the [rows+1][cols] h_loads profile; otherwise `skips` is
/// SC and the result is the [cols+1][rows] v_loads profile. The axis's
/// skip links go through the same decision core as global_route, longest
/// class first and in for_each_skip_link order within a class, which is
/// the order the full run gives them; unit links occupy no channel. Skips
/// are validated like make_sparse_hamming's.
std::vector<std::vector<int>> axis_route_loads(int rows, int cols,
                                               bool horizontal,
                                               const std::set<int>& skips);

}  // namespace shg::phys
