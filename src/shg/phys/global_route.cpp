#include "shg/phys/global_route.hpp"

#include <algorithm>

#include "shg/phys/route_core.hpp"
#include "shg/topo/generators.hpp"

namespace shg::phys {

int GlobalRoutingResult::max_h_load(int channel) const {
  SHG_REQUIRE(channel >= 0 &&
                  channel < static_cast<int>(h_loads.size()),
              "horizontal channel index out of range (valid: [0, rows])");
  const auto& loads = h_loads[static_cast<std::size_t>(channel)];
  return loads.empty() ? 0 : *std::max_element(loads.begin(), loads.end());
}

int GlobalRoutingResult::max_v_load(int channel) const {
  SHG_REQUIRE(channel >= 0 &&
                  channel < static_cast<int>(v_loads.size()),
              "vertical channel index out of range (valid: [0, cols])");
  const auto& loads = v_loads[static_cast<std::size_t>(channel)];
  return loads.empty() ? 0 : *std::max_element(loads.begin(), loads.end());
}

namespace {

/// Shared greedy-routing driver. The decision code itself (candidate
/// generation, cost arithmetic, tie-breaks, commits) lives in
/// route_core.hpp, which axis_route_loads drives too — any change there is
/// automatically shared, which is what keeps one axis's loads bit-identical
/// to that axis of a full run. The template flag only controls whether the
/// winning candidates are materialized into GlobalRoute objects; the
/// committed channel loads are bit-identical with routes kept or dropped.
template <bool kKeepRoutes>
void route_all_links(const topo::Topology& topo, GlobalRoutingResult& result) {
  const int rows = topo.rows();
  const int cols = topo.cols();
  if (kKeepRoutes) {
    result.routes.resize(static_cast<std::size_t>(topo.graph().num_edges()));
  }
  result.h_loads.assign(static_cast<std::size_t>(rows) + 1,
                        std::vector<int>(static_cast<std::size_t>(cols), 0));
  result.v_loads.assign(static_cast<std::size_t>(cols) + 1,
                        std::vector<int>(static_cast<std::size_t>(rows), 0));

  // Greedy order: longest links first — they constrain channel capacity the
  // most, short links fill the remaining space. Counting sort by length
  // bucket (descending, original order within a bucket) produces exactly
  // the stable_sort order the routine always used, without the comparison
  // sort showing up in screening profiles.
  const int num_edges = topo.graph().num_edges();
  int max_len = 0;
  std::vector<int> lengths(static_cast<std::size_t>(num_edges));
  for (graph::EdgeId e = 0; e < num_edges; ++e) {
    lengths[static_cast<std::size_t>(e)] = topo.link_grid_length(e);
    max_len = std::max(max_len, lengths[static_cast<std::size_t>(e)]);
  }
  std::vector<int> bucket_start(static_cast<std::size_t>(max_len) + 2, 0);
  for (int len : lengths) ++bucket_start[static_cast<std::size_t>(len)];
  // Descending lengths: bucket max_len first.
  int offset = 0;
  for (int len = max_len; len >= 0; --len) {
    const int count = bucket_start[static_cast<std::size_t>(len)];
    bucket_start[static_cast<std::size_t>(len)] = offset;
    offset += count;
  }
  std::vector<graph::EdgeId> order(static_cast<std::size_t>(num_edges));
  for (graph::EdgeId e = 0; e < num_edges; ++e) {
    order[static_cast<std::size_t>(
        bucket_start[static_cast<std::size_t>(
            lengths[static_cast<std::size_t>(e)])]++)] = e;
  }

  for (graph::EdgeId e : order) {
    const auto& edge = topo.graph().edge(e);
    const auto [u, v] = std::minmax(edge.u, edge.v);
    const topo::TileCoord cu = topo.coord(u);
    const topo::TileCoord cv = topo.coord(v);

    if (lengths[static_cast<std::size_t>(e)] == 1) {
      // Adjacent tiles: cross the shared channel directly (no channel
      // load; nothing to record unless routes are kept).
      if (kKeepRoutes) {
        GlobalRoute& route = result.routes[static_cast<std::size_t>(e)];
        route.straight = true;
        if (cu.row == cv.row) {
          route.face_u = cu.col < cv.col ? Face::kEast : Face::kWest;
          route.face_v = cu.col < cv.col ? Face::kWest : Face::kEast;
        } else {
          route.face_u = cu.row < cv.row ? Face::kSouth : Face::kNorth;
          route.face_v = cu.row < cv.row ? Face::kNorth : Face::kSouth;
        }
      }
      continue;
    }

    const detail::Candidate best =
        detail::route_and_commit(cu, cv, result.h_loads, result.v_loads);
    if (kKeepRoutes) {
      GlobalRoute& route = result.routes[static_cast<std::size_t>(e)];
      route.spans.assign(best.spans, best.spans + best.num_spans);
      route.face_u = best.face_u;
      route.face_v = best.face_v;
    }
  }
}

}  // namespace

GlobalRoutingResult global_route(const topo::Topology& topo) {
  GlobalRoutingResult result;
  route_all_links<true>(topo, result);
  return result;
}

GlobalRoutingResult global_route_loads(const topo::Topology& topo) {
  GlobalRoutingResult result;
  route_all_links<false>(topo, result);
  return result;
}

std::vector<std::vector<int>> axis_route_loads(int rows, int cols,
                                               bool horizontal,
                                               const std::set<int>& skips) {
  SHG_REQUIRE(rows >= 1 && cols >= 1, "grid must have positive dimensions");
  const std::set<int> none;
  topo::require_valid_skips(rows, cols, horizontal ? skips : none,
                            horizontal ? none : skips);
  const int len = horizontal ? cols : rows;
  const int lines = horizontal ? rows : cols;
  std::vector<std::vector<int>> loads(
      static_cast<std::size_t>(lines) + 1,
      std::vector<int>(static_cast<std::size_t>(len), 0));
  // The other orientation's profile is never read or written: an
  // axis-aligned link's candidates all lie in its own orientation.
  std::vector<std::vector<int>> unused;
  auto& h_loads = horizontal ? loads : unused;
  auto& v_loads = horizontal ? unused : loads;
  // Length class x holds exactly this axis's skip-x links (unit links are
  // class 1, the other axis's links sit in the other profile), in edge-id
  // order, which is for_each_skip_link's order for the single skip x.
  for (auto x = skips.rbegin(); x != skips.rend(); ++x) {
    const std::set<int> skip{*x};
    topo::for_each_skip_link(
        rows, cols, horizontal ? skip : none, horizontal ? none : skip,
        [&](topo::TileCoord a, topo::TileCoord b) {
          detail::route_and_commit(a, b, h_loads, v_loads);
        });
  }
  return loads;
}

}  // namespace shg::phys
