#include "shg/phys/detailed_route.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <queue>

namespace shg::phys {

namespace {

/// Port positions as fractions along the owning face (0 = left/top corner),
/// one entry per edge endpoint (`u` = the lower-node-id end).
struct PortFractions {
  std::vector<double> u;
  std::vector<double> v;

  double at(graph::EdgeId e, bool is_u) const {
    return is_u ? u[static_cast<std::size_t>(e)]
                : v[static_cast<std::size_t>(e)];
  }
};

/// Assigns port offsets: unit links take the face center (each face hosts at
/// most one unit link), longer links are spread evenly over the face.
PortFractions assign_ports(const topo::Topology& topo,
                           const GlobalRoutingResult& global) {
  const std::size_t num_edges =
      static_cast<std::size_t>(topo.graph().num_edges());
  PortFractions fractions;
  fractions.u.assign(num_edges, 0.5);
  fractions.v.assign(num_edges, 0.5);
  // Collect the non-straight link endpoints per (tile, face); flat-indexed
  // buckets filled in ascending edge order, then sorted with the same
  // (edge, is_u) comparison the old map-of-vectors used — identical
  // per-face orders, identical fractions.
  std::vector<std::vector<std::pair<graph::EdgeId, bool>>> by_face(
      static_cast<std::size_t>(topo.num_tiles()) * 4);
  auto face_slot = [](int tile, Face face) {
    return static_cast<std::size_t>(tile) * 4 +
           static_cast<std::size_t>(face);
  };
  for (graph::EdgeId e = 0; e < topo.graph().num_edges(); ++e) {
    const auto& route = global.routes[static_cast<std::size_t>(e)];
    if (route.straight) continue;
    const auto& edge = topo.graph().edge(e);
    const auto [u, v] = std::minmax(edge.u, edge.v);
    by_face[face_slot(u, route.face_u)].emplace_back(e, true);
    by_face[face_slot(v, route.face_v)].emplace_back(e, false);
  }
  for (auto& endpoints : by_face) {
    if (endpoints.empty()) continue;
    std::sort(endpoints.begin(), endpoints.end());
    const double n = static_cast<double>(endpoints.size());
    for (std::size_t k = 0; k < endpoints.size(); ++k) {
      const double fraction = (static_cast<double>(k) + 1.0) / (n + 1.0);
      auto& side = endpoints[k].second ? fractions.u : fractions.v;
      side[static_cast<std::size_t>(endpoints[k].first)] = fraction;
    }
  }
  return fractions;
}

PointMM port_position(const Floorplan& plan, const topo::TileCoord& tile,
                      Face face, double fraction) {
  const double x0 = plan.col_left(tile.col);
  const double y0 = plan.row_top(tile.row);
  switch (face) {
    case Face::kNorth:
      return {x0 + fraction * plan.tile_w(), y0};
    case Face::kSouth:
      return {x0 + fraction * plan.tile_w(), y0 + plan.tile_h()};
    case Face::kWest:
      return {x0, y0 + fraction * plan.tile_h()};
    case Face::kEast:
      return {x0 + plan.tile_w(), y0 + fraction * plan.tile_h()};
  }
  SHG_ASSERT(false, "unreachable");
  return {};
}

/// Left-edge track assignment: spans sorted by start position, each takes
/// the lowest-numbered track that is free at its start. Uses exactly
/// max-overlap tracks, which is what the step-3 spacing provides. A link
/// occupies at most one span per orientation (aligned: one; L-shape: one of
/// each), so the assignment is stored per (edge, orientation).
struct TrackAssignment {
  std::vector<int> h;  ///< per edge; -1 = no horizontal span
  std::vector<int> v;

  int at(bool horizontal, graph::EdgeId e) const {
    const auto& side = horizontal ? h : v;
    const int track = side[static_cast<std::size_t>(e)];
    SHG_ASSERT(track >= 0, "link has no span in this orientation");
    return track;
  }
};

TrackAssignment assign_tracks(const topo::Topology& topo,
                              const GlobalRoutingResult& global) {
  struct Item {
    int lo, hi;
    graph::EdgeId edge;
  };
  // Channels flat-indexed: horizontal channels first ([0, rows]), then
  // vertical ([0, cols]); buckets fill in ascending edge order, as the old
  // map-of-vectors did.
  const std::size_t num_h = global.h_loads.size();
  std::vector<std::vector<Item>> by_channel(num_h + global.v_loads.size());
  for (graph::EdgeId e = 0; e < topo.graph().num_edges(); ++e) {
    for (const auto& span : global.routes[static_cast<std::size_t>(e)].spans) {
      const std::size_t slot =
          span.horizontal ? static_cast<std::size_t>(span.index)
                          : num_h + static_cast<std::size_t>(span.index);
      by_channel[slot].push_back(Item{span.lo, span.hi, e});
    }
  }
  TrackAssignment result;
  result.h.assign(static_cast<std::size_t>(topo.graph().num_edges()), -1);
  result.v.assign(static_cast<std::size_t>(topo.graph().num_edges()), -1);
  for (std::size_t slot = 0; slot < by_channel.size(); ++slot) {
    std::vector<Item>& items = by_channel[slot];
    if (items.empty()) continue;
    const bool horizontal = slot < num_h;
    std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
      if (a.lo != b.lo) return a.lo < b.lo;
      if (a.hi != b.hi) return a.hi > b.hi;  // longer first at equal start
      return a.edge < b.edge;
    });
    // Min-heap of (end position, track id) for busy tracks; free list of
    // reusable track ids.
    std::priority_queue<std::pair<int, int>, std::vector<std::pair<int, int>>,
                        std::greater<>> busy;
    std::priority_queue<int, std::vector<int>, std::greater<>> free_tracks;
    int next_track = 0;
    for (const Item& item : items) {
      while (!busy.empty() && busy.top().first < item.lo) {
        free_tracks.push(busy.top().second);
        busy.pop();
      }
      int track;
      if (!free_tracks.empty()) {
        track = free_tracks.top();
        free_tracks.pop();
      } else {
        track = next_track++;
      }
      busy.emplace(item.hi, track);
      (horizontal ? result.h : result.v)[static_cast<std::size_t>(item.edge)] =
          track;
    }
  }
  return result;
}

std::int64_t cell_index(double coord, double cell) {
  return static_cast<std::int64_t>(std::floor(coord / cell));
}

/// A coverage change on a cell line, packed so that sorting the keys
/// orders events by axis (0 = horizontal runs on cell rows, 1 = vertical
/// runs on cell columns), then line, then cell, with a run's end (-1, bit
/// 0 clear) before a run's start (+1, bit 0 set) at one cell.
constexpr int kCellBits = 31;
constexpr std::int64_t kCellLimit = std::int64_t{1} << kCellBits;

std::uint64_t cell_event(int axis, std::int64_t line, std::int64_t cell,
                         bool start) {
  return static_cast<std::uint64_t>(axis) << 63 |
         static_cast<std::uint64_t>(line) << (kCellBits + 1) |
         static_cast<std::uint64_t>(cell) << 1 | (start ? 1u : 0u);
}

/// Merges one link's run events line by line (a link that revisits a cell,
/// as at a jog corner, occupies it once): the union of its runs starts
/// where its own depth leaves 0 and ends where it returns there, and only
/// those events go to `events`.
void add_link_runs(std::vector<std::uint64_t>& link,
                   std::vector<std::uint64_t>& events) {
  std::sort(link.begin(), link.end());
  int depth = 0;
  for (const std::uint64_t key : link) {
    if ((key & 1) != 0 ? depth++ == 0 : --depth == 0) events.push_back(key);
  }
  link.clear();
}

double manhattan_to_center(const Floorplan& plan, const topo::TileCoord& tile,
                           PointMM port) {
  const PointMM center = plan.tile_center(tile.row, tile.col);
  return std::abs(center.x - port.x) + std::abs(center.y - port.y);
}

}  // namespace

DetailedRoutingResult detailed_route(const topo::Topology& topo,
                                     const Floorplan& plan,
                                     const GlobalRoutingResult& global) {
  SHG_REQUIRE(static_cast<int>(global.routes.size()) ==
                  topo.graph().num_edges(),
              "global routing result does not match topology");
  const PortFractions ports = assign_ports(topo, global);
  const TrackAssignment tracks = assign_tracks(topo, global);

  DetailedRoutingResult result;
  result.routes.resize(static_cast<std::size_t>(topo.graph().num_edges()));

  for (graph::EdgeId e = 0; e < topo.graph().num_edges(); ++e) {
    const auto& groute = global.routes[static_cast<std::size_t>(e)];
    const auto& edge = topo.graph().edge(e);
    const auto [u, v] = std::minmax(edge.u, edge.v);
    const topo::TileCoord cu = topo.coord(u);
    const topo::TileCoord cv = topo.coord(v);
    const PointMM pu =
        port_position(plan, cu, groute.face_u, ports.at(e, true));
    const PointMM pv =
        port_position(plan, cv, groute.face_v, ports.at(e, false));

    DetailedRoute& route = result.routes[static_cast<std::size_t>(e)];
    auto add = [&route](PointMM a, PointMM b, bool horizontal) {
      route.segments.push_back(Segment{a, b, horizontal});
    };

    if (groute.straight) {
      // Adjacent tiles: straight crossing plus (usually zero-length) jog.
      if (cu.row == cv.row) {
        add(pu, {pv.x, pu.y}, true);
        add({pv.x, pu.y}, pv, false);
      } else {
        add(pu, {pu.x, pv.y}, false);
        add({pu.x, pv.y}, pv, true);
      }
    } else if (groute.spans.size() == 1 && groute.spans[0].horizontal) {
      // Same-row link through a horizontal channel.
      const auto& span = groute.spans[0];
      const int track = tracks.at(true, e);
      const double yt = plan.chan_h_top(span.index) +
                        (static_cast<double>(track) + 0.5) * plan.cell_h();
      add(pu, {pu.x, yt}, false);
      add({pu.x, yt}, {pv.x, yt}, true);
      add({pv.x, yt}, pv, false);
    } else if (groute.spans.size() == 1) {
      // Same-column link through a vertical channel.
      const auto& span = groute.spans[0];
      const int track = tracks.at(false, e);
      const double xt = plan.chan_v_left(span.index) +
                        (static_cast<double>(track) + 0.5) * plan.cell_w();
      add(pu, {xt, pu.y}, true);
      add({xt, pu.y}, {xt, pv.y}, false);
      add({xt, pv.y}, pv, true);
    } else {
      // Diagonal link: horizontal channel at u's row, vertical channel at
      // v's column.
      SHG_ASSERT(groute.spans.size() == 2, "L route must have two spans");
      const auto& hspan = groute.spans[0];
      const auto& vspan = groute.spans[1];
      const int htrack = tracks.at(true, e);
      const int vtrack = tracks.at(false, e);
      const double yt = plan.chan_h_top(hspan.index) +
                        (static_cast<double>(htrack) + 0.5) * plan.cell_h();
      const double xt = plan.chan_v_left(vspan.index) +
                        (static_cast<double>(vtrack) + 0.5) * plan.cell_w();
      add(pu, {pu.x, yt}, false);       // jog from u's port into the channel
      add({pu.x, yt}, {xt, yt}, true);  // run to the turning column
      add({xt, yt}, {xt, pv.y}, false);  // descend/ascend to v's row
      add({xt, pv.y}, pv, true);        // jog into v's port
    }

    for (const Segment& seg : route.segments) {
      route.channel_length_mm += seg.length();
    }
    route.total_length_mm = route.channel_length_mm +
                            manhattan_to_center(plan, cu, pu) +
                            manhattan_to_center(plan, cv, pv);
  }

  count_unit_cells(plan, result);
  return result;
}

void count_unit_cells(const Floorplan& plan, DetailedRoutingResult& result) {
  const double cw = plan.cell_w();
  const double ch = plan.cell_h();
  const double limit = static_cast<double>(kCellLimit - 2);
  SHG_REQUIRE(plan.chip_width() / cw < limit && plan.chip_height() / ch < limit,
              "unit-cell grid exceeds 2^31 cells per line");
  const std::int64_t nx = cell_index(plan.chip_width(), cw) + 2;
  const std::int64_t ny = cell_index(plan.chip_height(), ch) + 2;
  std::size_t segments = 0;
  for (const DetailedRoute& route : result.routes) {
    segments += route.segments.size();
  }
  std::vector<std::uint64_t> link;
  std::vector<std::uint64_t> events;
  events.reserve(2 * segments);
  for (const DetailedRoute& route : result.routes) {
    for (const Segment& seg : route.segments) {
      if (seg.length() <= 0.0) continue;
      const bool h = seg.horizontal;
      const std::int64_t line = h ? cell_index(seg.a.y, ch)
                                  : cell_index(seg.a.x, cw);
      const auto [a, b] = h ? std::minmax(seg.a.x, seg.b.x)
                            : std::minmax(seg.a.y, seg.b.y);
      const std::int64_t lo = cell_index(a, h ? cw : ch);
      const std::int64_t hi = cell_index(b, h ? cw : ch);
      SHG_ASSERT(line >= 0 && line < (h ? ny : nx) && lo >= 0 &&
                     hi < (h ? nx : ny),
                 "detailed-route segment leaves the chip cell grid");
      link.push_back(cell_event(h ? 0 : 1, line, lo, true));
      link.push_back(cell_event(h ? 0 : 1, line, hi + 1, false));
    }
    add_link_runs(link, events);
  }
  // One sweep over all cell lines: every line's events balance, so a
  // positive depth always spans two events of the same line.
  std::sort(events.begin(), events.end());
  long long cells[2] = {0, 0};
  long long collisions = 0;
  int depth = 0;
  std::int64_t prev = 0;
  for (const std::uint64_t key : events) {
    const auto cell = static_cast<std::int64_t>((key >> 1) & (kCellLimit - 1));
    if (depth >= 1) cells[key >> 63] += cell - prev;
    if (depth >= 2) collisions += cell - prev;
    depth += (key & 1) != 0 ? 1 : -1;
    prev = cell;
  }
  result.h_cells = cells[0];
  result.v_cells = cells[1];
  result.collision_cells = collisions;
}

}  // namespace shg::phys
