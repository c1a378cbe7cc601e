// Internal greedy-routing core shared by global_route (every link of a
// topology) and axis_route_loads (the skip links of one SHG axis).
//
// The channel router's result depends on the order links are considered and
// on every cost comparison along the way, so "bit-identical loads" between
// a full run and a per-axis run is only defensible if both execute
// literally the same decision code. This header is that code: one function
// that evaluates the candidate channels of one link against the current
// load profiles (same candidate generation order, same cost arithmetic,
// same first-strict-minimum tie-break), and one that commits the winner.
// global_route.cpp drives it over the full greedy order and over one
// axis's classes. Neither driver may re-implement any part of the
// decision.
//
// An axis-aligned link's candidates all lie in its own orientation: a
// same-row link reads and writes only h_loads, a same-column link only
// v_loads. That is why the two profiles of a graph without diagonal links
// are independent decision streams, the fact the product-form screening
// rests on.
//
// == Exactness & concurrency ==============================================
//
//  * Exactness. These functions ARE the definition of the greedy router's
//    behavior: a driver that feeds them links in greedy order (longest
//    class first, edge-id order within a class) from a load state the full
//    run reaches produces BIT-IDENTICAL loads to global_route /
//    global_route_loads, by construction. Any caller that duplicates part
//    of the decision (candidate order, cost arithmetic, tie-break) instead
//    of calling these forfeits that guarantee.
//  * Concurrency. Free functions with no hidden state: safe to call from
//    any number of threads, provided each call chain owns its h_loads /
//    v_loads profiles exclusively (choose_route reads them, commit_route
//    mutates them — never share one profile pair across concurrent
//    routings).
#pragma once

#include <algorithm>
#include <vector>

#include "shg/phys/global_route.hpp"

namespace shg::phys::detail {

/// Secondary cost weight on wirelength: congestion dominates, length breaks
/// ties between equally congested channels.
inline constexpr double kLengthWeight = 0.01;

/// Candidate route under evaluation by the greedy router: at most two
/// channel spans (aligned links use one, L-shapes two), held inline so
/// candidate evaluation performs no heap allocation.
struct Candidate {
  ChannelSpan spans[2];
  int num_spans = 0;
  Face face_u = Face::kEast;
  Face face_v = Face::kWest;
  double cost = 0.0;
};

/// Peak load over [lo, hi] of `loads` if one more link were added there.
inline int peak_after_insert(const std::vector<int>& loads, int lo, int hi) {
  int peak = 0;
  for (int p = lo; p <= hi; ++p) {
    peak = std::max(peak, loads[static_cast<std::size_t>(p)] + 1);
  }
  return peak;
}

inline void commit(std::vector<int>& loads, int lo, int hi) {
  for (int p = lo; p <= hi; ++p) {
    ++loads[static_cast<std::size_t>(p)];
  }
}

/// Greedy channel choice for one non-unit link between tiles `cu` and `cv`,
/// where `cu` is the endpoint with the LOWER node id (the L-shape of a
/// diagonal link turns at cv's column, so swapping the endpoints changes the
/// candidates). Reads the current load profiles, returns the winner without
/// committing it.
inline Candidate choose_route(const topo::TileCoord cu,
                              const topo::TileCoord cv,
                              const std::vector<std::vector<int>>& h_loads,
                              const std::vector<std::vector<int>>& v_loads) {
  // Evaluate candidates in generation order, keeping the first strict
  // minimum — the same winner std::min_element picked over the old
  // candidate vector.
  Candidate best;
  bool have_best = false;
  auto consider = [&](const Candidate& cand) {
    if (!have_best || cand.cost < best.cost) {
      best = cand;
      have_best = true;
    }
  };
  if (cu.row == cv.row) {
    // Same-row link: horizontal channel above (index row) or below
    // (index row+1); ports on north/south faces.
    const auto [lo, hi] = std::minmax(cu.col, cv.col);
    for (const int channel : {cu.row, cu.row + 1}) {
      Candidate cand;
      cand.spans[0] = ChannelSpan{true, channel, lo, hi};
      cand.num_spans = 1;
      cand.face_u = channel == cu.row ? Face::kNorth : Face::kSouth;
      cand.face_v = cand.face_u;
      cand.cost =
          peak_after_insert(h_loads[static_cast<std::size_t>(channel)], lo,
                            hi) +
          kLengthWeight * (hi - lo + 1);
      consider(cand);
    }
  } else if (cu.col == cv.col) {
    const auto [lo, hi] = std::minmax(cu.row, cv.row);
    for (const int channel : {cu.col, cu.col + 1}) {
      Candidate cand;
      cand.spans[0] = ChannelSpan{false, channel, lo, hi};
      cand.num_spans = 1;
      cand.face_u = channel == cu.col ? Face::kWest : Face::kEast;
      cand.face_v = cand.face_u;
      cand.cost =
          peak_after_insert(v_loads[static_cast<std::size_t>(channel)], lo,
                            hi) +
          kLengthWeight * (hi - lo + 1);
      consider(cand);
    }
  } else {
    // Diagonal link: L-shaped route, horizontal segment at the u end
    // (u is the lower node id; the wire leaves u's row channel, turns
    // into a vertical channel at v's column and descends to v).
    const auto [clo, chi] = std::minmax(cu.col, cv.col);
    const auto [rlo, rhi] = std::minmax(cu.row, cv.row);
    for (const int hch : {cu.row, cu.row + 1}) {
      for (const int vch : {cv.col, cv.col + 1}) {
        Candidate cand;
        cand.spans[0] = ChannelSpan{true, hch, clo, chi};
        cand.spans[1] = ChannelSpan{false, vch, rlo, rhi};
        cand.num_spans = 2;
        cand.face_u = hch == cu.row ? Face::kNorth : Face::kSouth;
        cand.face_v = vch == cv.col ? Face::kWest : Face::kEast;
        cand.cost =
            peak_after_insert(h_loads[static_cast<std::size_t>(hch)], clo,
                              chi) +
            peak_after_insert(v_loads[static_cast<std::size_t>(vch)], rlo,
                              rhi) +
            kLengthWeight * (chi - clo + rhi - rlo + 2);
        consider(cand);
      }
    }
  }
  SHG_ASSERT(have_best, "no route candidates generated");
  return best;
}

inline void commit_route(const Candidate& best,
                         std::vector<std::vector<int>>& h_loads,
                         std::vector<std::vector<int>>& v_loads) {
  for (int s = 0; s < best.num_spans; ++s) {
    const ChannelSpan& span = best.spans[s];
    auto& loads = span.horizontal
                      ? h_loads[static_cast<std::size_t>(span.index)]
                      : v_loads[static_cast<std::size_t>(span.index)];
    commit(loads, span.lo, span.hi);
  }
}

/// Routes one non-unit link and commits the winner; the one-call form both
/// drivers use in their inner loops.
inline Candidate route_and_commit(const topo::TileCoord cu,
                                  const topo::TileCoord cv,
                                  std::vector<std::vector<int>>& h_loads,
                                  std::vector<std::vector<int>>& v_loads) {
  const Candidate best = choose_route(cu, cv, h_loads, v_loads);
  commit_route(best, h_loads, v_loads);
  return best;
}

}  // namespace shg::phys::detail
