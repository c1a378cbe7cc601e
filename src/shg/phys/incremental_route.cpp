#include "shg/phys/incremental_route.hpp"

#include <algorithm>

#include "shg/phys/route_core.hpp"

namespace shg::phys {

RoutingContext::RoutingContext(const topo::Topology& parent)
    : rows_(parent.rows()), cols_(parent.cols()) {
  // Bucket the parent's non-unit links by grid length. Iterating edges in
  // ascending id order and appending keeps each bucket in the greedy
  // routine's within-class order (its counting sort is stable).
  const graph::Graph& g = parent.graph();
  int max_len = 1;
  std::vector<std::vector<LinkRec>> buckets;
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const int len = parent.link_grid_length(e);
    if (len <= 1) continue;  // unit links occupy no channel capacity
    if (len > max_len) {
      max_len = len;
      if (static_cast<int>(buckets.size()) <= max_len) {
        buckets.resize(static_cast<std::size_t>(max_len) + 1);
      }
    }
    const auto& edge = g.edge(e);
    const auto [u, v] = std::minmax(edge.u, edge.v);
    const LinkRec rec{parent.coord(u), parent.coord(v)};
    SHG_REQUIRE(rec.a.row == rec.b.row || rec.a.col == rec.b.col,
                "incremental routing requires a parent without diagonal "
                "links");
    buckets[static_cast<std::size_t>(len)].push_back(rec);
  }

  // Route the classes longest first, photographing the load state at every
  // class boundary — the states a suffix replay restores.
  final_.h_loads.assign(static_cast<std::size_t>(rows_) + 1,
                        std::vector<int>(static_cast<std::size_t>(cols_), 0));
  final_.v_loads.assign(static_cast<std::size_t>(cols_) + 1,
                        std::vector<int>(static_cast<std::size_t>(rows_), 0));
  for (int len = max_len; len >= 2; --len) {
    if (len >= static_cast<int>(buckets.size()) ||
        buckets[static_cast<std::size_t>(len)].empty()) {
      continue;
    }
    ClassEntry entry;
    entry.len = len;
    entry.links = std::move(buckets[static_cast<std::size_t>(len)]);
    entry.h_before = final_.h_loads;
    entry.v_before = final_.v_loads;
    for (const LinkRec& rec : entry.links) {
      detail::route_and_commit(rec.a, rec.b, final_.h_loads, final_.v_loads);
    }
    classes_.push_back(std::move(entry));
  }
}

void RoutingContext::state_before(int len, std::vector<std::vector<int>>* h,
                                  std::vector<std::vector<int>>* v) const {
  // classes_ is descending; the first class with length <= len owns the
  // boundary snapshot "after everything longer than len" (no parent class
  // lies strictly between). With no such class every parent class is
  // longer, i.e. the state is the parent's final one.
  for (const ClassEntry& entry : classes_) {
    if (entry.len <= len) {
      if (h != nullptr) *h = entry.h_before;
      if (v != nullptr) *v = entry.v_before;
      return;
    }
  }
  if (h != nullptr) *h = final_.h_loads;
  if (v != nullptr) *v = final_.v_loads;
}

void RoutingContext::replay_new_row_skip(int skip,
                                         GlobalRoutingResult& result) const {
  // for_each_skip_link order for one row-skip class: rows ascending, start
  // columns ascending; the lower node id is always the left endpoint.
  for (int r = 0; r < rows_; ++r) {
    for (int i = 0; i + skip < cols_; ++i) {
      detail::route_and_commit(topo::TileCoord{r, i},
                               topo::TileCoord{r, i + skip}, result.h_loads,
                               result.v_loads);
    }
  }
}

void RoutingContext::replay_new_col_skip(int skip,
                                         GlobalRoutingResult& result) const {
  for (int c = 0; c < cols_; ++c) {
    for (int i = 0; i + skip < rows_; ++i) {
      detail::route_and_commit(topo::TileCoord{i, c},
                               topo::TileCoord{i + skip, c}, result.h_loads,
                               result.v_loads);
    }
  }
}

void RoutingContext::route_child_loads(const std::vector<int>& new_row_skips,
                                       const std::vector<int>& new_col_skips,
                                       GlobalRoutingResult* out) const {
  SHG_REQUIRE(out != nullptr, "output result required");
  // The replay below walks the new skips in descending class order via a
  // single reverse cursor; an unsorted list would silently skip classes,
  // so sortedness is a checked precondition (skip_delta and std::set
  // iteration produce ascending lists naturally).
  int max_row_skip = 0;
  for (std::size_t i = 0; i < new_row_skips.size(); ++i) {
    const int x = new_row_skips[i];
    SHG_REQUIRE(x >= 2 && x < cols_,
                "row skip distances must lie in {2..C-1} (Section III-b)");
    SHG_REQUIRE(i == 0 || new_row_skips[i - 1] < x,
                "new row skips must be strictly ascending");
    max_row_skip = std::max(max_row_skip, x);
  }
  int max_col_skip = 0;
  for (std::size_t i = 0; i < new_col_skips.size(); ++i) {
    const int x = new_col_skips[i];
    SHG_REQUIRE(x >= 2 && x < rows_,
                "column skip distances must lie in {2..R-1} (Section III-b)");
    SHG_REQUIRE(i == 0 || new_col_skips[i - 1] < x,
                "new column skips must be strictly ascending");
    max_col_skip = std::max(max_col_skip, x);
  }

  out->routes.clear();
  // Orientation-split repair: with no diagonal links anywhere (checked at
  // construction for the parent; skip links are axis-aligned by
  // construction), horizontal and vertical channels are independent
  // decision streams — adding row skips leaves the vertical profile
  // bit-identical to the parent's, and vice versa.
  auto repair_orientation =
      [&](int divergence, const std::vector<int>& new_skips, bool horizontal,
          std::vector<std::vector<int>>& loads,
          const std::vector<std::vector<int>>& parent_final) {
        if (divergence == 0) {
          loads = parent_final;
          return;
        }
        state_before(divergence, horizontal ? &loads : nullptr,
                     horizontal ? nullptr : &loads);
        // Replay every class of this orientation at or below the divergence
        // class: parent links of the class first (their edge ids precede any
        // appended skip link's), then the new skip class if one lands here.
        auto next_new = new_skips.rbegin();  // descending over new skips
        for (int len = divergence; len >= 2; --len) {
          for (const ClassEntry& entry : classes_) {
            if (entry.len != len) continue;
            for (const LinkRec& rec : entry.links) {
              if (is_h(rec) == horizontal) {
                detail::route_and_commit(rec.a, rec.b, out->h_loads,
                                         out->v_loads);
              }
            }
          }
          if (next_new != new_skips.rend() && *next_new == len) {
            if (horizontal) {
              replay_new_row_skip(len, *out);
            } else {
              replay_new_col_skip(len, *out);
            }
            ++next_new;
          }
        }
      };

  repair_orientation(max_row_skip, new_row_skips, /*horizontal=*/true,
                     out->h_loads, final_.h_loads);
  repair_orientation(max_col_skip, new_col_skips, /*horizontal=*/false,
                     out->v_loads, final_.v_loads);
}

}  // namespace shg::phys
