#include "shg/phys/incremental_route.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "shg/phys/route_core.hpp"

namespace shg::phys {

RoutingContext::RoutingContext(const topo::Topology& parent)
    : rows_(parent.rows()),
      cols_(parent.cols()),
      min_diag_len_(std::numeric_limits<int>::max()) {
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
    if (is_diag(rec)) min_diag_len_ = std::min(min_diag_len_, len);
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
  SHG_REQUIRE(min_diag_len_ == std::numeric_limits<int>::max(),
              "the skip fast path requires a parent without diagonal links");
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
  // Orientation-split repair: with no diagonal links anywhere
  // (REQUIREd above for the parent; skip links are axis-aligned by
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

void RoutingContext::route_child_loads(const std::vector<GridLink>& new_links,
                                       GlobalRoutingResult* out) const {
  SHG_REQUIRE(out != nullptr, "output result required");
  // Normalize endpoint order (lower node id first — the L-shape of a
  // diagonal depends on it) and bucket by grid length, preserving the
  // given order within each class: that is the order the links enter the
  // child's greedy classes after the parent's same-length links.
  int divergence = 0;
  int div_h = 0;
  int div_v = 0;
  int new_min_diag = std::numeric_limits<int>::max();
  std::vector<std::vector<LinkRec>> new_buckets;
  for (const GridLink& link : new_links) {
    SHG_REQUIRE(link.a.row >= 0 && link.a.row < rows_ && link.a.col >= 0 &&
                    link.a.col < cols_ && link.b.row >= 0 &&
                    link.b.row < rows_ && link.b.col >= 0 &&
                    link.b.col < cols_,
                "added link endpoint outside the grid");
    const int id_a = link.a.row * cols_ + link.a.col;
    const int id_b = link.b.row * cols_ + link.b.col;
    SHG_REQUIRE(id_a != id_b, "added link endpoints must differ");
    const LinkRec rec =
        id_a < id_b ? LinkRec{link.a, link.b} : LinkRec{link.b, link.a};
    const int len = std::abs(rec.a.row - rec.b.row) +
                    std::abs(rec.a.col - rec.b.col);
    if (len <= 1) continue;  // unit links occupy no channel capacity
    if (static_cast<int>(new_buckets.size()) <= len) {
      new_buckets.resize(static_cast<std::size_t>(len) + 1);
    }
    new_buckets[static_cast<std::size_t>(len)].push_back(rec);
    divergence = std::max(divergence, len);
    if (is_diag(rec)) {
      new_min_diag = std::min(new_min_diag, len);
    } else if (is_h(rec)) {
      div_h = std::max(div_h, len);
    } else {
      div_v = std::max(div_v, len);
    }
  }
  auto new_class = [&](int len) -> const std::vector<LinkRec>* {
    if (len < static_cast<int>(new_buckets.size())) {
      return &new_buckets[static_cast<std::size_t>(len)];
    }
    return nullptr;
  };

  out->routes.clear();
  if (divergence == 0) {
    out->h_loads = final_.h_loads;
    out->v_loads = final_.v_loads;
    return;
  }

  // A diagonal (parent's or new) at or below the divergence class couples
  // the orientations: restore the joint boundary and replay every class of
  // the suffix — parent links of the class first (their edge ids precede
  // any appended link's), then the new links in append order.
  if (std::min(min_diag_len_, new_min_diag) <= divergence) {
    state_before(divergence, &out->h_loads, &out->v_loads);
    for (int len = divergence; len >= 2; --len) {
      for (const ClassEntry& entry : classes_) {
        if (entry.len != len) continue;
        for (const LinkRec& rec : entry.links) {
          detail::route_and_commit(rec.a, rec.b, out->h_loads, out->v_loads);
        }
      }
      if (const std::vector<LinkRec>* links = new_class(len)) {
        for (const LinkRec& rec : *links) {
          detail::route_and_commit(rec.a, rec.b, out->h_loads, out->v_loads);
        }
      }
    }
    return;
  }

  // Orientation split: no new link is diagonal (a new diagonal would make
  // the branch above joint, since its class is at most the divergence) and
  // every parent diagonal sits strictly above the divergence, i.e. in the
  // shared prefix of both streams — so each orientation is an independent
  // decision stream repaired from its own divergence class, exactly as in
  // the skip fast path.
  auto repair = [&](int div, bool horizontal,
                    std::vector<std::vector<int>>& loads,
                    const std::vector<std::vector<int>>& parent_final) {
    if (div == 0) {
      loads = parent_final;
      return;
    }
    state_before(div, horizontal ? &loads : nullptr,
                 horizontal ? nullptr : &loads);
    for (int len = div; len >= 2; --len) {
      for (const ClassEntry& entry : classes_) {
        if (entry.len != len) continue;
        for (const LinkRec& rec : entry.links) {
          if (is_h(rec) == horizontal && is_v(rec) == !horizontal) {
            detail::route_and_commit(rec.a, rec.b, out->h_loads,
                                     out->v_loads);
          }
        }
      }
      if (const std::vector<LinkRec>* links = new_class(len)) {
        for (const LinkRec& rec : *links) {
          if (is_h(rec) == horizontal) {
            detail::route_and_commit(rec.a, rec.b, out->h_loads,
                                     out->v_loads);
          }
        }
      }
    }
  };
  repair(div_h, /*horizontal=*/true, out->h_loads, final_.h_loads);
  repair(div_v, /*horizontal=*/false, out->v_loads, final_.v_loads);
}

namespace {

/// Compares the pred-filtered subsequences of two link lists.
template <typename Rec, typename Pred>
bool filtered_subseq_equal(const std::vector<Rec>& a, const std::vector<Rec>& b,
                           Pred pred) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (true) {
    while (i < a.size() && !pred(a[i])) ++i;
    while (j < b.size() && !pred(b[j])) ++j;
    if (i == a.size() || j == b.size()) {
      return i == a.size() && j == b.size();
    }
    if (!(a[i] == b[j])) return false;
    ++i;
    ++j;
  }
}

}  // namespace

GlobalRoutingResult RoutingContext::route_child_loads(
    const topo::Topology& child) const {
  SHG_REQUIRE(child.rows() == rows_ && child.cols() == cols_,
              "child topology grid does not match the routing context");

  // Bucket the child's non-unit links exactly as the constructor bucketed
  // the parent's.
  const graph::Graph& g = child.graph();
  int child_max_len = 1;
  int child_min_diag = std::numeric_limits<int>::max();
  std::vector<std::vector<LinkRec>> child_buckets;
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const int len = child.link_grid_length(e);
    if (len <= 1) continue;
    if (len > child_max_len) {
      child_max_len = len;
      if (static_cast<int>(child_buckets.size()) <= child_max_len) {
        child_buckets.resize(static_cast<std::size_t>(child_max_len) + 1);
      }
    }
    const auto& edge = g.edge(e);
    const auto [u, v] = std::minmax(edge.u, edge.v);
    const LinkRec rec{child.coord(u), child.coord(v)};
    if (is_diag(rec)) child_min_diag = std::min(child_min_diag, len);
    child_buckets[static_cast<std::size_t>(len)].push_back(rec);
  }

  // Per-kind divergence class: the largest length at which the child's
  // link subsequence of that kind differs from the parent's. Everything
  // above the divergence is the shared prefix. Kind-filtered comparison is
  // only sound for classes WITHOUT diagonal links: same-row and
  // same-column links are independent decision streams, so their
  // interleaving within a class is irrelevant — but a diagonal reads both
  // load profiles, so reordering it against same-class aligned links
  // changes its decision even when every per-kind subsequence matches.
  // Classes containing a diagonal therefore require the full interleaved
  // sequence to match to count as shared prefix.
  static const std::vector<LinkRec> kNoLinks;
  auto parent_class = [&](int len) -> const std::vector<LinkRec>& {
    for (const ClassEntry& entry : classes_) {
      if (entry.len == len) return entry.links;
    }
    return kNoLinks;
  };
  auto child_class = [&](int len) -> const std::vector<LinkRec>& {
    if (len < static_cast<int>(child_buckets.size())) {
      return child_buckets[static_cast<std::size_t>(len)];
    }
    return kNoLinks;
  };
  auto has_diag = [](const std::vector<LinkRec>& links) {
    return std::any_of(links.begin(), links.end(),
                       [](const LinkRec& r) { return is_diag(r); });
  };
  const int parent_max_len = classes_.empty() ? 1 : classes_.front().len;
  int div_h = 0;
  int div_v = 0;
  int div_d = 0;
  for (int len = std::max(parent_max_len, child_max_len); len >= 2; --len) {
    const std::vector<LinkRec>& p = parent_class(len);
    const std::vector<LinkRec>& c = child_class(len);
    if (div_h == 0 && !filtered_subseq_equal(p, c, is_h)) div_h = len;
    if (div_v == 0 && !filtered_subseq_equal(p, c, is_v)) div_v = len;
    if (div_d == 0 && !filtered_subseq_equal(p, c, is_diag)) div_d = len;
    if (div_d == 0 && (has_diag(p) || has_diag(c)) && !(p == c)) {
      div_d = len;  // same multiset per kind, different interleaving
    }
  }

  GlobalRoutingResult result;
  const int divergence = std::max({div_h, div_v, div_d});
  if (divergence == 0) {
    result.h_loads = final_.h_loads;
    result.v_loads = final_.v_loads;
    return result;
  }

  // A diagonal link reads both load profiles to pick its L, so any
  // diagonal in the divergent suffix couples the orientations: restore the
  // joint boundary and replay everything at or below it. Otherwise the
  // orientations are independent and each replays from its own divergence.
  const bool joint = std::min(min_diag_len_, child_min_diag) <= divergence;
  if (joint) {
    state_before(divergence, &result.h_loads, &result.v_loads);
    for (int len = divergence; len >= 2; --len) {
      for (const LinkRec& rec : child_class(len)) {
        detail::route_and_commit(rec.a, rec.b, result.h_loads,
                                 result.v_loads);
      }
    }
    return result;
  }

  auto repair = [&](int div, auto pred, std::vector<std::vector<int>>& loads,
                    const std::vector<std::vector<int>>& parent_final,
                    bool horizontal) {
    if (div == 0) {
      loads = parent_final;
      return;
    }
    state_before(div, horizontal ? &loads : nullptr,
                 horizontal ? nullptr : &loads);
    for (int len = div; len >= 2; --len) {
      for (const LinkRec& rec : child_class(len)) {
        if (pred(rec)) {
          detail::route_and_commit(rec.a, rec.b, result.h_loads,
                                   result.v_loads);
        }
      }
    }
  };
  repair(div_h, [](const LinkRec& r) { return is_h(r); }, result.h_loads,
         final_.h_loads, /*horizontal=*/true);
  repair(div_v, [](const LinkRec& r) { return is_v(r); }, result.v_loads,
         final_.v_loads, /*horizontal=*/false);
  return result;
}

}  // namespace shg::phys
