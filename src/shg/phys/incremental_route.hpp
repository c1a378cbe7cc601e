// Incremental global routing for DSE screening (cost-model step 2).
//
// The customization flow prices every screened candidate through the greedy
// channel router, yet consecutive candidates differ from a cached parent by
// a handful of added skip links. This module reuses the parent's routing
// work across such children.
//
// Why a naive load patch is wrong: the router assigns channels longest link
// first, and every decision reads the loads committed by all earlier
// decisions. Inserting a new link of grid length x therefore perturbs the
// decisions of every link routed after it — but of NO link routed before
// it. Links are ordered by length class (descending; original edge order
// within a class), so:
//
//   * classes with length > x see exactly the same links in the same order
//     against the same load state — their decisions, and the load profile
//     they leave behind, are bit-identical to the parent run;
//   * classes with length <= x must be re-routed ("the affected suffix").
//
// A `RoutingContext` runs the parent once, recording the channel-load
// snapshot at every length-class boundary (the per-link channel assignments
// of the prefix are aggregated in those snapshots). Repairing a child means
// restoring the boundary snapshot of the largest divergent class and
// replaying the shared greedy core (route_core.hpp) over the suffix — the
// same decision code `global_route` runs, started from a state it provably
// reaches, so the repaired loads are bit-identical to `global_route_loads`
// on the child. The randomized differential oracle in
// tests/phys_incremental_test.cpp asserts exactly that.
//
// Orientation split: same-row links read and write only horizontal-channel
// loads, same-column links only vertical ones. The context accepts only
// parents without diagonal (L-shaped, SlimNoC-style) links — checked at
// construction — and skip links are axis-aligned, so the two orientations
// are independent decision streams and each is repaired from its own
// divergence class: adding a row skip leaves the vertical profile untouched
// entirely.
//
// == Exactness & concurrency ==============================================
//
//  * Exactness. `route_child_loads` returns load profiles BIT-IDENTICAL to
//    `global_route_loads` on the materialized child — guaranteed by
//    executing the shared decision core (phys/route_core.hpp) over a state
//    the from-scratch run provably reaches, and asserted by the randomized
//    differential oracle in tests/phys_incremental_test.cpp. There is no
//    bounded-error mode.
//  * Concurrency. A constructed RoutingContext is immutable;
//    `route_child_loads` is const and touches only caller-owned output
//    state, so ANY number of threads may repair children against one
//    shared context concurrently (the screening engines do exactly that,
//    with one `GlobalRoutingResult` scratch per worker). Construction
//    itself must be exclusive — build the context before fanning out.
#pragma once

#include <vector>

#include "shg/phys/global_route.hpp"

namespace shg::phys {

/// Cached global-routing state of one parent topology.
class RoutingContext {
 public:
  /// Routes `parent` once (loads only), recording the length-class boundary
  /// snapshots the repair below restores. Throws shg::Error when `parent`
  /// has a diagonal link (the orientation split must apply). The parent
  /// topology is not retained; re-keying a context onto a new parent is a
  /// fresh construction (one loads-only route — the same cost the cache
  /// saves per screened child, paid once per accepted DSE step).
  explicit RoutingContext(const topo::Topology& parent);

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  /// Channel loads of the parent itself; bit-identical to
  /// `global_route_loads(parent)` (routes are not materialized).
  const GlobalRoutingResult& loads() const { return final_; }

  /// Repairs the cached profiles for a child that is the parent plus the
  /// skip links of the given new skip distances, in
  /// `topo::for_each_skip_link` order (what `make_sparse_hamming` produces
  /// for a skip-superset child, appended after any same-length parent
  /// links). Bit-identical to `global_route_loads(child)`. No child
  /// Topology is materialized — the replay enumerates the new links
  /// directly from the skip definition — which removes the child graph
  /// construction from the screening hot path. New skips must be strictly
  /// ascending (checked) and absent from the parent's same-orientation
  /// classes produced by skips.
  ///
  /// `out` is overwritten and may be reused across calls to keep the load
  /// grids' heap allocations warm.
  void route_child_loads(const std::vector<int>& new_row_skips,
                         const std::vector<int>& new_col_skips,
                         GlobalRoutingResult* out) const;

 private:
  /// One axis-aligned parent link in greedy-order position; `a` is the
  /// lower-node-id endpoint.
  struct LinkRec {
    topo::TileCoord a;
    topo::TileCoord b;
  };
  /// All non-unit links of one length class, in greedy (edge-id) order,
  /// preceded by the load state the greedy run reaches just before routing
  /// the class.
  struct ClassEntry {
    int len = 0;
    std::vector<LinkRec> links;
    std::vector<std::vector<int>> h_before;
    std::vector<std::vector<int>> v_before;
  };

  static bool is_h(const LinkRec& r) { return r.a.row == r.b.row; }

  /// Load state after all parent classes with length > `len` (the boundary
  /// a suffix replay starting at class `len` restores).
  void state_before(int len, std::vector<std::vector<int>>* h,
                    std::vector<std::vector<int>>* v) const;

  void replay_new_row_skip(int skip, GlobalRoutingResult& result) const;
  void replay_new_col_skip(int skip, GlobalRoutingResult& result) const;

  int rows_ = 0;
  int cols_ = 0;
  std::vector<ClassEntry> classes_;  ///< descending by len; len >= 2 only
  GlobalRoutingResult final_;        ///< parent loads; routes empty
};

}  // namespace shg::phys
