// Randomized differential oracle for incremental global routing
// (phys/incremental_route.hpp): for random topologies and random
// skip-insertion trajectories, a RoutingContext's repaired channel loads
// must be bit-identical to phys::global_route_loads run from scratch on the
// materialized child. The suite runs under both CI configurations (Release
// and ASan/UBSan Debug).
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "shg/common/prng.hpp"
#include "shg/phys/global_route.hpp"
#include "shg/phys/incremental_route.hpp"
#include "shg/topo/generators.hpp"

namespace shg::phys {
namespace {

void expect_same_loads(const GlobalRoutingResult& got,
                       const GlobalRoutingResult& want,
                       const std::string& context) {
  EXPECT_EQ(got.h_loads, want.h_loads) << context;
  EXPECT_EQ(got.v_loads, want.v_loads) << context;
}

/// Appends the skip links of (row_skips, col_skips) to a copy of `base`,
/// skipping links the base already has (torus wraps can have skip shape).
topo::Topology append_skips(const topo::Topology& base,
                            const std::set<int>& row_skips,
                            const std::set<int>& col_skips) {
  topo::Topology child = base;
  topo::for_each_skip_link(
      base.rows(), base.cols(), row_skips, col_skips,
      [&](topo::TileCoord a, topo::TileCoord b) {
        if (!child.graph().has_edge(child.node(a), child.node(b))) {
          child.add_link(a, b);
        }
      });
  return child;
}

std::string fmt_case(int rows, int cols, const std::set<int>& pr,
                     const std::set<int>& pc, const std::set<int>& cr,
                     const std::set<int>& cc) {
  std::string s = std::to_string(rows) + "x" + std::to_string(cols) +
                  " parent SR={";
  for (int x : pr) s += std::to_string(x) + ",";
  s += "} SC={";
  for (int x : pc) s += std::to_string(x) + ",";
  s += "} child SR={";
  for (int x : cr) s += std::to_string(x) + ",";
  s += "} SC={";
  for (int x : cc) s += std::to_string(x) + ",";
  return s + "}";
}

TEST(RoutingContext, ParentLoadsMatchFromScratchRoute) {
  for (const auto& topo :
       {topo::make_mesh(6, 6), topo::make_sparse_hamming(8, 8, {3, 5}, {2}),
        topo::make_torus(5, 7)}) {
    const RoutingContext ctx(topo);
    expect_same_loads(ctx.loads(), global_route_loads(topo), topo.name());
  }
}

TEST(RoutingContext, RejectsParentWithDiagonalLinks) {
  // Diagonal links couple the channel orientations, so the orientation
  // split the repair relies on would not hold: construction must refuse a
  // SlimNoC parent rather than return non-identical loads later.
  EXPECT_THROW(RoutingContext(topo::make_slim_noc(5, 10)), Error);
}

/// The core oracle: random SHG parents, random skip-superset children,
/// repaired from the new skip distances — every load profile bit-identical
/// to a fresh greedy run.
TEST(RoutingContext, RandomShgTrajectoriesBitIdentical) {
  Prng prng(0x1c0de5u);
  for (int trial = 0; trial < 40; ++trial) {
    const int rows = prng.range(2, 11);
    const int cols = prng.range(2, 11);
    std::set<int> parent_rows, parent_cols;
    for (int x = 2; x < cols; ++x) {
      if (prng.chance(0.35)) parent_rows.insert(x);
    }
    for (int x = 2; x < rows; ++x) {
      if (prng.chance(0.35)) parent_cols.insert(x);
    }
    const topo::Topology parent =
        topo::make_sparse_hamming(rows, cols, parent_rows, parent_cols);
    const RoutingContext ctx(parent);

    std::set<int> child_rows = parent_rows;
    std::set<int> child_cols = parent_cols;
    std::vector<int> new_rows, new_cols;
    for (int x = 2; x < cols; ++x) {
      if (child_rows.count(x) == 0 && prng.chance(0.4)) {
        child_rows.insert(x);
        new_rows.push_back(x);
      }
    }
    for (int x = 2; x < rows; ++x) {
      if (child_cols.count(x) == 0 && prng.chance(0.4)) {
        child_cols.insert(x);
        new_cols.push_back(x);
      }
    }
    const topo::Topology child =
        topo::make_sparse_hamming(rows, cols, child_rows, child_cols);
    const GlobalRoutingResult fresh = global_route_loads(child);
    const std::string ctx_str =
        fmt_case(rows, cols, parent_rows, parent_cols, child_rows,
                 child_cols);
    GlobalRoutingResult fast;
    ctx.route_child_loads(new_rows, new_cols, &fast);
    expect_same_loads(fast, fresh, ctx_str);
  }
}

/// Multi-step insertion trajectories: each accepted step re-keys the
/// context (fresh construction, as the screening engine does) and every
/// intermediate repair must stay exact.
TEST(RoutingContext, MultiStepTrajectoriesStayExact) {
  Prng prng(0xdac23u);
  for (int trial = 0; trial < 6; ++trial) {
    const int rows = prng.range(4, 9);
    const int cols = prng.range(4, 9);
    std::set<int> row_skips, col_skips;
    for (int step = 0; step < 5; ++step) {
      const topo::Topology parent =
          topo::make_sparse_hamming(rows, cols, row_skips, col_skips);
      const RoutingContext ctx(parent);
      std::vector<std::pair<bool, int>> choices;
      for (int x = 2; x < cols; ++x) {
        if (row_skips.count(x) == 0) choices.emplace_back(false, x);
      }
      for (int x = 2; x < rows; ++x) {
        if (col_skips.count(x) == 0) choices.emplace_back(true, x);
      }
      if (choices.empty()) break;
      const auto [is_col, x] = choices[prng.below(choices.size())];
      std::vector<int> new_rows, new_cols;
      if (is_col) {
        col_skips.insert(x);
        new_cols.push_back(x);
      } else {
        row_skips.insert(x);
        new_rows.push_back(x);
      }
      const topo::Topology child =
          topo::make_sparse_hamming(rows, cols, row_skips, col_skips);
      GlobalRoutingResult fast;
      ctx.route_child_loads(new_rows, new_cols, &fast);
      expect_same_loads(fast, global_route_loads(child),
                        "step " + std::to_string(step));
    }
  }
}

TEST(RoutingContext, TorusAppendSharesLengthClassWithWraps) {
  // A 4x8 torus owns column wraps of length 3 and row wraps of length 7.
  // Row skip 3 lands in the column wraps' length class: the horizontal
  // replay of class 3 must skip the vertical wraps, and the vertical
  // profile must stay the parent's.
  const topo::Topology parent = topo::make_torus(4, 8);
  const RoutingContext ctx(parent);
  const topo::Topology child = append_skips(parent, {3}, {});
  GlobalRoutingResult fast;
  ctx.route_child_loads({3}, {}, &fast);
  expect_same_loads(fast, global_route_loads(child), "torus +3");
}

TEST(RoutingContext, DegenerateSingleRowAndColumnFabrics) {
  {
    const topo::Topology parent = topo::make_sparse_hamming(1, 9, {}, {});
    const RoutingContext ctx(parent);
    const topo::Topology child =
        topo::make_sparse_hamming(1, 9, {2, 5, 8}, {});
    const GlobalRoutingResult fresh = global_route_loads(child);
    GlobalRoutingResult fast;
    ctx.route_child_loads({2, 5, 8}, {}, &fast);
    expect_same_loads(fast, fresh, "1xN");
  }
  {
    const topo::Topology parent = topo::make_sparse_hamming(9, 1, {}, {});
    const RoutingContext ctx(parent);
    const topo::Topology child =
        topo::make_sparse_hamming(9, 1, {}, {2, 7});
    const GlobalRoutingResult fresh = global_route_loads(child);
    GlobalRoutingResult fast;
    ctx.route_child_loads({}, {2, 7}, &fast);
    expect_same_loads(fast, fresh, "Nx1");
  }
}

TEST(RoutingContext, EmptyDeltaReturnsParentLoads) {
  const topo::Topology parent = topo::make_sparse_hamming(7, 7, {3}, {4});
  const RoutingContext ctx(parent);
  GlobalRoutingResult out;
  ctx.route_child_loads({}, {}, &out);
  expect_same_loads(out, ctx.loads(), "empty delta");
}

TEST(RoutingContext, FastPathRequiresAscendingSkips) {
  // Regression: the suffix replay walks the new skips with one descending
  // cursor; an unsorted list would silently drop whole link classes, so
  // it must throw instead.
  const topo::Topology parent = topo::make_sparse_hamming(8, 8, {}, {});
  const RoutingContext ctx(parent);
  GlobalRoutingResult out;
  EXPECT_THROW(ctx.route_child_loads({5, 3}, {}, &out), Error);
  EXPECT_THROW(ctx.route_child_loads({}, {4, 4}, &out), Error);
  ctx.route_child_loads({3, 5}, {}, &out);  // ascending is fine
  expect_same_loads(out,
                    global_route_loads(
                        topo::make_sparse_hamming(8, 8, {3, 5}, {})),
                    "ascending fast path");
}

TEST(RoutingContext, RejectsMismatchedGridsAndBadSkips) {
  const topo::Topology parent = topo::make_sparse_hamming(6, 6, {}, {});
  const RoutingContext ctx(parent);
  GlobalRoutingResult out;
  // Skip distances must fit the parent's grid: below 2 or at least the
  // line length is refused.
  EXPECT_THROW(ctx.route_child_loads({1}, {}, &out), Error);
  EXPECT_THROW(ctx.route_child_loads({6}, {}, &out), Error);
  EXPECT_THROW(ctx.route_child_loads({}, {0}, &out), Error);
}

}  // namespace
}  // namespace shg::phys
