// Differential oracle for per-axis channel routing (phys::axis_route_loads):
// over seeded random skip sets on square, non-square, 1xN and Nx1 grids,
// the horizontal profile routed from the row skips alone and the vertical
// profile routed from the column skips alone must be bit-identical to the
// two profiles of phys::global_route_loads on the materialized sparse
// Hamming graph. The suite runs under both CI configurations (Release and
// ASan/UBSan Debug).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "shg/common/prng.hpp"
#include "shg/phys/global_route.hpp"
#include "shg/topo/generators.hpp"

namespace shg::phys {
namespace {

std::string fmt_case(int rows, int cols, const std::set<int>& row_skips,
                     const std::set<int>& col_skips) {
  std::string s = std::to_string(rows) + "x" + std::to_string(cols) + " SR={";
  for (int x : row_skips) s += std::to_string(x) + ",";
  s += "} SC={";
  for (int x : col_skips) s += std::to_string(x) + ",";
  return s + "}";
}

/// Both axes of (rows, cols, SR, SC) against the full run.
void expect_axes_match(int rows, int cols, const std::set<int>& row_skips,
                       const std::set<int>& col_skips) {
  const GlobalRoutingResult full = global_route_loads(
      topo::make_sparse_hamming(rows, cols, row_skips, col_skips));
  const std::string context = fmt_case(rows, cols, row_skips, col_skips);
  EXPECT_EQ(axis_route_loads(rows, cols, true, row_skips), full.h_loads)
      << context;
  EXPECT_EQ(axis_route_loads(rows, cols, false, col_skips), full.v_loads)
      << context;
}

std::set<int> random_skips(Prng& prng, int len, double p) {
  std::set<int> skips;
  for (int x = 2; x < len; ++x) {
    if (prng.chance(p)) skips.insert(x);
  }
  return skips;
}

TEST(AxisLoads, RandomSkipSetsMatchGlobalRoute) {
  Prng prng(0x1c0de5u);
  for (int trial = 0; trial < 40; ++trial) {
    const int rows = prng.range(2, 13);
    // Every fourth grid is square; the others are usually not.
    const int cols = trial % 4 == 0 ? rows : prng.range(2, 13);
    const double p = trial % 2 == 0 ? 0.35 : 0.7;
    expect_axes_match(rows, cols, random_skips(prng, cols, p),
                      random_skips(prng, rows, p));
  }
}

TEST(AxisLoads, SingleRowAndColumnFabrics) {
  Prng prng(0x5ca1eu);
  for (int trial = 0; trial < 8; ++trial) {
    const int len = prng.range(2, 17);
    const std::set<int> skips = random_skips(prng, len, 0.5);
    expect_axes_match(1, len, skips, {});
    expect_axes_match(len, 1, {}, skips);
  }
  expect_axes_match(1, 9, {2, 5, 8}, {});
  expect_axes_match(9, 1, {}, {2, 7});
  expect_axes_match(1, 1, {}, {});
}

TEST(AxisLoads, ProfileShapesAndMesh) {
  // No skips: no channel carries a link, on either axis.
  EXPECT_EQ(axis_route_loads(4, 6, true, {}),
            std::vector<std::vector<int>>(5, std::vector<int>(6, 0)));
  EXPECT_EQ(axis_route_loads(4, 6, false, {}),
            std::vector<std::vector<int>>(7, std::vector<int>(4, 0)));
  expect_axes_match(6, 6, {}, {});
}

TEST(AxisLoads, RejectsOutOfRangeSkips) {
  // Row skips must lie in {2..C-1}, column skips in {2..R-1}.
  EXPECT_THROW(axis_route_loads(6, 8, true, {1}), Error);
  EXPECT_THROW(axis_route_loads(6, 8, true, {8}), Error);
  EXPECT_THROW(axis_route_loads(6, 8, false, {6}), Error);
  EXPECT_THROW(axis_route_loads(6, 8, false, {0}), Error);
  EXPECT_THROW(axis_route_loads(0, 8, true, {}), Error);
  EXPECT_NO_THROW(axis_route_loads(6, 8, true, {7}));
  EXPECT_NO_THROW(axis_route_loads(6, 8, false, {5}));
}

}  // namespace
}  // namespace shg::phys
