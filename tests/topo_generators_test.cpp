// Tests for topology generators: structural invariants (node/link counts,
// radix, diameter formulas from Table I) and family-specific properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>
#include <vector>

#include "shg/common/prng.hpp"
#include "shg/graph/shortest_paths.hpp"
#include "shg/topo/generators.hpp"
#include "shg/topo/registry.hpp"
#include "shg/topo/render.hpp"

namespace shg::topo {
namespace {

TEST(Ring, EvenGridIsHamiltonianCycle) {
  // Needs RC even and both dimensions >= 2; a 1xN grid is a path graph and
  // admits no unit-link cycle at all.
  for (const auto [r, c] : {std::pair{8, 8}, {4, 6}, {2, 5}, {6, 3}}) {
    const Topology topo = make_ring(r, c);
    EXPECT_EQ(topo.graph().num_edges(), r * c) << r << "x" << c;
    EXPECT_EQ(topo.radix(), 2);
    EXPECT_TRUE(graph::is_connected(topo.graph()));
    EXPECT_EQ(graph::diameter(topo.graph()), r * c / 2);
    // All links unit-length: a true Hamiltonian cycle of the grid graph.
    for (graph::EdgeId e = 0; e < topo.graph().num_edges(); ++e) {
      EXPECT_EQ(topo.link_grid_length(e), 1);
    }
  }
}

TEST(Ring, OddGridClosesWithOneLongLink) {
  const Topology topo = make_ring(3, 3);
  EXPECT_EQ(topo.graph().num_edges(), 9);
  EXPECT_EQ(topo.radix(), 2);
  int long_links = 0;
  for (graph::EdgeId e = 0; e < topo.graph().num_edges(); ++e) {
    if (topo.link_grid_length(e) > 1) ++long_links;
  }
  EXPECT_EQ(long_links, 1);
}

TEST(Ring, SingleRowGridClosesWithOneLongLink) {
  const Topology topo = make_ring(1, 4);
  EXPECT_EQ(topo.graph().num_edges(), 4);
  EXPECT_TRUE(graph::is_connected(topo.graph()));
  int long_links = 0;
  for (graph::EdgeId e = 0; e < topo.graph().num_edges(); ++e) {
    if (topo.link_grid_length(e) > 1) ++long_links;
  }
  EXPECT_EQ(long_links, 1);
}

TEST(Mesh, CountsAndDiameter) {
  const Topology topo = make_mesh(8, 8);
  EXPECT_EQ(topo.graph().num_edges(), 2 * 8 * 7);
  EXPECT_EQ(topo.radix(), 4);
  EXPECT_EQ(graph::diameter(topo.graph()), 8 + 8 - 2);
  const Topology rect = make_mesh(4, 16);
  EXPECT_EQ(graph::diameter(rect.graph()), 4 + 16 - 2);
}

TEST(Mesh, AllLinksUnit) {
  const Topology topo = make_mesh(5, 7);
  for (graph::EdgeId e = 0; e < topo.graph().num_edges(); ++e) {
    EXPECT_EQ(topo.link_grid_length(e), 1);
    EXPECT_TRUE(topo.link_axis_aligned(e));
  }
}

TEST(Torus, CountsAndDiameter) {
  const Topology topo = make_torus(8, 8);
  EXPECT_EQ(topo.graph().num_edges(), 2 * 8 * 7 + 16);
  EXPECT_EQ(topo.radix(), 4);
  EXPECT_EQ(graph::diameter(topo.graph()), 8 / 2 + 8 / 2);
}

TEST(Torus, DegenerateSmallDimensionsSkipWraps) {
  // 2-wide dimension: wrap would duplicate the mesh link.
  const Topology topo = make_torus(2, 4);
  EXPECT_EQ(topo.graph().num_edges(), 2 * 3 + 4 * 1 + 2);  // rows+cols+wraps
  EXPECT_TRUE(graph::is_connected(topo.graph()));
}

TEST(FoldedTorus, IsomorphicToTorusMetrics) {
  const Topology folded = make_folded_torus(8, 8);
  const Topology torus = make_torus(8, 8);
  EXPECT_EQ(folded.graph().num_edges(), torus.graph().num_edges());
  EXPECT_EQ(folded.radix(), 4);
  EXPECT_EQ(graph::diameter(folded.graph()),
            graph::diameter(torus.graph()));
  // The whole point of folding: no link longer than 2 tiles.
  int max_len = 0;
  for (graph::EdgeId e = 0; e < folded.graph().num_edges(); ++e) {
    max_len = std::max(max_len, folded.link_grid_length(e));
  }
  EXPECT_EQ(max_len, 2);
}

TEST(Hypercube, RequiresPowerOfTwoGrid) {
  EXPECT_THROW(make_hypercube(3, 4), Error);
  EXPECT_THROW(make_hypercube(4, 6), Error);
  EXPECT_NO_THROW(make_hypercube(4, 4));
}

TEST(Hypercube, DegreeDiameterAndEdgeCount) {
  const Topology topo = make_hypercube(8, 8);
  const int n = 64;
  const int dims = 6;
  EXPECT_EQ(topo.graph().num_edges(), n * dims / 2);
  EXPECT_EQ(topo.radix(), dims);
  EXPECT_EQ(graph::diameter(topo.graph()), dims);
  // Every node has exactly `dims` neighbors (regular graph).
  for (graph::NodeId u = 0; u < n; ++u) {
    EXPECT_EQ(topo.graph().degree(u), dims);
  }
}

TEST(Hypercube, GrayEmbeddingContainsMesh) {
  // Fig. 1e: grid neighbors differ in exactly one bit, so every mesh link
  // must be present in the hypercube.
  const Topology topo = make_hypercube(4, 8);
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 8; ++c) {
      if (c + 1 < 8) {
        EXPECT_TRUE(topo.graph().has_edge(topo.node(r, c), topo.node(r, c + 1)));
      }
      if (r + 1 < 4) {
        EXPECT_TRUE(topo.graph().has_edge(topo.node(r, c), topo.node(r + 1, c)));
      }
    }
  }
}

TEST(FlattenedButterfly, FullyConnectedRowsAndColumns) {
  const Topology topo = make_flattened_butterfly(8, 8);
  EXPECT_EQ(topo.graph().num_edges(), 8 * 28 * 2);
  EXPECT_EQ(topo.radix(), 8 + 8 - 2);
  EXPECT_EQ(graph::diameter(topo.graph()), 2);
}

TEST(FlattenedButterfly, RectangularGrid) {
  const Topology topo = make_flattened_butterfly(4, 6);
  EXPECT_EQ(topo.radix(), 4 + 6 - 2);
  EXPECT_EQ(graph::diameter(topo.graph()), 2);
}

TEST(SlimNoc, RequiresTwoPSquaredTiles) {
  EXPECT_THROW(make_slim_noc(8, 8), Error);    // 64 = 2*32, 32 not square
  EXPECT_THROW(make_slim_noc(6, 6), Error);    // 36 odd half
  EXPECT_NO_THROW(make_slim_noc(5, 10));       // 50 = 2*5^2
}

TEST(SlimNoc, ClassicMmsForPCongruentOneModFour) {
  // p = 5: degree (3p-1)/2 = 7, diameter 2 (McKay-Miller-Siran).
  const Topology topo = make_slim_noc(5, 10);
  EXPECT_EQ(topo.num_tiles(), 50);
  for (graph::NodeId u = 0; u < 50; ++u) {
    EXPECT_EQ(topo.graph().degree(u), 7);
  }
  EXPECT_EQ(graph::diameter(topo.graph()), 2);
  EXPECT_EQ(topo.graph().num_edges(), 50 * 7 / 2);
}

TEST(SlimNoc, EvenPrimePowerSearchFindsDiameterTwo) {
  // p = 8 (the paper's 128-tile scenarios): degree 3p/2 = 12, diameter 2.
  const Topology topo = make_slim_noc(8, 16);
  EXPECT_EQ(topo.num_tiles(), 128);
  for (graph::NodeId u = 0; u < 128; ++u) {
    EXPECT_EQ(topo.graph().degree(u), 12);
  }
  EXPECT_EQ(graph::diameter(topo.graph()), 2);
}

TEST(SlimNoc, RadixApproxSqrtN) {
  // Table I: radix ≈ sqrt(RC).
  const Topology topo = make_slim_noc(8, 16);
  EXPECT_NEAR(topo.radix(), std::sqrt(128.0), 0.1 * 128);
}

TEST(SparseHamming, EmptySkipSetsGiveMesh) {
  const Topology shg = make_sparse_hamming(8, 8, {}, {});
  const Topology mesh = make_mesh(8, 8);
  EXPECT_EQ(shg.graph().num_edges(), mesh.graph().num_edges());
  EXPECT_EQ(graph::diameter(shg.graph()), graph::diameter(mesh.graph()));
}

TEST(SparseHamming, FullSkipSetsGiveFlattenedButterfly) {
  std::set<int> all_row;
  std::set<int> all_col;
  for (int x = 2; x < 8; ++x) {
    all_row.insert(x);
    all_col.insert(x);
  }
  const Topology shg = make_sparse_hamming(8, 8, all_row, all_col);
  const Topology fb = make_flattened_butterfly(8, 8);
  EXPECT_EQ(shg.graph().num_edges(), fb.graph().num_edges());
  EXPECT_EQ(shg.radix(), fb.radix());
  EXPECT_EQ(graph::diameter(shg.graph()), 2);
}

TEST(SparseHamming, LinkCountFormula) {
  // Base mesh links plus, per skip x: R*(C-x) row links / C*(R-x) col links.
  const int R = 8;
  const int C = 8;
  const std::set<int> sr = {4};
  const std::set<int> sc = {2, 5};
  const Topology topo = make_sparse_hamming(R, C, sr, sc);
  int expected = R * (C - 1) + C * (R - 1);
  for (int x : sr) expected += R * (C - x);
  for (int x : sc) expected += C * (R - x);
  EXPECT_EQ(topo.graph().num_edges(), expected);
}

TEST(SparseHamming, DiameterShrinksWithMoreSkips) {
  const int d_mesh = graph::diameter(make_sparse_hamming(8, 8, {}, {}).graph());
  const int d_one =
      graph::diameter(make_sparse_hamming(8, 8, {4}, {4}).graph());
  const int d_two =
      graph::diameter(make_sparse_hamming(8, 8, {2, 4}, {2, 4}).graph());
  EXPECT_LT(d_one, d_mesh);
  EXPECT_LE(d_two, d_one);
}

TEST(SparseHamming, RejectsInvalidSkips) {
  EXPECT_THROW(make_sparse_hamming(8, 8, {1}, {}), Error);
  EXPECT_THROW(make_sparse_hamming(8, 8, {8}, {}), Error);
  EXPECT_THROW(make_sparse_hamming(8, 8, {}, {9}), Error);
  EXPECT_NO_THROW(make_sparse_hamming(8, 8, {7}, {7}));
}

TEST(SparseHamming, PaperScenarioConfigs) {
  // The four customized configurations from Figure 6 must construct fine.
  EXPECT_NO_THROW(make_sparse_hamming(8, 8, {4}, {2, 5}));
  EXPECT_NO_THROW(make_sparse_hamming(8, 8, {2, 4}, {2, 4}));
  EXPECT_NO_THROW(make_sparse_hamming(8, 16, {3}, {2, 5}));
  EXPECT_NO_THROW(make_sparse_hamming(8, 16, {2, 4}, {2, 4}));
}

TEST(SparseHamming, StoresParams) {
  const Topology topo = make_sparse_hamming(8, 8, {4}, {2, 5});
  EXPECT_EQ(topo.shg_params().row_skips, (std::set<int>{4}));
  EXPECT_EQ(topo.shg_params().col_skips, (std::set<int>{2, 5}));
}

TEST(Ruche, IsSubsetOfShgFamilies) {
  const Topology ruche = make_ruche(8, 8, 3, 3);
  const Topology shg = make_sparse_hamming(8, 8, {3}, {3});
  EXPECT_EQ(ruche.graph().num_edges(), shg.graph().num_edges());
  EXPECT_EQ(ruche.radix(), shg.radix());
}

TEST(Ruche, SkipBelowTwoMeansMesh) {
  const Topology ruche = make_ruche(8, 8, 0, 1);
  EXPECT_EQ(ruche.graph().num_edges(), make_mesh(8, 8).graph().num_edges());
}

/// Product-form hop totals against both all-pairs oracles on the
/// materialized graph: the bit-parallel sweep (same integers) and
/// distance_summary (the diameter and mean screening reports).
void expect_hop_totals_match(const Topology& topo) {
  const ShgParams& p = topo.shg_params();
  const graph::AllPairsTotals product =
      shg_hop_totals(topo.rows(), topo.cols(), p.row_skips, p.col_skips);
  graph::BitSweepWorkspace ws;
  const graph::AllPairsTotals swept =
      graph::all_pairs_totals(topo.graph(), nullptr, ws);
  EXPECT_EQ(product.sum, swept.sum) << topo.name();
  EXPECT_EQ(product.reachable_pairs, swept.reachable_pairs) << topo.name();
  EXPECT_EQ(product.diameter, swept.diameter) << topo.name();

  const graph::DistanceSummary summary = graph::distance_summary(topo.graph());
  const long long n = topo.num_tiles();
  EXPECT_TRUE(summary.connected);
  EXPECT_EQ(product.reachable_pairs, n * n) << topo.name();
  EXPECT_EQ(product.diameter, summary.diameter) << topo.name();
  if (n > 1) {
    EXPECT_EQ(static_cast<double>(product.sum) /
                  static_cast<double>(product.reachable_pairs - n),
              summary.avg_hops)
        << topo.name();
  }
}

/// Up to `max_size` distinct skip distances drawn from {2..len-1}.
std::set<int> random_skips(Prng& prng, int len, int max_size) {
  std::vector<int> pool;
  for (int x = 2; x < len; ++x) pool.push_back(x);
  const int size =
      std::min(static_cast<int>(pool.size()), prng.range(0, max_size));
  std::set<int> skips;
  while (static_cast<int>(skips.size()) < size) {
    skips.insert(pool[prng.below(pool.size())]);
  }
  return skips;
}

TEST(ShgHopTotals, MatchMaterializedGraphOnRandomSkipSets) {
  Prng prng(0x5bd7u);
  for (const auto& [r, c] : {std::pair{1, 9}, {9, 1}, {1, 1}, {8, 16},
                            {16, 16}, {24, 24}}) {
    for (int trial = 0; trial < 4; ++trial) {
      expect_hop_totals_match(make_sparse_hamming(
          r, c, random_skips(prng, c, 4), random_skips(prng, r, 4)));
    }
  }
}

TEST(ShgHopTotals, MatchMaterializedRuche) {
  for (const auto& [r, c, rx, ry] :
       {std::tuple{16, 16, 3, 3}, {8, 16, 5, 2}, {16, 8, 0, 4},
        {24, 24, 4, 6}, {1, 12, 3, 0}}) {
    expect_hop_totals_match(make_ruche(r, c, rx, ry));
  }
}

TEST(ShgHopTotals, RejectsInvalidSkips) {
  EXPECT_THROW(shg_hop_totals(8, 8, {1}, {}), Error);
  EXPECT_THROW(shg_hop_totals(8, 8, {}, {8}), Error);
  EXPECT_THROW(shg_hop_totals(0, 8, {}, {}), Error);
}

TEST(Configurations, TableIValues) {
  // Last column of Table I for an 8x8 grid.
  EXPECT_DOUBLE_EQ(num_configurations(Kind::kRing, 8, 8), 1.0);
  EXPECT_DOUBLE_EQ(num_configurations(Kind::kMesh, 8, 8), 1.0);
  EXPECT_DOUBLE_EQ(num_configurations(Kind::kTorus, 8, 8), 1.0);
  EXPECT_DOUBLE_EQ(num_configurations(Kind::kFoldedTorus, 8, 8), 1.0);
  EXPECT_DOUBLE_EQ(num_configurations(Kind::kHypercube, 8, 8), 1.0);
  EXPECT_DOUBLE_EQ(num_configurations(Kind::kHypercube, 6, 8), 0.0);
  EXPECT_DOUBLE_EQ(num_configurations(Kind::kSlimNoc, 8, 8), 0.0);
  EXPECT_DOUBLE_EQ(num_configurations(Kind::kSlimNoc, 8, 16), 1.0);
  EXPECT_DOUBLE_EQ(num_configurations(Kind::kFlattenedButterfly, 8, 8), 1.0);
  // 2^(R+C-4) configurations for the sparse Hamming graph.
  EXPECT_DOUBLE_EQ(num_configurations(Kind::kSparseHamming, 8, 8),
                   std::pow(2.0, 12));
  EXPECT_DOUBLE_EQ(num_configurations(Kind::kSparseHamming, 8, 16),
                   std::pow(2.0, 20));
}

TEST(Registry, TryMakeRespectsApplicability) {
  EXPECT_FALSE(try_make(Kind::kHypercube, 6, 6).has_value());
  EXPECT_TRUE(try_make(Kind::kHypercube, 8, 8).has_value());
  EXPECT_FALSE(try_make(Kind::kSlimNoc, 8, 8).has_value());
  EXPECT_TRUE(try_make(Kind::kSlimNoc, 8, 16).has_value());
  const auto shg = try_make(Kind::kSparseHamming, 8, 8,
                            ShgParams{{4}, {2, 5}});
  ASSERT_TRUE(shg.has_value());
  EXPECT_EQ(shg->shg_params().row_skips, (std::set<int>{4}));
}

TEST(Registry, EstablishedSuite) {
  // 8x8: ring, mesh, torus, folded torus, hypercube, flattened butterfly
  // (SlimNoC not applicable).
  EXPECT_EQ(established_suite(8, 8).size(), 6u);
  // 8x16: SlimNoC joins.
  EXPECT_EQ(established_suite(8, 16).size(), 7u);
}

TEST(Render, ContainsGridAndLongLinks) {
  const Topology topo = make_sparse_hamming(4, 4, {2}, {});
  const std::string art = render_ascii(topo);
  EXPECT_NE(art.find("4x4 tiles"), std::string::npos);
  EXPECT_NE(art.find("row skip +2"), std::string::npos);
  EXPECT_NE(art.find("--"), std::string::npos);
  EXPECT_NE(art.find("||"), std::string::npos);
}

TEST(Topology, CoordRoundTrip) {
  const Topology topo = make_mesh(5, 9);
  for (graph::NodeId id = 0; id < topo.num_tiles(); ++id) {
    EXPECT_EQ(topo.node(topo.coord(id)), id);
  }
  EXPECT_THROW(topo.node(5, 0), Error);
  EXPECT_THROW(topo.coord(45), Error);
}

}  // namespace
}  // namespace shg::topo
