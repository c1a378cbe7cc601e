// Unit tests for shg/graph: adjacency, shortest paths, spanning trees,
// up*/down* tables, and CDG cycle detection.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "shg/graph/adjacency.hpp"
#include "shg/graph/cdg.hpp"
#include "shg/graph/shortest_paths.hpp"
#include "shg/graph/spanning_tree.hpp"

namespace shg::graph {
namespace {

Graph path_graph(int n) {
  Graph g(n);
  for (int i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  return g;
}

Graph cycle_graph(int n) {
  Graph g = path_graph(n);
  g.add_edge(n - 1, 0);
  return g;
}

TEST(Graph, AddAndQueryEdges) {
  Graph g(4);
  const EdgeId e = g.add_edge(0, 2);
  EXPECT_EQ(g.num_nodes(), 4);
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_EQ(g.edge(e).other(0), 2);
  EXPECT_EQ(g.edge(e).other(2), 0);
}

TEST(Graph, RejectsSelfLoopsAndParallelEdges) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_THROW(g.add_edge(1, 1), Error);
  EXPECT_THROW(g.add_edge(0, 1), Error);
  EXPECT_THROW(g.add_edge(1, 0), Error);
}

TEST(Graph, DegreeAndMaxDegree) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  EXPECT_EQ(g.degree(0), 3);
  EXPECT_EQ(g.degree(1), 1);
  EXPECT_EQ(g.max_degree(), 3);
}

TEST(Graph, RejectsOutOfRange) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 2), Error);
  EXPECT_THROW(g.neighbors(5), Error);
}

TEST(ShortestPaths, BfsOnPath) {
  const Graph g = path_graph(5);
  const auto dist = bfs_distances(g, 0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(dist[static_cast<std::size_t>(i)], i);
  }
}

TEST(ShortestPaths, UnreachableMarked) {
  Graph g(3);
  g.add_edge(0, 1);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[2], kUnreachable);
  EXPECT_FALSE(is_connected(g));
}

TEST(ShortestPaths, DiameterOfCycle) {
  EXPECT_EQ(diameter(cycle_graph(8)), 4);
  EXPECT_EQ(diameter(cycle_graph(9)), 4);
  EXPECT_EQ(diameter(path_graph(6)), 5);
}

TEST(ShortestPaths, AverageHopsOfPath3) {
  // Path 0-1-2: distances: (0,1)=1 (0,2)=2 (1,2)=1 each twice (ordered).
  EXPECT_DOUBLE_EQ(average_hops(path_graph(3)), (1 + 2 + 1) * 2 / 6.0);
}

TEST(ShortestPaths, DiameterRequiresConnected) {
  Graph g(2);
  EXPECT_THROW(diameter(g), Error);
}

TEST(ShortestPaths, WorkspaceBfsMatchesAllocating) {
  const Graph g = cycle_graph(9);
  BfsWorkspace ws;
  for (NodeId src = 0; src < g.num_nodes(); ++src) {
    const auto expected = bfs_distances(g, src);
    bfs_distances(g, src, ws);
    for (int v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(ws.dist[static_cast<std::size_t>(v)],
                expected[static_cast<std::size_t>(v)]);
    }
  }
}

TEST(ShortestPaths, DistanceSummaryMatchesLegacyMetrics) {
  for (const Graph& g : {path_graph(7), cycle_graph(8), cycle_graph(9)}) {
    const DistanceSummary summary = distance_summary(g);
    EXPECT_TRUE(summary.connected);
    EXPECT_EQ(summary.diameter, diameter(g));
    EXPECT_DOUBLE_EQ(summary.avg_hops, average_hops(g));
  }
}

TEST(ShortestPaths, DistanceSummaryDisconnected) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const DistanceSummary summary = distance_summary(g);
  EXPECT_FALSE(summary.connected);
  // Reachable ordered pairs: (0,1), (1,0), (2,3), (3,2) — all one hop.
  EXPECT_EQ(summary.diameter, 1);
  EXPECT_DOUBLE_EQ(summary.avg_hops, 1.0);
}

TEST(ShortestPaths, DistanceSummaryTrivialGraphs) {
  EXPECT_TRUE(distance_summary(Graph(1)).connected);
  EXPECT_EQ(distance_summary(Graph(1)).diameter, 0);
  EXPECT_EQ(distance_summary(Graph(0)).diameter, 0);
}

TEST(ShortestPaths, DijkstraPrefersLightPath) {
  // Triangle where the direct edge is heavier than the two-hop detour.
  Graph g(3);
  const EdgeId direct = g.add_edge(0, 2);
  const EdgeId a = g.add_edge(0, 1);
  const EdgeId b = g.add_edge(1, 2);
  std::vector<double> w(3);
  w[static_cast<std::size_t>(direct)] = 10.0;
  w[static_cast<std::size_t>(a)] = 1.0;
  w[static_cast<std::size_t>(b)] = 2.0;
  const auto dist = dijkstra(g, 0, w);
  EXPECT_DOUBLE_EQ(dist[2], 3.0);
}

TEST(ShortestPaths, MinAndMaxOverMinHopPaths) {
  // Square 0-1-2-3-0 plus heavy diagonal 0-2: hop distance 0->2 is 1 via
  // the diagonal, so min == max == diagonal weight.
  Graph g(4);
  const EdgeId e01 = g.add_edge(0, 1);
  const EdgeId e12 = g.add_edge(1, 2);
  const EdgeId e23 = g.add_edge(2, 3);
  const EdgeId e30 = g.add_edge(3, 0);
  const EdgeId diag = g.add_edge(0, 2);
  std::vector<double> w(5, 1.0);
  w[static_cast<std::size_t>(diag)] = 9.0;
  (void)e01;
  (void)e12;
  (void)e23;
  (void)e30;
  const auto max_w = max_weight_over_min_hop_paths(g, 2, w);
  EXPECT_DOUBLE_EQ(max_w[0], 9.0);
  // 3 -> 2 direct unit edge.
  EXPECT_DOUBLE_EQ(max_w[3], 1.0);
}

TEST(ShortestPaths, MaxDiffersFromMinWhenTwoMinHopPaths) {
  // Two parallel 2-hop routes 0-1-3 (light) and 0-2-3 (heavy).
  Graph g(4);
  std::vector<double> w;
  g.add_edge(0, 1);
  w.push_back(1.0);
  g.add_edge(1, 3);
  w.push_back(1.0);
  g.add_edge(0, 2);
  w.push_back(5.0);
  g.add_edge(2, 3);
  w.push_back(5.0);
  const auto max_w = max_weight_over_min_hop_paths(g, 3, w);
  EXPECT_DOUBLE_EQ(max_w[0], 10.0);
}

TEST(ShortestPaths, AllPairsTotalsMatchDistanceSummary) {
  // The bit-parallel sweep and the per-source BFS fold must agree on the
  // exact integer totals (sum over ordered pairs, reachable count with self
  // pairs, diameter) — the screening fast path depends on that equality
  // being bit-perfect.
  auto check = [](const Graph& g) {
    BitSweepWorkspace ws;
    const AllPairsTotals totals = all_pairs_totals(g, nullptr, ws);
    long long sum = 0;
    long long reachable = 0;
    int diameter = 0;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      for (int d : bfs_distances(g, u)) {
        if (d == kUnreachable) continue;
        sum += d;
        ++reachable;
        diameter = std::max(diameter, d);
      }
    }
    EXPECT_EQ(totals.sum, sum);
    EXPECT_EQ(totals.reachable_pairs, reachable);
    EXPECT_EQ(totals.diameter, diameter);
  };
  {
    // Path of 5 nodes.
    Graph g(5);
    for (NodeId u = 0; u + 1 < 5; ++u) g.add_edge(u, u + 1);
    check(g);
  }
  {
    // 70-node cycle plus chords: crosses the 64-source batch boundary.
    Graph g(70);
    for (NodeId u = 0; u < 70; ++u) g.add_edge(u, (u + 1) % 70);
    for (NodeId u = 0; u < 70; u += 7) g.add_edge(u, (u + 20) % 70);
    check(g);
  }
  {
    // Disconnected: two components plus an isolated node.
    Graph g(9);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    g.add_edge(3, 4);
    g.add_edge(4, 5);
    g.add_edge(5, 6);
    g.add_edge(6, 3);
    check(g);
  }
  {
    // Trivial graphs.
    check(Graph(0));
    check(Graph(1));
    check(Graph(3));
  }
}

TEST(ShortestPaths, AllPairsTotalsWithOverlayMatchMaterializedChild) {
  // Base graph plus overlay edges must total exactly like the graph with
  // those edges added for real.
  Graph base(12);
  for (NodeId u = 0; u + 1 < 12; ++u) base.add_edge(u, u + 1);
  const std::vector<Edge> extra = {{0, 7}, {2, 11}, {5, 9}};
  Graph child = base;
  for (const Edge& e : extra) child.add_edge(e.u, e.v);

  EdgeOverlay overlay;
  overlay.assign(12, extra);
  BitSweepWorkspace ws;
  const AllPairsTotals with_overlay = all_pairs_totals(base, &overlay, ws);
  const AllPairsTotals materialized = all_pairs_totals(child, nullptr, ws);
  EXPECT_EQ(with_overlay.sum, materialized.sum);
  EXPECT_EQ(with_overlay.reachable_pairs, materialized.reachable_pairs);
  EXPECT_EQ(with_overlay.diameter, materialized.diameter);

  // Overlay reuse: reassigning for a different edge set must not leak the
  // previous one.
  overlay.assign(12, {{0, 11}});
  Graph child2 = base;
  child2.add_edge(0, 11);
  const AllPairsTotals reused = all_pairs_totals(base, &overlay, ws);
  const AllPairsTotals fresh2 = all_pairs_totals(child2, nullptr, ws);
  EXPECT_EQ(reused.sum, fresh2.sum);
  EXPECT_EQ(reused.diameter, fresh2.diameter);
}

TEST(ShortestPaths, EdgeOverlayRejectsOutOfRangeEndpoints) {
  EdgeOverlay overlay;
  EXPECT_THROW(overlay.assign(4, {{0, 4}}), Error);
  EXPECT_THROW(overlay.assign(4, {{-1, 2}}), Error);
  BitSweepWorkspace ws;
  Graph g(5);
  overlay.assign(4, {{0, 3}});
  EXPECT_THROW(all_pairs_totals(g, &overlay, ws), Error);
}

TEST(SpanningTree, ParentsAndLevels) {
  const Graph g = cycle_graph(6);
  const auto tree = bfs_spanning_tree(g, 0);
  EXPECT_EQ(tree.parent[0], 0);
  EXPECT_EQ(tree.level[0], 0);
  EXPECT_EQ(tree.level[1], 1);
  EXPECT_EQ(tree.level[5], 1);
  EXPECT_EQ(tree.level[3], 3);
}

TEST(SpanningTree, IsUpOrder) {
  const Graph g = cycle_graph(4);
  const auto tree = bfs_spanning_tree(g, 0);
  EXPECT_TRUE(tree.is_up(1, 0));
  EXPECT_FALSE(tree.is_up(0, 1));
  // Same level: lower id is "more up".
  EXPECT_TRUE(tree.is_up(3, 1));
  EXPECT_FALSE(tree.is_up(1, 3));
}

TEST(UpDown, TablesRouteEveryPair) {
  const Graph g = cycle_graph(7);
  const auto tree = bfs_spanning_tree(g, 0);
  const auto tables = up_down_tables(g, tree);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId d = 0; d < g.num_nodes(); ++d) {
      if (u == d) {
        EXPECT_EQ(tables.phase0[static_cast<std::size_t>(u)]
                               [static_cast<std::size_t>(d)],
                  -1);
        continue;
      }
      // Walk the tables and verify we reach d without ever going up after
      // going down (the up*/down* invariant).
      NodeId at = u;
      bool went_down = false;
      int steps = 0;
      while (at != d) {
        const NodeId next =
            went_down ? tables.phase1[static_cast<std::size_t>(at)]
                                     [static_cast<std::size_t>(d)]
                      : tables.phase0[static_cast<std::size_t>(at)]
                                     [static_cast<std::size_t>(d)];
        ASSERT_GE(next, 0) << "no next hop from " << at << " to " << d;
        ASSERT_TRUE(g.has_edge(at, next));
        if (!tree.is_up(at, next)) went_down = true;
        at = next;
        ASSERT_LE(++steps, g.num_nodes() * 2) << "path too long";
      }
    }
  }
}

TEST(Cdg, DetectsCycle) {
  EXPECT_TRUE(has_cycle(3, {{0, 1}, {1, 2}, {2, 0}}));
  EXPECT_TRUE(has_cycle(2, {{0, 1}, {1, 0}}));
}

TEST(Cdg, AcceptsDag) {
  EXPECT_FALSE(has_cycle(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}}));
  EXPECT_FALSE(has_cycle(3, {}));
  EXPECT_FALSE(has_cycle(0, {}));
}

TEST(Cdg, SelfLoopIsCycle) {
  EXPECT_TRUE(has_cycle(1, {{0, 0}}));
}

}  // namespace
}  // namespace shg::graph
