#include "shg/graph/shortest_paths.hpp"

#include <algorithm>
#include <bit>
#include <queue>

namespace shg::graph {

void bfs_distances(const Graph& g, NodeId src, BfsWorkspace& ws) {
  SHG_REQUIRE(src >= 0 && src < g.num_nodes(), "bfs source out of range");
  const int n = g.num_nodes();
  ws.resize(n);
  int* dist = ws.dist.data();
  NodeId* queue = ws.queue.data();
  std::fill(dist, dist + n, kUnreachable);
  dist[src] = 0;
  queue[0] = src;
  int head = 0;
  int tail = 1;
  while (head < tail) {
    const NodeId u = queue[head++];
    const int du = dist[u] + 1;
    for (const Neighbor& nb : g.neighbors(u)) {
      if (dist[nb.node] == kUnreachable) {
        dist[nb.node] = du;
        queue[tail++] = nb.node;
      }
    }
  }
}

std::vector<int> bfs_distances(const Graph& g, NodeId src) {
  BfsWorkspace ws;
  bfs_distances(g, src, ws);
  ws.dist.resize(static_cast<std::size_t>(g.num_nodes()));
  return std::move(ws.dist);
}

std::vector<std::vector<int>> all_pairs_hops(const Graph& g) {
  std::vector<std::vector<int>> result;
  result.reserve(static_cast<std::size_t>(g.num_nodes()));
  BfsWorkspace ws;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    bfs_distances(g, u, ws);
    result.emplace_back(ws.dist.begin(),
                        ws.dist.begin() + g.num_nodes());
  }
  return result;
}

bool is_connected(const Graph& g) {
  if (g.num_nodes() <= 1) return true;
  BfsWorkspace ws;
  bfs_distances(g, 0, ws);
  return std::none_of(ws.dist.begin(), ws.dist.begin() + g.num_nodes(),
                      [](int d) { return d == kUnreachable; });
}

DistanceSummary distance_summary(const Graph& g, BfsWorkspace& ws) {
  DistanceSummary summary;
  const int n = g.num_nodes();
  if (n <= 1) return summary;
  long long total = 0;
  long long reachable_pairs = 0;
  for (NodeId u = 0; u < n; ++u) {
    bfs_distances(g, u, ws);
    const int* dist = ws.dist.data();
    for (int v = 0; v < n; ++v) {
      const int d = dist[v];
      if (d == kUnreachable) {
        summary.connected = false;
        continue;
      }
      total += d;
      ++reachable_pairs;
      if (d > summary.diameter) summary.diameter = d;
    }
  }
  // reachable_pairs counts (u, u) self-pairs at distance 0; exclude them
  // from the mean's denominator (they contribute nothing to the numerator).
  reachable_pairs -= n;
  if (reachable_pairs > 0) {
    summary.avg_hops =
        static_cast<double>(total) / static_cast<double>(reachable_pairs);
  }
  return summary;
}

DistanceSummary distance_summary(const Graph& g) {
  BfsWorkspace ws;
  return distance_summary(g, ws);
}

void EdgeOverlay::assign(int num_nodes, const std::vector<Edge>& edges) {
  SHG_REQUIRE(num_nodes >= 0, "node count must be non-negative");
  offsets_.assign(static_cast<std::size_t>(num_nodes) + 1, 0);
  for (const Edge& e : edges) {
    SHG_REQUIRE(e.u >= 0 && e.u < num_nodes && e.v >= 0 && e.v < num_nodes,
                "overlay edge endpoint out of range");
    ++offsets_[static_cast<std::size_t>(e.u) + 1];
    ++offsets_[static_cast<std::size_t>(e.v) + 1];
  }
  for (int u = 0; u < num_nodes; ++u) {
    offsets_[static_cast<std::size_t>(u) + 1] +=
        offsets_[static_cast<std::size_t>(u)];
  }
  targets_.resize(static_cast<std::size_t>(offsets_.back()));
  std::vector<int> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const Edge& e : edges) {
    targets_[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(e.u)]++)] = e.v;
    targets_[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(e.v)]++)] = e.u;
  }
}

AllPairsTotals all_pairs_totals(const Graph& g, const EdgeOverlay* overlay,
                                BitSweepWorkspace& ws) {
  const int n = g.num_nodes();
  SHG_REQUIRE(overlay == nullptr || overlay->num_nodes() == n,
              "overlay node count does not match the graph");
  AllPairsTotals totals;
  if (n <= 0) return totals;
  const std::size_t un = static_cast<std::size_t>(n);
  ws.reached.resize(un);
  ws.frontier.resize(un);
  ws.next.resize(un);

  // Sources in batches of 64: mask bit s of word v says "source base+s has
  // reached node v". One synchronous round per distance value d: a node's
  // next-mask is the OR of its neighbors' frontier masks minus everything
  // already reached, and popcounts of the fresh bits are exactly the number
  // of (source, node) pairs at distance d.
  for (int base = 0; base < n; base += 64) {
    const int count = std::min(64, n - base);
    totals.reachable_pairs += count;  // self pairs, distance 0
    std::fill(ws.reached.begin(), ws.reached.end(), 0);
    for (int s = 0; s < count; ++s) {
      ws.reached[static_cast<std::size_t>(base + s)] =
          std::uint64_t{1} << s;
    }
    std::copy(ws.reached.begin(), ws.reached.end(), ws.frontier.begin());

    for (int d = 1;; ++d) {
      bool any = false;
      for (NodeId v = 0; v < n; ++v) {
        std::uint64_t acc = 0;
        for (const Neighbor& nb : g.neighbors(v)) {
          acc |= ws.frontier[static_cast<std::size_t>(nb.node)];
        }
        if (overlay != nullptr) {
          for (const NodeId* u = overlay->begin(v); u != overlay->end(v);
               ++u) {
            acc |= ws.frontier[static_cast<std::size_t>(*u)];
          }
        }
        acc &= ~ws.reached[static_cast<std::size_t>(v)];
        ws.next[static_cast<std::size_t>(v)] = acc;
        if (acc != 0) {
          const int cnt = std::popcount(acc);
          totals.sum += static_cast<long long>(d) * cnt;
          totals.reachable_pairs += cnt;
          ws.reached[static_cast<std::size_t>(v)] |= acc;
          any = true;
        }
      }
      if (!any) break;
      if (d > totals.diameter) totals.diameter = d;
      std::swap(ws.frontier, ws.next);
    }
  }
  return totals;
}

int diameter(const Graph& g) {
  const DistanceSummary summary = distance_summary(g);
  SHG_REQUIRE(summary.connected, "diameter requires a connected graph");
  return summary.diameter;
}

double average_hops(const Graph& g) {
  SHG_REQUIRE(g.num_nodes() >= 2, "average_hops requires >= 2 nodes");
  const DistanceSummary summary = distance_summary(g);
  SHG_REQUIRE(summary.connected, "average_hops requires a connected graph");
  return summary.avg_hops;
}

std::vector<double> dijkstra(const Graph& g, NodeId src,
                             const std::vector<double>& edge_weight) {
  SHG_REQUIRE(src >= 0 && src < g.num_nodes(), "dijkstra source out of range");
  SHG_REQUIRE(static_cast<int>(edge_weight.size()) == g.num_edges(),
              "one weight per edge required");
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(static_cast<std::size_t>(g.num_nodes()), kInf);
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[static_cast<std::size_t>(src)] = 0.0;
  heap.emplace(0.0, src);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[static_cast<std::size_t>(u)]) continue;
    for (const Neighbor& n : g.neighbors(u)) {
      const double w = edge_weight[static_cast<std::size_t>(n.edge)];
      SHG_REQUIRE(w >= 0.0, "dijkstra requires non-negative weights");
      const double nd = d + w;
      if (nd < dist[static_cast<std::size_t>(n.node)]) {
        dist[static_cast<std::size_t>(n.node)] = nd;
        heap.emplace(nd, n.node);
      }
    }
  }
  return dist;
}

namespace {

enum class HopDagObjective { kMin, kMax };

std::vector<double> weight_over_min_hop_paths(
    const Graph& g, NodeId dest, const std::vector<double>& edge_weight,
    HopDagObjective objective) {
  SHG_REQUIRE(dest >= 0 && dest < g.num_nodes(), "dest out of range");
  SHG_REQUIRE(static_cast<int>(edge_weight.size()) == g.num_edges(),
              "one weight per edge required");
  const auto hops = bfs_distances(g, dest);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> weight(static_cast<std::size_t>(g.num_nodes()), kInf);
  weight[static_cast<std::size_t>(dest)] = 0.0;

  // Process nodes in increasing hop distance; every hop-minimal path steps
  // from hop level h to level h-1, so a single DP sweep suffices.
  std::vector<NodeId> order;
  order.reserve(static_cast<std::size_t>(g.num_nodes()));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (hops[static_cast<std::size_t>(u)] != kUnreachable) order.push_back(u);
  }
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return hops[static_cast<std::size_t>(a)] < hops[static_cast<std::size_t>(b)];
  });
  for (NodeId u : order) {
    if (u == dest) continue;
    const int hu = hops[static_cast<std::size_t>(u)];
    double best = kInf;
    bool found = false;
    for (const Neighbor& n : g.neighbors(u)) {
      if (hops[static_cast<std::size_t>(n.node)] == hu - 1) {
        const double cand = weight[static_cast<std::size_t>(n.node)] +
                            edge_weight[static_cast<std::size_t>(n.edge)];
        if (!found) {
          best = cand;
          found = true;
        } else if (objective == HopDagObjective::kMin) {
          best = std::min(best, cand);
        } else {
          best = std::max(best, cand);
        }
      }
    }
    weight[static_cast<std::size_t>(u)] = best;
  }
  return weight;
}

}  // namespace

std::vector<double> min_weight_over_min_hop_paths(
    const Graph& g, NodeId dest, const std::vector<double>& edge_weight) {
  return weight_over_min_hop_paths(g, dest, edge_weight,
                                   HopDagObjective::kMin);
}

std::vector<double> max_weight_over_min_hop_paths(
    const Graph& g, NodeId dest, const std::vector<double>& edge_weight) {
  return weight_over_min_hop_paths(g, dest, edge_weight,
                                   HopDagObjective::kMax);
}

}  // namespace shg::graph
