#include "shg/topo/generators.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "shg/common/strings.hpp"
#include "shg/graph/shortest_paths.hpp"
#include "shg/topo/gf.hpp"

namespace shg::topo {

namespace {

bool is_power_of_two(int x) { return x >= 1 && (x & (x - 1)) == 0; }

int log2_exact(int x) {
  SHG_REQUIRE(is_power_of_two(x), "value must be a power of two");
  int bits = 0;
  while ((1 << bits) < x) ++bits;
  return bits;
}

/// Binary-reflected Gray code.
unsigned gray(unsigned i) { return i ^ (i >> 1); }

}  // namespace

void require_valid_skips(int rows, int cols, const std::set<int>& row_skips,
                         const std::set<int>& col_skips) {
  for (int x : row_skips) {
    SHG_REQUIRE(x >= 2 && x < cols,
                "row skip distances must lie in {2..C-1} (Section III-b)");
  }
  for (int x : col_skips) {
    SHG_REQUIRE(x >= 2 && x < rows,
                "column skip distances must lie in {2..R-1} (Section III-b)");
  }
}

Topology make_ring(int rows, int cols) {
  Topology topo(Kind::kRing, "ring", rows, cols);
  const int n = rows * cols;
  SHG_REQUIRE(n >= 3, "ring requires at least 3 tiles");

  // Build the visiting order of a cycle through the grid.
  std::vector<TileCoord> order;
  order.reserve(static_cast<std::size_t>(n));
  if (rows % 2 == 0 || cols % 2 == 0) {
    // Hamiltonian cycle of the grid graph: boustrophedon over all columns
    // except column 0, then return along column 0. (Transpose the pattern
    // when only the column count is even.)
    const bool transpose = rows % 2 != 0;
    const int major = transpose ? cols : rows;   // even
    const int minor = transpose ? rows : cols;
    auto emit = [&](int r, int c) {
      order.push_back(transpose ? TileCoord{c, r} : TileCoord{r, c});
    };
    if (minor == 1) {
      for (int r = 0; r < major; ++r) emit(r, 0);
    } else {
      for (int c = 1; c < minor; ++c) emit(0, c);
      for (int r = 1; r < major; ++r) {
        if (r % 2 == 1) {
          for (int c = minor - 1; c >= 1; --c) emit(r, c);
        } else {
          for (int c = 1; c < minor; ++c) emit(r, c);
        }
      }
      for (int r = major - 1; r >= 0; --r) emit(r, 0);
    }
  } else {
    // Odd x odd grid: no Hamiltonian cycle exists in a bipartite grid graph
    // with an odd number of vertices; close a boustrophedon path with one
    // long link instead.
    for (int r = 0; r < rows; ++r) {
      if (r % 2 == 0) {
        for (int c = 0; c < cols; ++c) order.push_back(TileCoord{r, c});
      } else {
        for (int c = cols - 1; c >= 0; --c) order.push_back(TileCoord{r, c});
      }
    }
  }
  SHG_ASSERT(static_cast<int>(order.size()) == n, "cycle must cover the grid");
  for (int i = 0; i < n; ++i) {
    topo.add_link(order[static_cast<std::size_t>(i)],
                  order[static_cast<std::size_t>((i + 1) % n)]);
  }
  return topo;
}

Topology make_mesh(int rows, int cols) {
  Topology topo(Kind::kMesh, "mesh", rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) topo.add_link({r, c}, {r, c + 1});
      if (r + 1 < rows) topo.add_link({r, c}, {r + 1, c});
    }
  }
  SHG_REQUIRE(graph::is_connected(topo.graph()), "mesh must be connected");
  return topo;
}

Topology make_concentrated_mesh(int rows, int cols, int concentration) {
  Topology topo = make_mesh(rows, cols);
  topo.set_concentration(concentration);
  return topo;
}

Topology make_torus(int rows, int cols) {
  Topology topo(Kind::kTorus, "torus", rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) topo.add_link({r, c}, {r, c + 1});
      if (r + 1 < rows) topo.add_link({r, c}, {r + 1, c});
    }
  }
  // Wrap-around links; for dimension size 2 the wrap would duplicate the
  // mesh link, for size 1 it would be a self loop — skip in both cases.
  for (int r = 0; r < rows && cols > 2; ++r) {
    topo.add_link({r, 0}, {r, cols - 1});
  }
  for (int c = 0; c < cols && rows > 2; ++c) {
    topo.add_link({0, c}, {rows - 1, c});
  }
  return topo;
}

Topology make_folded_torus(int rows, int cols) {
  Topology topo(Kind::kFoldedTorus, "folded_torus", rows, cols);
  // Each row/column is the folded embedding of a cycle: neighbors on the
  // cycle sit two tiles apart, except for the two end links.
  auto add_folded_line = [&](auto tile_at, int len) {
    if (len < 2) return;
    topo.add_link(tile_at(0), tile_at(1));
    if (len > 2) topo.add_link(tile_at(len - 2), tile_at(len - 1));
    for (int i = 0; i + 2 < len; ++i) {
      topo.add_link(tile_at(i), tile_at(i + 2));
    }
  };
  for (int r = 0; r < rows; ++r) {
    add_folded_line([r](int i) { return TileCoord{r, i}; }, cols);
  }
  for (int c = 0; c < cols; ++c) {
    add_folded_line([c](int i) { return TileCoord{i, c}; }, rows);
  }
  SHG_REQUIRE(graph::is_connected(topo.graph()),
              "folded torus must be connected");
  return topo;
}

Topology make_hypercube(int rows, int cols) {
  SHG_REQUIRE(is_power_of_two(rows) && is_power_of_two(cols),
              "hypercube requires R and C to be powers of two (Table I)");
  const int n = rows * cols;
  SHG_REQUIRE(n >= 2, "hypercube requires at least 2 tiles");
  Topology topo(Kind::kHypercube, "hypercube", rows, cols);

  const int col_bits = log2_exact(cols);
  const int dims = log2_exact(rows) + col_bits;
  // Gray-coded labels: grid neighbors differ in exactly one bit (Fig. 1e),
  // so the hypercube contains the 2D mesh as a subgraph.
  std::vector<graph::NodeId> label_to_node(static_cast<std::size_t>(n));
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const unsigned label =
          (gray(static_cast<unsigned>(r)) << col_bits) |
          gray(static_cast<unsigned>(c));
      label_to_node[label] = topo.node(r, c);
    }
  }
  for (int label = 0; label < n; ++label) {
    for (int bit = 0; bit < dims; ++bit) {
      const int peer = label ^ (1 << bit);
      if (peer > label) {
        topo.add_link(label_to_node[static_cast<std::size_t>(label)],
                      label_to_node[static_cast<std::size_t>(peer)]);
      }
    }
  }
  return topo;
}

Topology make_flattened_butterfly(int rows, int cols) {
  Topology topo(Kind::kFlattenedButterfly, "flattened_butterfly", rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c1 = 0; c1 < cols; ++c1) {
      for (int c2 = c1 + 1; c2 < cols; ++c2) {
        topo.add_link({r, c1}, {r, c2});
      }
    }
  }
  for (int c = 0; c < cols; ++c) {
    for (int r1 = 0; r1 < rows; ++r1) {
      for (int r2 = r1 + 1; r2 < rows; ++r2) {
        topo.add_link({r1, c}, {r2, c});
      }
    }
  }
  return topo;
}

Topology make_sparse_hamming(int rows, int cols,
                             const std::set<int>& row_skips,
                             const std::set<int>& col_skips) {
  require_valid_skips(rows, cols, row_skips, col_skips);
  std::ostringstream name;
  name << "sparse_hamming SR=" << fmt_int_set(row_skips)
       << " SC=" << fmt_int_set(col_skips);
  Topology topo(Kind::kSparseHamming, name.str(), rows, cols);
  topo.set_shg_params(ShgParams{row_skips, col_skips});

  // Base links: the 2D mesh.
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) topo.add_link({r, c}, {r, c + 1});
      if (r + 1 < rows) topo.add_link({r, c}, {r + 1, c});
    }
  }
  // Additional links: the skip connectivity, via the shared enumeration
  // the product-form screening routes its axes from.
  for_each_skip_link(rows, cols, row_skips, col_skips,
                     [&](TileCoord a, TileCoord b) { topo.add_link(a, b); });
  return topo;
}

ShgLine shg_line(int len, const std::set<int>& skips) {
  SHG_REQUIRE(len >= 1, "line must have at least one tile");
  require_valid_skips(1, len, skips, {});
  // The links ride as an overlay on an edgeless graph of the tiles, so the
  // bit-parallel sweep reads a flat adjacency and building the line costs a
  // handful of allocations.
  std::vector<int> distances{1};
  distances.insert(distances.end(), skips.begin(), skips.end());
  std::vector<graph::Edge> links;
  links.reserve(static_cast<std::size_t>(len) * distances.size());
  std::vector<int> degrees(static_cast<std::size_t>(len), 0);
  for_each_skip_link(1, len, distances, std::vector<int>{},
                     [&](TileCoord a, TileCoord b) {
                       links.push_back(graph::Edge{a.col, b.col});
                       ++degrees[static_cast<std::size_t>(a.col)];
                       ++degrees[static_cast<std::size_t>(b.col)];
                     });
  graph::EdgeOverlay overlay;
  overlay.assign(len, links);
  graph::BitSweepWorkspace ws;
  ShgLine line;
  line.hops = graph::all_pairs_totals(graph::Graph(len), &overlay, ws);
  line.max_degree = *std::max_element(degrees.begin(), degrees.end());
  line.num_links = static_cast<long long>(links.size());
  return line;
}

graph::AllPairsTotals product_hop_totals(int rows, int cols,
                                         const ShgLine& row,
                                         const ShgLine& col) {
  const long long r = rows;
  const long long c = cols;
  graph::AllPairsTotals totals;
  totals.sum = r * r * row.hops.sum + c * c * col.hops.sum;
  totals.reachable_pairs = row.hops.reachable_pairs * col.hops.reachable_pairs;
  totals.diameter = row.hops.diameter + col.hops.diameter;
  return totals;
}

graph::AllPairsTotals shg_hop_totals(int rows, int cols,
                                     const std::set<int>& row_skips,
                                     const std::set<int>& col_skips) {
  SHG_REQUIRE(rows >= 1 && cols >= 1, "grid must have positive dimensions");
  require_valid_skips(rows, cols, row_skips, col_skips);
  return product_hop_totals(rows, cols, shg_line(cols, row_skips),
                            shg_line(rows, col_skips));
}

Topology make_ruche(int rows, int cols, int row_skip, int col_skip) {
  std::set<int> row_skips;
  std::set<int> col_skips;
  if (row_skip >= 2) row_skips.insert(row_skip);
  if (col_skip >= 2) col_skips.insert(col_skip);
  Topology shg = make_sparse_hamming(rows, cols, row_skips, col_skips);
  std::ostringstream name;
  name << "ruche rx=" << row_skip << " ry=" << col_skip;
  Topology topo(Kind::kRuche, name.str(), rows, cols);
  topo.set_shg_params(shg.shg_params());
  for (const auto& edge : shg.graph().edges()) {
    topo.add_link(edge.u, edge.v);
  }
  return topo;
}

double num_configurations(Kind kind, int rows, int cols) {
  switch (kind) {
    case Kind::kRing:
    case Kind::kMesh:
    case Kind::kTorus:
    case Kind::kFoldedTorus:
    case Kind::kFlattenedButterfly:
      return 1.0;
    case Kind::kHypercube:
      return is_power_of_two(rows) && is_power_of_two(cols) ? 1.0 : 0.0;
    case Kind::kSlimNoc: {
      const int n = rows * cols;
      if (n % 2 != 0) return 0.0;
      const int half = n / 2;
      const int p = static_cast<int>(std::lround(std::sqrt(half)));
      return (p * p == half && is_prime_power(p)) ? 1.0 : 0.0;
    }
    case Kind::kSparseHamming:
      // SR has 2^(C-2) subsets of {2..C-1}, SC has 2^(R-2) subsets.
      return std::pow(2.0, rows + cols - 4);
    case Kind::kRuche:
      // One skip distance (or none) per dimension.
      return static_cast<double>((cols - 1) * (rows - 1));
    case Kind::kCustom:
      return 0.0;
  }
  return 0.0;
}

}  // namespace shg::topo
