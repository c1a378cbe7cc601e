#include "shg/sim/routing.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "shg/common/prng.hpp"
#include "shg/graph/shortest_paths.hpp"
#include "shg/graph/spanning_tree.hpp"
#include "shg/sim/config.hpp"

namespace shg::sim {

namespace {

/// Output port of router u toward each neighbour v: port i of router u
/// corresponds to graph().neighbors(u)[i] (network convention). Stored as
/// per-node (neighbour, port) lists sorted by neighbour and searched by
/// bisection: O(edges) memory, where an N x N matrix would take 64 MiB at
/// 64x64 and be rebuilt by every routing function UGAL's escape network
/// nests.
class PortLookup {
 public:
  explicit PortLookup(const graph::Graph& g) {
    begin_.reserve(static_cast<std::size_t>(g.num_nodes()) + 1);
    begin_.push_back(0);
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      const auto& nbrs = g.neighbors(u);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        entries_.emplace_back(nbrs[i].node, static_cast<int>(i));
      }
      std::sort(entries_.begin() + static_cast<std::ptrdiff_t>(begin_.back()),
                entries_.end());
      begin_.push_back(entries_.size());
    }
  }

  /// Output port of u toward v; throws when the two are not adjacent.
  int toward(int u, int v) const {
    const auto first =
        entries_.begin() +
        static_cast<std::ptrdiff_t>(begin_[static_cast<std::size_t>(u)]);
    const auto last =
        entries_.begin() +
        static_cast<std::ptrdiff_t>(begin_[static_cast<std::size_t>(u) + 1]);
    const auto it = std::lower_bound(
        first, last, v,
        [](const std::pair<int, int>& e, int node) { return e.first < node; });
    SHG_ASSERT(it != last && it->first == v,
               "route stepped to a non-neighbor");
    return it->second;
  }

 private:
  std::vector<std::size_t> begin_;  ///< per node: first entry, plus the end
  std::vector<std::pair<int, int>> entries_;  ///< (neighbour, port)
};

/// A 1D "line": the sub-topology within one row (positions = columns) or
/// one column (positions = rows), or the whole ring. Lines are either paths
/// (routed monotonically toward the target, possibly with skip steps) or
/// cycles (routed in the shorter direction with a dateline VC upgrade).
struct Line {
  bool is_cycle = false;
  int length = 0;
  std::vector<std::vector<int>> nbrs;  ///< position -> neighbor positions
  // Cycle-only fields:
  std::vector<int> ring_index;  ///< position -> index along the cycle walk
  std::vector<int> succ;        ///< position -> clockwise neighbor position
  std::vector<int> pred;        ///< position -> counter-clockwise neighbor

  /// Builds the line from its internal adjacency.
  static Line from_adjacency(std::vector<std::vector<int>> nbrs) {
    Line line;
    line.nbrs = std::move(nbrs);
    line.length = static_cast<int>(line.nbrs.size());
    const bool all_degree_two =
        line.length >= 3 &&
        std::all_of(line.nbrs.begin(), line.nbrs.end(),
                    [](const auto& n) { return n.size() == 2; });
    if (!all_degree_two) return line;

    // Walk the cycle starting at position 0 to establish a ring order.
    line.ring_index.assign(static_cast<std::size_t>(line.length), -1);
    line.succ.assign(static_cast<std::size_t>(line.length), -1);
    line.pred.assign(static_cast<std::size_t>(line.length), -1);
    int prev = -1;
    int cur = 0;
    for (int step = 0; step < line.length; ++step) {
      line.ring_index[static_cast<std::size_t>(cur)] = step;
      const auto& n = line.nbrs[static_cast<std::size_t>(cur)];
      const int next = (n[0] == prev) ? n[1] : n[0];
      line.succ[static_cast<std::size_t>(cur)] = next;
      line.pred[static_cast<std::size_t>(next)] = cur;
      prev = cur;
      cur = next;
    }
    // A true single cycle returns to the start after `length` steps.
    if (cur == 0 && std::all_of(line.ring_index.begin(), line.ring_index.end(),
                                [](int r) { return r >= 0; })) {
      line.is_cycle = true;
    }
    return line;
  }

  /// Next-position candidates from `from` toward `to`, most preferred
  /// first. For cycles the single shortest-direction step is returned and
  /// `crosses_dateline` reports whether it traverses the wrap edge.
  void candidates(int from, int to, std::vector<int>* out,
                  bool* crosses_dateline) const {
    out->clear();
    *crosses_dateline = false;
    if (is_cycle) {
      const int L = length;
      const int rf = ring_index[static_cast<std::size_t>(from)];
      const int rt = ring_index[static_cast<std::size_t>(to)];
      const int cw = (rt - rf + L) % L;
      const int ccw = L - cw;
      if (cw <= ccw) {
        out->push_back(succ[static_cast<std::size_t>(from)]);
        *crosses_dateline = rf == L - 1;  // edge (L-1 -> 0)
      } else {
        out->push_back(pred[static_cast<std::size_t>(from)]);
        *crosses_dateline = rf == 0;  // edge (0 -> L-1)
      }
      return;
    }
    // Path line: all monotone steps that do not overshoot, largest first.
    for (int n : nbrs[static_cast<std::size_t>(from)]) {
      const bool improves = std::abs(n - to) < std::abs(from - to);
      const bool monotone = (from < to) ? (n > from && n <= to)
                                        : (n < from && n >= to);
      if (improves && monotone) out->push_back(n);
    }
    std::sort(out->begin(), out->end(), [to](int a, int b) {
      return std::abs(a - to) < std::abs(b - to);
    });
    SHG_ASSERT(!out->empty(),
               "path line must contain unit steps toward the target");
  }
};

/// Shared VC-class plumbing: class 0 = has not crossed a dateline in the
/// current dimension, class 1 = has. When no line is a cycle the entire VC
/// range forms a single class.
struct VcClasses {
  int num_vcs = 1;
  bool split = false;

  RouteCandidate candidate(int port, int cls) const {
    if (!split) return RouteCandidate{port, 0, num_vcs};
    const int half = num_vcs / 2;
    return cls == 0 ? RouteCandidate{port, 0, half}
                    : RouteCandidate{port, half, num_vcs};
  }

  int class_of_vc(int vc) const {
    if (!split || vc < 0) return 0;
    return vc < num_vcs / 2 ? 0 : 1;
  }
};

// ---------------------------------------------------------------------------
// XY-Hamming routing (mesh / FB / SHG / Ruche / torus / folded torus)
// ---------------------------------------------------------------------------

// When every line is a path (mesh / FB / SHG / Ruche), the two dimension
// orders XY and YX are both deadlock-free; splitting the VCs into an
// XY-class and a YX-class (O1TURN) doubles the path diversity at no risk:
// each class's channel dependency graph is acyclic on its own and packets
// never switch class after injection. Grids containing cycles (torus,
// folded torus) instead use the classes for dateline crossing and route
// strictly row-first.
class XYHammingRouting final : public RoutingFunction {
 public:
  XYHammingRouting(const topo::Topology& topo, int num_vcs)
      : topo_(&topo), ports_(topo.graph()) {
    const int rows = topo.rows();
    const int cols = topo.cols();
    // Row lines: positions are columns.
    for (int r = 0; r < rows; ++r) {
      std::vector<std::vector<int>> nbrs(static_cast<std::size_t>(cols));
      for (int c = 0; c < cols; ++c) {
        for (const auto& n : topo.graph().neighbors(topo.node(r, c))) {
          const auto other = topo.coord(n.node);
          SHG_REQUIRE(other.row == r || other.col == c,
                      "XY routing requires axis-aligned links");
          if (other.row == r) {
            nbrs[static_cast<std::size_t>(c)].push_back(other.col);
          }
        }
      }
      row_lines_.push_back(Line::from_adjacency(std::move(nbrs)));
    }
    // Column lines: positions are rows.
    for (int c = 0; c < cols; ++c) {
      std::vector<std::vector<int>> nbrs(static_cast<std::size_t>(rows));
      for (int r = 0; r < rows; ++r) {
        for (const auto& n : topo.graph().neighbors(topo.node(r, c))) {
          const auto other = topo.coord(n.node);
          if (other.col == c && other.row != r) {
            nbrs[static_cast<std::size_t>(r)].push_back(other.row);
          }
        }
      }
      col_lines_.push_back(Line::from_adjacency(std::move(nbrs)));
    }
    const bool any_cycle =
        std::any_of(row_lines_.begin(), row_lines_.end(),
                    [](const Line& l) { return l.is_cycle; }) ||
        std::any_of(col_lines_.begin(), col_lines_.end(),
                    [](const Line& l) { return l.is_cycle; });
    SHG_REQUIRE(!any_cycle || num_vcs >= 2,
                "dateline routing requires at least 2 VCs");
    o1turn_ = !any_cycle && num_vcs >= 2;
    classes_ = VcClasses{num_vcs, any_cycle || o1turn_};
  }

  std::vector<RouteCandidate> route(int node, int in_port, int in_vc,
                                    int dest) const override {
    if (o1turn_) {
      if (in_port < 0) {
        // Injection: offer both dimension orders; whichever class the VC
        // allocator grants determines the packet's order for its lifetime.
        auto result = order_candidates(node, dest, /*row_first=*/true, 0);
        auto yx = order_candidates(node, dest, /*row_first=*/false, 1);
        result.insert(result.end(), yx.begin(), yx.end());
        return result;
      }
      const int cls = classes_.class_of_vc(in_vc);
      return order_candidates(node, dest, /*row_first=*/cls == 0, cls);
    }

    // Dateline mode (torus / folded torus): strict row-first order; the VC
    // class tracks dateline crossings within the current dimension and
    // resets when the packet turns into the column phase (the dimensions
    // have disjoint channel sets, so each starts at class 0).
    const auto at = topo_->coord(node);
    const auto to = topo_->coord(dest);
    const bool column_phase = at.col == to.col;
    // Injected packets, and packets turning into the column phase (a fresh
    // dimension), start at class 0.
    const int cls =
        in_port < 0 || (column_phase && arrived_via_row(node, in_port))
            ? 0
            : classes_.class_of_vc(in_vc);

    std::vector<int> steps;
    bool crosses = false;
    std::vector<RouteCandidate> result;
    if (column_phase) {
      const Line& line = col_lines_[static_cast<std::size_t>(at.col)];
      line.candidates(at.row, to.row, &steps, &crosses);
      for (int r : steps) {
        result.push_back(classes_.candidate(
            ports_.toward(node, topo_->node(r, at.col)), crosses ? 1 : cls));
      }
    } else {
      const Line& line = row_lines_[static_cast<std::size_t>(at.row)];
      line.candidates(at.col, to.col, &steps, &crosses);
      for (int c : steps) {
        result.push_back(classes_.candidate(
            ports_.toward(node, topo_->node(at.row, c)), crosses ? 1 : cls));
      }
    }
    return result;
  }

  // O1TURN reads injection or the VC class (the dimension order); dateline
  // mode reads injection or the arrival axis and the VC class.
  int input_class(int node, int in_port, int in_vc) const override {
    if (in_port < 0) return 0;
    const int cls = classes_.class_of_vc(in_vc);
    if (o1turn_) return 1 + cls;
    return 1 + 2 * (arrived_via_row(node, in_port) ? 1 : 0) + cls;
  }

  std::string name() const override {
    return o1turn_ ? "xy-hamming-o1turn" : "xy-hamming";
  }

 private:
  bool arrived_via_row(int node, int in_port) const {
    const auto& nbrs = topo_->graph().neighbors(node);
    return topo_->coord(nbrs[static_cast<std::size_t>(in_port)].node).row ==
           topo_->coord(node).row;
  }

  /// Monotone candidates for one dimension order (row-first or
  /// column-first) with VCs restricted to `cls`.
  std::vector<RouteCandidate> order_candidates(int node, int dest,
                                               bool row_first,
                                               int cls) const {
    const auto at = topo_->coord(node);
    const auto to = topo_->coord(dest);
    std::vector<int> steps;
    bool crosses = false;
    std::vector<RouteCandidate> result;
    const bool move_in_row =
        row_first ? at.col != to.col : at.row == to.row;
    if (move_in_row) {
      const Line& line = row_lines_[static_cast<std::size_t>(at.row)];
      line.candidates(at.col, to.col, &steps, &crosses);
      for (int c : steps) {
        result.push_back(classes_.candidate(
            ports_.toward(node, topo_->node(at.row, c)), cls));
      }
    } else {
      const Line& line = col_lines_[static_cast<std::size_t>(at.col)];
      line.candidates(at.row, to.row, &steps, &crosses);
      for (int r : steps) {
        result.push_back(classes_.candidate(
            ports_.toward(node, topo_->node(r, at.col)), cls));
      }
    }
    return result;
  }

  const topo::Topology* topo_;
  PortLookup ports_;
  std::vector<Line> row_lines_;
  std::vector<Line> col_lines_;
  VcClasses classes_;
  bool o1turn_ = false;
};

// ---------------------------------------------------------------------------
// Ring routing (single cycle through all tiles)
// ---------------------------------------------------------------------------

class RingRouting final : public RoutingFunction {
 public:
  RingRouting(const topo::Topology& topo, int num_vcs)
      : topo_(&topo), ports_(topo.graph()) {
    const auto& g = topo.graph();
    std::vector<std::vector<int>> nbrs(
        static_cast<std::size_t>(g.num_nodes()));
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      for (const auto& n : g.neighbors(u)) {
        nbrs[static_cast<std::size_t>(u)].push_back(n.node);
      }
    }
    line_ = Line::from_adjacency(std::move(nbrs));
    SHG_REQUIRE(line_.is_cycle, "ring routing requires a single cycle");
    SHG_REQUIRE(num_vcs >= 2, "dateline routing requires at least 2 VCs");
    classes_ = VcClasses{num_vcs, true};
  }

  std::vector<RouteCandidate> route(int node, int /*in_port*/, int in_vc,
                                    int dest) const override {
    std::vector<int> steps;
    bool crosses = false;
    line_.candidates(node, dest, &steps, &crosses);
    const int cls = crosses ? 1 : classes_.class_of_vc(in_vc);
    std::vector<RouteCandidate> result;
    for (int next : steps) {
      result.push_back(classes_.candidate(ports_.toward(node, next), cls));
    }
    return result;
  }

  int input_class(int /*node*/, int /*in_port*/, int in_vc) const override {
    return classes_.class_of_vc(in_vc);
  }

  std::string name() const override { return "ring-dateline"; }

 private:
  const topo::Topology* topo_;
  PortLookup ports_;
  Line line_;
  VcClasses classes_;
};

// ---------------------------------------------------------------------------
// E-cube routing (hypercube, Gray-code grid embedding)
// ---------------------------------------------------------------------------

class EcubeRouting final : public RoutingFunction {
 public:
  EcubeRouting(const topo::Topology& topo, int num_vcs)
      : topo_(&topo), num_vcs_(num_vcs), ports_(topo.graph()) {
    const int n = topo.num_tiles();
    SHG_REQUIRE((n & (n - 1)) == 0, "hypercube needs a power-of-two size");
    int col_bits = 0;
    while ((1 << col_bits) < topo.cols()) ++col_bits;
    label_of_.resize(static_cast<std::size_t>(n));
    node_of_.resize(static_cast<std::size_t>(n));
    for (int r = 0; r < topo.rows(); ++r) {
      for (int c = 0; c < topo.cols(); ++c) {
        const unsigned label =
            (gray(static_cast<unsigned>(r)) << col_bits) |
            gray(static_cast<unsigned>(c));
        label_of_[static_cast<std::size_t>(topo.node(r, c))] =
            static_cast<int>(label);
        node_of_[label] = topo.node(r, c);
      }
    }
  }

  std::vector<RouteCandidate> route(int node, int /*in_port*/, int /*in_vc*/,
                                    int dest) const override {
    const int diff = label_of_[static_cast<std::size_t>(node)] ^
                     label_of_[static_cast<std::size_t>(dest)];
    SHG_ASSERT(diff != 0, "route called with node == dest");
    const int bit = diff & -diff;  // lowest differing dimension
    const int next_label = label_of_[static_cast<std::size_t>(node)] ^ bit;
    const int next = node_of_[static_cast<std::size_t>(next_label)];
    return {RouteCandidate{ports_.toward(node, next), 0, num_vcs_}};
  }

  int input_class(int /*node*/, int /*in_port*/,
                  int /*in_vc*/) const override {
    return 0;
  }

  std::string name() const override { return "e-cube"; }

 private:
  static unsigned gray(unsigned i) { return i ^ (i >> 1); }

  const topo::Topology* topo_;
  int num_vcs_;
  PortLookup ports_;
  std::vector<int> label_of_;
  std::vector<int> node_of_;
};

// ---------------------------------------------------------------------------
// Adaptive minimal + up*/down* escape (arbitrary topologies, e.g. SlimNoC)
// ---------------------------------------------------------------------------

class TableEscapeRouting final : public RoutingFunction {
 public:
  TableEscapeRouting(const topo::Topology& topo, int num_vcs)
      : topo_(&topo), num_vcs_(num_vcs), ports_(topo.graph()) {
    SHG_REQUIRE(num_vcs >= 2,
                "escape-VC routing requires at least 2 VCs (VC0 = escape)");
    hops_ = graph::all_pairs_hops(topo.graph());
    tree_ = graph::bfs_spanning_tree(topo.graph(), 0);
    tables_ = graph::up_down_tables(topo.graph(), tree_);
  }

  std::vector<RouteCandidate> route(int node, int in_port, int in_vc,
                                    int dest) const override {
    std::vector<RouteCandidate> result;
    // Freshly injected packets sit in an arbitrary local-port VC; only
    // packets that traveled a network channel on VC 0 are on the escape
    // class.
    const bool on_escape = in_vc == 0 && in_port >= 0;
    if (!on_escape) {
      // Fully adaptive minimal hops on the adaptive VC class [1, V).
      const int d = hops_[static_cast<std::size_t>(node)]
                         [static_cast<std::size_t>(dest)];
      const auto& nbrs = topo_->graph().neighbors(node);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (hops_[static_cast<std::size_t>(nbrs[i].node)]
                 [static_cast<std::size_t>(dest)] == d - 1) {
          result.push_back(
              RouteCandidate{static_cast<int>(i), 1, num_vcs_});
        }
      }
    }
    // Escape hop: a fresh up*/down* path when joining from an adaptive VC
    // (phase 0), or the continuation of the current escape path (phase
    // derived from the direction of the arrival move).
    bool went_down = false;
    if (on_escape) {
      const int from =
          topo_->graph().neighbors(node)[static_cast<std::size_t>(in_port)]
              .node;
      went_down = !tree_.is_up(from, node);
    }
    const auto& phase = went_down ? tables_.phase1 : tables_.phase0;
    const int escape_next =
        phase[static_cast<std::size_t>(node)][static_cast<std::size_t>(dest)];
    SHG_ASSERT(escape_next >= 0, "escape path must always exist");
    result.push_back(RouteCandidate{ports_.toward(node, escape_next), 0, 1});
    return result;
  }

  // Adaptive (0), or on the escape path after an up move (1, phase 0
  // continues) or a down move (2, phase 1 continues).
  int input_class(int node, int in_port, int in_vc) const override {
    if (in_vc != 0 || in_port < 0) return 0;
    const int from =
        topo_->graph().neighbors(node)[static_cast<std::size_t>(in_port)].node;
    return tree_.is_up(from, node) ? 1 : 2;
  }

  std::string name() const override { return "minimal-adaptive+escape"; }

 private:
  const topo::Topology* topo_;
  int num_vcs_;
  PortLookup ports_;
  std::vector<std::vector<int>> hops_;
  graph::SpanningTree tree_;
  graph::UpDownTables tables_;
};

// ---------------------------------------------------------------------------
// UGAL-class adaptive routing (any family)
// ---------------------------------------------------------------------------

// Adaptive minimal candidates on VCs [kUgalEscapeVcs, V); the family's own
// deadlock-free routing, built for kUgalEscapeVcs VCs, serves as the Duato
// escape network on the reserved classes [0, kUgalEscapeVcs). A packet on an
// adaptive VC is always offered the escape candidates too (appended after
// the adaptive ones, matching TableEscapeRouting's preference order); a
// packet that arrived on an escape VC gets the escape routing's candidates
// verbatim — all inside the escape band — so once on escape it stays there.
// The router consults ugal_info() at injection time for the Valiant
// intermediate and the hop weights of the UGAL occupancy comparison; the
// routing function itself is oblivious to whether a packet is on its
// minimal or non-minimal leg (the router swaps the *destination* it asks
// about).
class UgalRouting final : public RoutingFunction {
 public:
  UgalRouting(const topo::Topology& topo, int num_vcs, std::uint64_t via_seed)
      : topo_(&topo),
        num_vcs_(num_vcs),
        escape_(make_default_routing(topo, kUgalEscapeVcs)) {
    SHG_REQUIRE(num_vcs >= kUgalEscapeVcs + 1,
                "UGAL routing requires at least " +
                    std::to_string(kUgalEscapeVcs + 1) +
                    " VCs (2 escape classes + 1 adaptive)");
    const auto& g = topo.graph();
    const int n = g.num_nodes();
    info_.num_nodes = n;
    const auto flat = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
    info_.via.assign(flat, -1);
    info_.hops.reserve(flat);
    for (const std::vector<int>& row : graph::all_pairs_hops(g)) {
      info_.hops.insert(info_.hops.end(), row.begin(), row.end());
    }
    // One deterministic Valiant intermediate per ordered (src, dest) pair,
    // drawn s-major then d so the table is identical however callers
    // enumerate pairs. The draw is uniform over the n-2 nodes that are
    // neither endpoint (remap around the sorted pair).
    if (n >= 3) {
      shg::Prng rng(via_seed);
      for (int s = 0; s < n; ++s) {
        for (int d = 0; d < n; ++d) {
          if (s == d) continue;
          int x = static_cast<int>(rng.below(static_cast<std::uint64_t>(n - 2)));
          const int a = std::min(s, d);
          const int b = std::max(s, d);
          if (x >= a) ++x;
          if (x >= b) ++x;
          info_.via[static_cast<std::size_t>(s) * static_cast<std::size_t>(n) +
                    static_cast<std::size_t>(d)] =
              static_cast<std::int32_t>(x);
        }
      }
    }
  }

  std::vector<RouteCandidate> route(int node, int in_port, int in_vc,
                                    int dest) const override {
    // Only packets that traveled a network channel on an escape VC are on
    // the escape band; injected packets (in_port == -1) and adaptive-VC
    // arrivals are in the adaptive state.
    const bool on_escape =
        in_port >= 0 && in_vc >= 0 && in_vc < kUgalEscapeVcs;
    if (on_escape) {
      // Stay on escape: the family routing's candidates all live in
      // [0, kUgalEscapeVcs) because it was built for that many VCs.
      return escape_->route(node, in_port, in_vc, dest);
    }
    // Fully adaptive minimal hops on the adaptive VC band. The graph is
    // undirected, so every distance to `dest` sits in its one row.
    std::vector<RouteCandidate> result;
    const int d = info_.hops_between(dest, node);
    const auto& nbrs = topo_->graph().neighbors(node);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (info_.hops_between(dest, nbrs[i].node) == d - 1) {
        result.push_back(
            RouteCandidate{static_cast<int>(i), kUgalEscapeVcs, num_vcs_});
      }
    }
    // Escape entry: ask the family routing as if the packet were freshly
    // injected at this node (in_vc == -1 resolves to its class 0), so any
    // adaptive packet can always fall onto the escape network mid-path.
    auto escape = escape_->route(node, in_port, -1, dest);
    result.insert(result.end(), escape.begin(), escape.end());
    return result;
  }

  // The band, composed with the escape routing's key for the state route()
  // passes it: the arrival itself on the escape band, the escape-entry
  // state (in_vc == -1) on the adaptive band.
  int input_class(int node, int in_port, int in_vc) const override {
    const bool on_escape =
        in_port >= 0 && in_vc >= 0 && in_vc < kUgalEscapeVcs;
    const int key =
        escape_->input_class(node, in_port, on_escape ? in_vc : -1);
    return 2 * key + (on_escape ? 1 : 0);
  }

  std::string name() const override { return "ugal+" + escape_->name(); }

  const UgalInfo* ugal_info() const override { return &info_; }

 private:
  const topo::Topology* topo_;
  int num_vcs_;
  std::unique_ptr<RoutingFunction> escape_;
  UgalInfo info_;
};

}  // namespace

std::unique_ptr<RoutingFunction> make_xy_hamming_routing(
    const topo::Topology& topo, int num_vcs) {
  return std::make_unique<XYHammingRouting>(topo, num_vcs);
}

std::unique_ptr<RoutingFunction> make_ring_routing(const topo::Topology& topo,
                                                   int num_vcs) {
  return std::make_unique<RingRouting>(topo, num_vcs);
}

std::unique_ptr<RoutingFunction> make_ecube_routing(const topo::Topology& topo,
                                                    int num_vcs) {
  return std::make_unique<EcubeRouting>(topo, num_vcs);
}

std::unique_ptr<RoutingFunction> make_table_escape_routing(
    const topo::Topology& topo, int num_vcs) {
  return std::make_unique<TableEscapeRouting>(topo, num_vcs);
}

std::unique_ptr<RoutingFunction> make_default_routing(
    const topo::Topology& topo, int num_vcs) {
  switch (topo.kind()) {
    case topo::Kind::kRing:
      return make_ring_routing(topo, num_vcs);
    case topo::Kind::kMesh:
    case topo::Kind::kFlattenedButterfly:
    case topo::Kind::kSparseHamming:
    case topo::Kind::kRuche:
    case topo::Kind::kTorus:
    case topo::Kind::kFoldedTorus:
      return make_xy_hamming_routing(topo, num_vcs);
    case topo::Kind::kHypercube:
      return make_ecube_routing(topo, num_vcs);
    case topo::Kind::kSlimNoc:
    case topo::Kind::kCustom:
      return make_table_escape_routing(topo, num_vcs);
  }
  return make_table_escape_routing(topo, num_vcs);
}

std::unique_ptr<RoutingFunction> make_ugal_routing(const topo::Topology& topo,
                                                   int num_vcs,
                                                   std::uint64_t via_seed) {
  return std::make_unique<UgalRouting>(topo, num_vcs, via_seed);
}

std::unique_ptr<RoutingFunction> make_policy_routing(const topo::Topology& topo,
                                                     const SimConfig& config) {
  if (effective_routing_policy(config) == RoutingPolicy::kUgal) {
    return make_ugal_routing(topo, config.num_vcs, kUgalViaSeed);
  }
  return make_default_routing(topo, config.num_vcs);
}

}  // namespace shg::sim
