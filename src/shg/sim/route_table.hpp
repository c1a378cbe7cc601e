// Precomputed routing tables: the simulator's head-flit hot path.
//
// RoutingFunction::route() returns a freshly allocated std::vector per call;
// the router used to invoke it for every head flit reaching the front of a
// VC, i.e. once per packet per hop per cycle of contention. A RouteTable
// evaluates the routing function ONCE per (node, input class, dest) at
// simulator construction and stores the candidate lists in a flat CSR-style
// arena; lookups are three array reads and return a span into the arena —
// no virtual call, no allocation.
//
// State space. The router queries routing in exactly two shapes:
//  * injection: (node, in_port = -1, in_vc = -1, dest) — fresh local packet;
//  * network hop: (node, in_port in [0, degree(node)), in_vc in [0, V), dest).
// Per node that is 1 + degree(node) * V input "slots", each with one routing
// state per destination: rows_for() and num_rows() count these states. The
// table does not store a row per state. RoutingFunction::input_class() maps
// each slot to a key with the contract that equal keys at a node route
// identically for every dest; the table gives each node's distinct keys a
// dense class number in first-appearance slot order and stores one row per
// (node, class, dest). Rows with dest == node are empty (ejection is
// handled by the router directly and never consults routing). Rows whose
// state the routing function itself rejects as unreachable (it throws —
// e.g. an escape-path continuation for an arrival direction the escape
// path never produces) are also stored empty; the simulator never queries
// them, and the router's non-empty assertion reproduces live-mode failure
// if it ever does.
//
// Arena layout (deduplicated CSR):
//   global slot  g = slot_base_[node] + slot,
//                slot = 0 for injection, 1 + in_port * V + in_vc otherwise;
//   class        c = slot_class_[g]   (global: node-major, dense per node);
//   row          r = c * N + dest;
//   unique row   u = row_ids_[r];
//   candidates   arena_[offsets_[u] .. offsets_[u + 1]).
// The build routes one representative slot (the first) per class. Rows
// with identical candidate lists share one arena range behind the row-index
// indirection, and all empty rows (ejection states, states the routing
// function rejects) collapse into a single empty unique row. Classes are
// visited node by node in first-appearance slot order, so the unique rows
// appear in the same order as a sweep of every state would meet them.
// Candidate order within a list is preserved from the routing function
// (the VC allocator tries candidates front to back), so simulation results
// are bit-identical with the table or with live routing.
//
// Size. The row index holds (sum over nodes of their classes) * N entries:
// 3 * 64 * 64 for an 8x8 flattened butterfly at 8 VCs, against 462 848
// routing states. The slot-to-class map adds one entry per slot. The row
// budgets still count routing states (rows_for), which grow with nodes^2:
// 9.2 M for a 32x32 mesh at 2 VCs, 149 M at 64x64. A simulator builds a
// table for its own run only when rows_for() stays within
// kMaxRouteTableRows, and eval::make_shared_route_table builds one for many
// runs within kMaxSharedRouteTableRows; above the budget the engine calls
// the routing function per head flit instead, with bit-identical results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "shg/sim/routing.hpp"

namespace shg::sim {

/// Row budget of a table a Simulator builds for its own run: 1 << 24
/// routing states (rows_for).
inline constexpr std::size_t kMaxRouteTableRows = std::size_t{1} << 24;

/// Row budget of a table shared by many runs (a campaign's cells, a
/// bisection's probes, a session's requests): 1 << 26 routing states. The
/// build is paid once, so the table pays off at larger sizes:
/// on a 4-vCPU x86 VM a default 108-cell campaign runs about as fast with
/// live routing as with tables at 40x40, while at 32x32 (at most 39.6 M
/// rows) the tables save about a fifth of the time under UGAL (PERF.md).
inline constexpr std::size_t kMaxSharedRouteTableRows = std::size_t{1} << 26;

class RouteTable {
 public:
  /// Routing states a table for `topo` at `num_vcs` VCs covers, (N + V *
  /// sum of degrees) * N — exactly num_rows() of the built table, computed
  /// without building it.
  static std::size_t rows_for(const topo::Topology& topo, int num_vcs) {
    const graph::Graph& g = topo.graph();
    const std::size_t n = static_cast<std::size_t>(g.num_nodes());
    const std::size_t degrees = 2 * static_cast<std::size_t>(g.num_edges());
    return (n + static_cast<std::size_t>(num_vcs) * degrees) * n;
  }

  /// Builds the table by querying `routing` once per (node, input class,
  /// dest). The routing function must be total over the state space
  /// described above, and its input_class() must keep its contract.
  RouteTable(const topo::Topology& topo, const RoutingFunction& routing,
             int num_vcs);

  /// Candidates for a head flit at `node` that arrived through `in_port` on
  /// `in_vc` (-1/-1 for injection) and wants to reach `dest` (!= node).
  std::span<const RouteCandidate> lookup(int node, int in_port, int in_vc,
                                         int dest) const {
    const std::size_t slot =
        in_port < 0 ? 0
                    : 1 + static_cast<std::size_t>(in_port) *
                              static_cast<std::size_t>(num_vcs_) +
                          static_cast<std::size_t>(in_vc);
    const std::size_t cls =
        slot_class_[slot_base_[static_cast<std::size_t>(node)] + slot];
    const std::uint32_t unique =
        row_ids_[cls * static_cast<std::size_t>(num_nodes_) +
                 static_cast<std::size_t>(dest)];
    const std::uint32_t begin = offsets_[unique];
    const std::uint32_t end = offsets_[unique + 1];
    return {arena_.data() + begin, arena_.data() + end};
  }

  /// Name of the routing function the table was built from.
  const std::string& routing_name() const { return routing_name_; }

  /// UGAL decision inputs copied from the routing function the table was
  /// built from; nullptr for minimal routings. Lets a shared table carry
  /// everything the router's injection-time UGAL choice needs, so live
  /// routing and table mode stay bit-identical under kUgal too.
  const UgalInfo* ugal_info() const {
    return ugal_.num_nodes > 0 ? &ugal_ : nullptr;
  }

  int num_vcs() const { return num_vcs_; }
  int num_nodes() const { return num_nodes_; }

  /// True iff the table's dimensions (node count and per-node network port
  /// counts) match `topo` — the cheap structural guard against wiring a
  /// shared table into a simulator for a different topology.
  bool matches(const topo::Topology& topo) const {
    if (topo.graph().num_nodes() != num_nodes_) return false;
    for (graph::NodeId u = 0; u < num_nodes_; ++u) {
      if (topo.graph().degree(u) != degree_[static_cast<std::size_t>(u)]) {
        return false;
      }
    }
    return true;
  }

  /// Number of (node, in_port, in_vc, dest) routing states, including
  /// ejection and rejected ones; rows_for(), not the stored row count.
  std::size_t num_rows() const {
    return slot_class_.size() * static_cast<std::size_t>(num_nodes_);
  }

  /// Number of stored (node, class, dest) rows.
  std::size_t num_stored_rows() const { return row_ids_.size(); }

  /// Number of distinct candidate lists after deduplication.
  std::size_t num_unique_rows() const { return offsets_.size() - 1; }

  /// Candidates stored in the (deduplicated) arena.
  std::size_t num_candidates() const { return arena_.size(); }

  /// Candidates the routing function produces across all routing states —
  /// what the arena would hold without deduplication.
  std::size_t num_candidates_undeduped() const {
    return num_candidates_undeduped_;
  }

  /// Bytes of the table (deduplicated arena + offsets + class-keyed row
  /// indirection + per-node slot, degree and slot-to-class indices).
  std::size_t memory_bytes() const {
    return arena_.size() * sizeof(RouteCandidate) +
           offsets_.size() * sizeof(std::uint32_t) +
           row_ids_.size() * sizeof(std::uint32_t) + state_index_bytes() +
           slot_class_.size() * sizeof(std::uint32_t);
  }

  /// Bytes a state-keyed layout without deduplication (one arena range and
  /// one offset per routing state, no class map or indirection) would
  /// occupy for the same routing function.
  std::size_t undeduped_memory_bytes() const {
    return num_candidates_undeduped_ * sizeof(RouteCandidate) +
           (num_rows() + 1) * sizeof(std::uint32_t) + state_index_bytes();
  }

 private:
  std::size_t state_index_bytes() const {
    return slot_base_.size() * sizeof(std::size_t) +
           degree_.size() * sizeof(int);
  }

  int num_nodes_ = 0;
  int num_vcs_ = 0;
  std::vector<std::size_t> slot_base_;  ///< per node: first global slot
  std::vector<int> degree_;             ///< per node: network port count
  std::vector<std::uint32_t> slot_class_;  ///< per global slot: class
  std::vector<std::uint32_t> row_ids_;  ///< per (class, dest): unique row
  std::vector<std::uint32_t> offsets_;  ///< CSR offsets (unique rows + 1)
  std::vector<RouteCandidate> arena_;   ///< deduplicated candidate lists
  std::size_t num_candidates_undeduped_ = 0;
  std::string routing_name_;
  UgalInfo ugal_;  ///< empty (num_nodes == 0) for minimal routings
};

}  // namespace shg::sim
