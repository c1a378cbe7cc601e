// Routing functions for the cycle-accurate simulator.
//
// Each topology family gets a provably deadlock-free routing function (the
// per-family deadlock-freedom arguments live in ARCHITECTURE.md, "Deadlock
// freedom by routing family"). The port numbering convention is the one the
// simulation engine (sim/soa_network.hpp) lays out: output/input port i of
// router u talks to topology.graph().neighbors(u)[i].node; endpoint (local)
// ports follow the network ports.
//
//  * XYHammingRouting — mesh / flattened butterfly / sparse Hamming graph /
//    Ruche: route the row dimension first with monotone (never overshoot)
//    skip steps, then the column dimension. Rows/columns that form cycles
//    (torus, folded torus) use shortest-direction routing with a dateline
//    VC-class upgrade instead.
//  * RingRouting — the single-cycle ring topology, dateline scheme.
//  * EcubeRouting — hypercube, ascending bit order.
//  * TableEscapeRouting — arbitrary graphs (SlimNoC): fully adaptive minimal
//    routing on VCs [1, V) with an up*/down* escape path on VC 0
//    (conservative Duato protocol: once on the escape class, stay on it).
//  * UgalRouting — UGAL-class adaptive wrapper over any family: fully
//    adaptive minimal candidates on VCs [kUgalEscapeVcs, V) plus the
//    family's own deadlock-free routing, squeezed onto the reserved escape
//    classes [0, kUgalEscapeVcs), as the Duato escape network. The router
//    consults ugal_info() at injection time for the Valiant intermediate
//    and the hop counts of the minimal/non-minimal legs.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "shg/topo/topology.hpp"

namespace shg::sim {

struct SimConfig;

/// One legal (output port, VC range) choice for a head flit.
struct RouteCandidate {
  int out_port = 0;
  int vc_begin = 0;  ///< allowed VCs: [vc_begin, vc_end)
  int vc_end = 0;
};

/// VCs reserved for the escape network under UGAL routing: adaptive choice
/// lives on [kUgalEscapeVcs, num_vcs), the per-family deadlock-free routing
/// on [0, kUgalEscapeVcs). Two classes because the dateline families need a
/// class pair of their own to stay deadlock-free.
inline constexpr int kUgalEscapeVcs = 2;

/// The UGAL source-decision inputs, precomputed per (src, dest) pair:
/// the seed-drawn Valiant intermediate and the minimal hop distances the
/// router weighs occupancy with. Flat src * num_nodes + dest indexing;
/// via == -1 means no non-minimal alternative exists for the pair (src ==
/// dest, or fewer than three nodes).
struct UgalInfo {
  std::vector<std::int32_t> via;   ///< Valiant intermediate per (src, dest)
  std::vector<std::int32_t> hops;  ///< minimal hop distance per (src, dest)
  int num_nodes = 0;

  std::int32_t via_of(int src, int dest) const {
    return via[static_cast<std::size_t>(src) *
                   static_cast<std::size_t>(num_nodes) +
               static_cast<std::size_t>(dest)];
  }
  std::int32_t hops_between(int src, int dest) const {
    return hops[static_cast<std::size_t>(src) *
                    static_cast<std::size_t>(num_nodes) +
                static_cast<std::size_t>(dest)];
  }
};

/// Interface: given where a head flit is (router `node`, arrived through
/// `in_port` on VC `in_vc`; in_port == -1 for freshly injected packets) and
/// where it wants to go, list the legal next hops. Candidates are ordered by
/// preference (the VC allocator tries them front to back).
class RoutingFunction {
 public:
  virtual ~RoutingFunction() = default;

  /// Precondition: node != dest (ejection is handled by the router).
  virtual std::vector<RouteCandidate> route(int node, int in_port, int in_vc,
                                            int dest) const = 0;

  /// Input class of the state (node, in_port, in_vc), in_port == -1 and
  /// in_vc == -1 for injection: a small non-negative key computed from
  /// exactly the inputs route() reads besides `dest`. Contract: two states
  /// at the same node with the same key return the same candidates from
  /// route() for every dest, or both throw. A key may be finer than needed
  /// (it only costs table rows), never coarser. RouteTable stores one row
  /// per (node, class, dest) on the strength of this contract.
  virtual int input_class(int node, int in_port, int in_vc) const = 0;

  /// Human-readable name for reports.
  virtual std::string name() const = 0;

  /// Non-null only for UGAL-class routing: the per-pair Valiant
  /// intermediates and hop counts the router's injection-time decision
  /// needs. Minimal routings return nullptr and the router never consults
  /// occupancy.
  virtual const UgalInfo* ugal_info() const { return nullptr; }
};

/// Monotone XY routing over row/column "lines" with per-line path or
/// dateline-cycle behaviour; covers mesh, FB, SHG, Ruche, torus and folded
/// torus. Requires num_vcs >= 2 when any line is a cycle.
std::unique_ptr<RoutingFunction> make_xy_hamming_routing(
    const topo::Topology& topo, int num_vcs);

/// Dateline routing on the single cycle of a ring topology.
std::unique_ptr<RoutingFunction> make_ring_routing(const topo::Topology& topo,
                                                   int num_vcs);

/// Dimension-order (ascending bit) routing for the hypercube.
std::unique_ptr<RoutingFunction> make_ecube_routing(const topo::Topology& topo,
                                                    int num_vcs);

/// Adaptive minimal + up*/down* escape VC for arbitrary topologies.
/// Requires num_vcs >= 2.
std::unique_ptr<RoutingFunction> make_table_escape_routing(
    const topo::Topology& topo, int num_vcs);

/// Default deadlock-free routing for a topology family.
std::unique_ptr<RoutingFunction> make_default_routing(
    const topo::Topology& topo, int num_vcs);

/// UGAL-class adaptive routing over any family: adaptive minimal candidates
/// on VCs [kUgalEscapeVcs, num_vcs), the family default routing (built for
/// kUgalEscapeVcs VCs) as the Duato escape network on [0, kUgalEscapeVcs),
/// and Valiant intermediates drawn deterministically from `via_seed`.
/// Requires num_vcs >= kUgalEscapeVcs + 1.
std::unique_ptr<RoutingFunction> make_ugal_routing(const topo::Topology& topo,
                                                   int num_vcs,
                                                   std::uint64_t via_seed);

/// The Valiant-intermediate seed make_policy_routing passes to
/// make_ugal_routing. Fixed rather than derived from SimConfig::seed, so an
/// injection-seed sweep shares one route table.
inline constexpr std::uint64_t kUgalViaSeed = 0x9e3779b97f4a7c15ull;

/// Routing for the policy `config` selects: make_default_routing for an
/// effective kMinimal policy, make_ugal_routing(num_vcs, kUgalViaSeed) for
/// effective kUgal (see effective_routing_policy in sim/config.hpp).
std::unique_ptr<RoutingFunction> make_policy_routing(const topo::Topology& topo,
                                                     const SimConfig& config);

}  // namespace shg::sim
