// Input-queued virtual-channel router.
//
// Microarchitecture (one cycle per hop, matching the paper's assumption
// that every router adds at least one cycle):
//  * per input port: V virtual channels, each a D-flit FIFO;
//  * route computation when a head flit reaches the front of its VC;
//  * separable VC allocation (round-robin per output VC);
//  * separable switch allocation (input-first: round-robin VC pick per
//    input port, then round-robin input pick per output port);
//  * credit-based flow control: one credit per freed buffer slot travels
//    back across the upstream channel.
//
// Port convention: ports [0, num_net_ports) attach to channels toward
// graph().neighbors(node)[i]; ports [num_net_ports, num_net_ports +
// num_local_ports) attach to the tile's endpoints (injection/ejection).
#pragma once

#include <deque>
#include <span>
#include <vector>

#include "shg/sim/channel.hpp"
#include "shg/sim/config.hpp"
#include "shg/sim/route_table.hpp"
#include "shg/sim/routing.hpp"

namespace shg::sim {

class Router {
 public:
  /// With a non-null `table`, head-flit route computation is a table lookup
  /// (no virtual call, no allocation); otherwise `routing` is called live.
  Router(int node, int num_net_ports, int num_local_ports,
         const SimConfig& config, const RoutingFunction* routing,
         const RouteTable* table = nullptr);

  int node() const { return node_; }
  int num_ports() const { return num_net_ports_ + num_local_ports_; }

  /// Wires network port `port` (input side: flits arriving from the
  /// neighbor; output side: flits leaving toward the neighbor).
  void attach(int port, Channel* in_channel, Channel* out_channel);

  /// Injection from the network interface: appends a flit to local input
  /// port `local_port` on `vc` if the buffer has space. Returns success.
  /// Injection costs one router delay, so the flit is switchable at
  /// now + router_delay_cycles ("1 cycle to inject the flit", Section IV-C).
  bool try_inject(int local_port, int vc, const Flit& flit, Cycle now);

  /// Free slots in a local input VC (used by the NI to pick VCs).
  int local_vc_space(int local_port, int vc) const;

  /// Phase 1 of a cycle: receive flits and credits from channels.
  void deliver_phase(Cycle now);

  /// Phase 2 of a cycle: route computation, VC allocation, switch
  /// allocation and traversal; pushes flits/credits into channels.
  void allocate_phase(Cycle now);

  /// Flits ejected to this tile's endpoints during the last allocate_phase;
  /// drained by the network interface each cycle.
  std::vector<Flit>& ejected() { return ejected_; }

  /// Total buffered flits (for progress/deadlock accounting). O(1): the
  /// router maintains the count as flits enter and leave its input VCs.
  long long buffered_flits() const { return buffered_; }

  /// Packets this router sent on a UGAL non-minimal leg (source routers
  /// only; always 0 under an effective kMinimal policy).
  long long ugal_nonminimal() const { return ugal_nonminimal_; }

 private:
  struct InputVc {
    std::deque<Flit> buffer;
    enum class State { kIdle, kVcAlloc, kActive } state = State::kIdle;
    /// Candidates of the head packet: a view into the route table's arena,
    /// into `live_candidates`, or over `eject` — valid until the tail leaves.
    std::span<const RouteCandidate> routes;
    std::vector<RouteCandidate> live_candidates;  ///< live-routing mode only
    RouteCandidate eject;                         ///< ejection storage
    int out_port = -1;
    int out_vc = -1;
  };
  struct OutputVc {
    bool busy = false;
    int credits = 0;
  };

  InputVc& in_vc(int port, int vc) {
    return input_vcs_[static_cast<std::size_t>(port * config_.num_vcs + vc)];
  }
  const InputVc& in_vc(int port, int vc) const {
    return input_vcs_[static_cast<std::size_t>(port * config_.num_vcs + vc)];
  }
  OutputVc& out_vc(int port, int vc) {
    return output_vcs_[static_cast<std::size_t>(port * config_.num_vcs + vc)];
  }

  bool is_local_port(int port) const { return port >= num_net_ports_; }

  /// Computes route candidates for the head flit of (port, vc).
  void compute_route(int port, int vc);

  /// UGAL-mode route computation for a non-ejecting head: the injection-time
  /// minimal/non-minimal decision, the via-leg candidate splice and the
  /// escape-band passthrough (see compute_route).
  void compute_route_ugal(InputVc& ivc, int in_port, int in_vc);

  /// Candidate row for state (in_port, in_vc) toward `dest`: a table lookup
  /// or a live routing call materialized into `storage`.
  std::span<const RouteCandidate> row(int in_port, int in_vc, int dest,
                                      std::vector<RouteCandidate>& storage)
      const;

  /// Flits occupying the downstream adaptive-band buffers of `out_port`
  /// (buffer depth minus credits, summed over VCs [kUgalEscapeVcs, V)) —
  /// the congestion estimate of the UGAL source decision.
  int adaptive_occupancy(int out_port);

  int node_;
  int num_net_ports_;
  int num_local_ports_;
  SimConfig config_;
  const RoutingFunction* routing_;
  const RouteTable* table_;
  bool ugal_mode_ = false;
  const UgalInfo* ugal_info_ = nullptr;
  long long ugal_nonminimal_ = 0;

  std::vector<Channel*> in_channels_;   ///< per port; null for local ports
  std::vector<Channel*> out_channels_;  ///< per port; null for local ports
  long long buffered_ = 0;              ///< flits across all input VCs
  std::vector<InputVc> input_vcs_;      ///< [port][vc] flattened
  std::vector<OutputVc> output_vcs_;    ///< [port][vc] flattened
  std::vector<Flit> ejected_;

  // Rotating-priority state for the allocators.
  std::vector<int> va_rr_;      ///< per output VC
  std::vector<int> sa_in_rr_;   ///< per input port
  std::vector<int> sa_out_rr_;  ///< per output port

  // Scratch buffers reused across cycles to avoid per-cycle allocation.
  std::vector<std::pair<int, int>> va_requests_;  ///< (outVC key, inVC key)
  std::vector<int> sa_request_port_;  ///< per input port: requested out port
  std::vector<int> sa_request_vc_;    ///< per input port: chosen input VC
};

}  // namespace shg::sim
