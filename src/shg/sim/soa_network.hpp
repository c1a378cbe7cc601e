// Structure-of-arrays simulation engine: the simulator's only engine.
//
// Its results are pinned bit for bit by the golden corpus
// (tests/golden/sim_results.txt), recorded while an object-per-router
// reference engine still ran alongside it. The corpus fixes the PRNG draw
// order, the allocator decisions, the floating-point accumulation order
// and the cycle count. Four design choices keep the engine fast without
// changing any of them:
//
//  * Flat slabs instead of per-object deques. Input-VC buffers live in
//    fixed-capacity ring buffers inside a network-owned arena indexed by
//    (router, port, vc); a flit is a 16-byte {cycle, packet, flags} entry
//    and per-packet metadata (src, dest, eject port, hop count) lives in
//    packet-indexed arrays filled once at generation. No push_back/pop_front
//    churn, no pointer chasing, no per-flit copies of cold fields.
//
//  * An arrival wheel instead of channel polling. A flit or credit sent
//    over a channel of latency L at cycle t is filed into the bucket of
//    cycle t + L; each cycle first lands its whole bucket, then runs the
//    routers. Nothing sent at t lands before t + 1 and every arrival
//    touches only its own slot or credit counter, so this equals landing
//    each arrival just before its router runs.
//
//  * Work sets instead of sweeps. Every router carries a work counter
//    (buffered flits + NI-queued flits + flits and credits on the wheel
//    bound for it); only routers with work are processed. Inside a router,
//    per-port VC bitmasks (fresh heads, VCs waiting for an output VC, active
//    VCs holding a flit) let route computation and VC and switch allocation
//    visit only their eligible slots, in the order a full scan would.
//    Router phases commute across routers, except that ejection statistics
//    must accumulate in ascending tile order — ejections therefore collect
//    into a per-cycle buffer that is stable-sorted by tile before the
//    statistics pass.
//
//  * Whole-network quiescence fast-forward. The injection schedule is a
//    pure function of the seed (no draw depends on network state, source
//    queues are unbounded), so it is pre-generated draw-for-draw. When
//    nothing is in flight — no flit anywhere AND no credit on a channel —
//    every cycle until the next scheduled injection is a provable no-op and
//    `now` jumps there directly, preserving the exact cycle count a
//    cycle-by-cycle loop reports.
//
// See ARCHITECTURE.md ("Simulator hot loop") for the invariants that make
// these equivalences exact.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "shg/sim/config.hpp"
#include "shg/sim/injection.hpp"
#include "shg/sim/route_table.hpp"
#include "shg/sim/routing.hpp"
#include "shg/sim/simulator.hpp"
#include "shg/sim/traffic.hpp"
#include "shg/topo/topology.hpp"

namespace shg::sim {

/// One-shot engine: construct, run(), discard. The Simulator front end
/// owns topology/routing/table/process and constructs one engine per run.
class SoaEngine {
 public:
  /// `routing` may be null only when `table` is non-null (table mode);
  /// `process` must be non-null and is reset() by run().
  SoaEngine(const topo::Topology& topo, const std::vector<int>& link_latencies,
            const SimConfig& config, const TrafficPattern& pattern,
            int endpoints_per_tile, const RoutingFunction* routing,
            const RouteTable* table, InjectionProcess* process);

  /// Runs warmup + measurement + drain and returns the statistics.
  SimResult run();

  /// Packets sent on a UGAL non-minimal leg (0 under an effective kMinimal
  /// policy).
  long long ugal_nonminimal() const { return ugal_nonminimal_; }

 private:
  // Flags on buffered/in-flight flit entries.
  static constexpr std::uint8_t kHead = 1;
  static constexpr std::uint8_t kTail = 2;
  // Input-VC allocation states.
  static constexpr std::uint8_t kIdle = 0;
  static constexpr std::uint8_t kVcAlloc = 1;
  static constexpr std::uint8_t kActive = 2;

  /// A flit waiting in an input-VC buffer slab.
  struct BufFlit {
    Cycle ready = 0;  ///< earliest switchable cycle (router pipeline delay)
    std::int32_t pkt = 0;
    std::uint8_t flags = 0;
  };
  /// A flit or credit in flight on a channel, filed in the arrival-wheel
  /// bucket of the cycle it lands in.
  struct Arrival {
    std::int32_t router = 0;  ///< receiving router
    std::int32_t port = 0;    ///< flat port: input (flit), output (credit)
    std::int32_t pkt = 0;
    std::int16_t vc = 0;
    std::uint8_t flags = 0;
    std::uint8_t credit = 0;  ///< 1 = credit for output VC (port, vc)
  };
  /// One ejected flit, buffered per cycle and sorted by tile so statistics
  /// accumulate in the order the golden corpus pins.
  struct EjectRec {
    std::int32_t tile = 0;
    std::int32_t pkt = 0;
    std::uint8_t flags = 0;
  };
  /// Growable ring of packet ids (an NI source queue; unbounded, one entry
  /// per packet).
  struct PktRing {
    std::vector<std::int32_t> buf;
    std::size_t head = 0;
    std::size_t count = 0;

    void push(std::int32_t id);
    std::int32_t front() const { return buf[head]; }
    void pop() {
      head = head + 1 == buf.size() ? 0 : head + 1;
      --count;
    }
  };

  // (router, port, vc) -> flat slot id; buffers slab-index at slot * depth.
  std::size_t slot(int r, int port, int vc) const {
    return (port_base_[static_cast<std::size_t>(r)] +
            static_cast<std::size_t>(port)) *
               static_cast<std::size_t>(vcs_) +
           static_cast<std::size_t>(vc);
  }

  void build_fabric(const topo::Topology& topo,
                    const std::vector<int>& link_latencies);
  /// Draws the whole injection schedule into the per-packet arrays.
  void pregenerate(const topo::Topology& topo);

  void activate(int r) {
    if (!queued_[static_cast<std::size_t>(r)]) {
      queued_[static_cast<std::size_t>(r)] = 1;
      active_.push_back(r);
    }
  }

  /// Lands every flit and credit due at `now` (the current wheel bucket).
  void deliver_due(Cycle now);
  void ni_inject(int r, Cycle now);
  void allocate(int r, Cycle now);
  void compute_route(int r, int port, int vc, std::size_t s);
  /// The one routing lookup: candidates for a head flit at router r that
  /// arrived through (in_port, in_vc) (-1/-1 for injection) and heads for
  /// `dest`. A span into the route table when there is one; otherwise the
  /// routing function's answer, stored in slot s's live vector.
  std::span<const RouteCandidate> candidates(int r, int in_port, int in_vc,
                                             int dest, std::size_t s);
  void set_routes(std::size_t s, std::span<const RouteCandidate> routes) {
    ivc_routes_[s] = routes.data();
    ivc_routes_len_[s] = static_cast<std::int32_t>(routes.size());
  }

  /// UGAL-mode route computation: injection-time minimal/non-minimal
  /// decision, via-leg candidate splice, escape-band passthrough.
  void compute_route_ugal(int r, std::size_t s, int in_port, int in_vc,
                          std::int32_t pkt, int dest);
  /// Output port of the first injection-row candidate toward `to`; slot s
  /// serves as candidates()'s live vector.
  int first_port(int r, int to, std::size_t s);
  /// Downstream adaptive-band occupancy of router r's output `port`.
  int adaptive_occupancy(int r, int port) const;
  /// Appends the adaptive (or escape) band of the (in_port, in_vc) row
  /// toward `to` onto splice_.
  void append_band(int r, std::size_t s, int in_port, int in_vc, int to,
                   bool adaptive);

  /// Appends a flit to input VC (flat `port`, vc) of router r and updates
  /// the slot's allocator masks.
  void buffer_flit(int r, std::size_t port, int vc, Cycle ready,
                   std::int32_t pkt, std::uint8_t flags);
  /// Files a flit (downstream) or credit (upstream) on channel c into the
  /// bucket of the cycle it lands in.
  void send(int c, std::int32_t pkt, int vc, std::uint8_t flags, bool credit);

  // --- Configuration (copied out of SimConfig for tight loop access) -----
  SimConfig config_;
  const TrafficPattern* pattern_;
  const RoutingFunction* routing_;
  const RouteTable* table_;
  InjectionProcess* process_;
  int num_routers_ = 0;
  int local_ports_ = 0;  ///< endpoint ports per tile
  int vcs_ = 0;
  int depth_ = 0;        ///< input buffer depth, flits
  int pkt_flits_ = 0;    ///< flits per packet
  int delay_ = 0;        ///< router pipeline delay, cycles
  int max_ports_ = 0;
  bool ugal_mode_ = false;
  const UgalInfo* ugal_info_ = nullptr;
  long long ugal_nonminimal_ = 0;

  // --- Fabric layout ------------------------------------------------------
  std::vector<int> net_ports_;          ///< per router
  std::vector<std::size_t> port_base_;  ///< per router: first flat port id
  std::vector<int> in_chan_;            ///< per flat net port: channel in
  std::vector<int> out_chan_;           ///< per flat net port: channel out
  std::vector<int> chan_src_;           ///< per channel: producing router
  std::vector<int> chan_dst_;           ///< per channel: consuming router
  std::vector<int> chan_lat_;           ///< per channel: latency, cycles
  std::vector<std::int32_t> chan_src_port_;  ///< per channel: flat out port
  std::vector<std::int32_t> chan_dst_port_;  ///< per channel: flat in port

  // --- Hot state slabs ----------------------------------------------------
  std::vector<BufFlit> buf_;              ///< input VC buffers, slot * depth
  std::vector<std::uint16_t> buf_head_;   ///< per slot: ring head
  std::vector<std::uint16_t> buf_count_;  ///< per slot: occupancy
  /// Arrival wheel: bucket b holds what lands in the cycle t with
  /// t % wheel_.size() == b; wheel_.size() is the longest latency + 1.
  std::vector<std::vector<Arrival>> wheel_;
  std::size_t due_bucket_ = 0;  ///< bucket of the current cycle
  std::size_t bucket_cap_ = 0;  ///< two entries per channel

  // Input-VC allocation state (per slot).
  std::vector<std::uint8_t> ivc_state_;
  std::vector<std::int32_t> ivc_out_port_;
  std::vector<std::int32_t> ivc_out_vc_;
  std::vector<const RouteCandidate*> ivc_routes_;
  std::vector<std::int32_t> ivc_routes_len_;
  std::vector<RouteCandidate> ivc_eject_;  ///< per slot: ejection candidate
  std::vector<std::vector<RouteCandidate>> ivc_live_;  ///< live-routing mode
  std::vector<RouteCandidate> splice_;  ///< UGAL via-leg row under assembly

  // Output-VC state (per slot) and rotating allocator priorities.
  std::vector<std::uint8_t> ovc_busy_;
  std::vector<std::int32_t> ovc_credits_;
  std::vector<std::int32_t> va_rr_;      ///< per slot
  std::vector<std::int32_t> sa_in_rr_;   ///< per flat port
  std::vector<std::int32_t> sa_out_rr_;  ///< per flat port

  // Allocator work sets, one bit per VC of a flat port, so each phase
  // visits exactly its eligible slots in ascending (port, VC) order.
  std::vector<std::uint64_t> fresh_;     ///< idle slot holding a head
  std::vector<std::uint64_t> waiting_;   ///< slot in kVcAlloc
  std::vector<std::uint64_t> sendable_;  ///< kActive slot with a flit
  // Router-level skip gates: a phase with zero eligible slots grants
  // nothing and moves no round-robin pointer, so skipping it is
  // bit-identical to running it.
  std::vector<std::int32_t> route_pending_;  ///< per router: fresh slots
  std::vector<std::int32_t> va_pending_;     ///< per router: slots in kVcAlloc
  std::vector<std::int32_t> active_ivcs_;    ///< per router: slots in kActive

  // Network interfaces (per tile * local port).
  std::vector<PktRing> ni_queue_;
  std::vector<std::int32_t> ni_front_flit_;
  std::vector<std::int32_t> ni_open_vc_;
  std::vector<std::int32_t> ni_next_vc_;

  // Worklist.
  std::vector<long long> work_;      ///< per router: flits + credits pending
  std::vector<long long> buffered_;  ///< per router: flits in input VCs
  std::vector<std::uint8_t> queued_;
  std::vector<int> active_;
  long long total_flits_ = 0;    ///< NI queues + buffers + channels
  long long total_credits_ = 0;  ///< credits on channels

  // Per-packet metadata (filled by pregenerate; index = packet id).
  std::vector<Cycle> pk_create_;
  std::vector<std::int32_t> pk_src_;
  std::vector<std::int32_t> pk_dest_;
  std::vector<std::int32_t> pk_port_;        ///< source endpoint port
  std::vector<std::int32_t> pk_eject_port_;  ///< -1 = spread by packet id
  std::vector<std::int32_t> pk_hops_;
  /// UGAL Valiant intermediate per packet; -1 = minimal / already reached.
  /// Only the head flit reads it, and the head exists in exactly one buffer
  /// at a time, so one per-packet slot holds the whole state (the golden
  /// corpus pins the UGAL cases, non-minimal counts included).
  std::vector<std::int32_t> pk_via_;
  std::vector<std::uint8_t> pk_measured_;
  std::vector<std::uint8_t> pk_done_;
  long long measured_created_ = 0;
  std::size_t sched_ptr_ = 0;

  // Per-cycle scratch.
  std::vector<EjectRec> eject_buf_;
  std::vector<std::pair<int, int>> va_requests_;
  std::vector<int> sa_request_port_;
  std::vector<int> sa_request_vc_;
  std::vector<int> sa_req_in_;   ///< input ports that nominated this cycle
  std::vector<int> sa_req_ops_;  ///< distinct requested out ports, ascending
};

}  // namespace shg::sim
