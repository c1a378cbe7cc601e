// Structure-of-arrays simulation engine: the simulator's only engine.
//
// Its results are pinned bit for bit by the golden corpus
// (tests/golden/sim_results.txt), recorded while an object-per-router
// reference engine still ran alongside it. The corpus fixes the PRNG draw
// order, the allocator decisions and the cycle count. Four design choices
// keep the engine fast without changing any of them:
//
//  * Flat slabs instead of per-object deques. Input-VC buffers live in
//    fixed-capacity ring buffers inside a network-owned arena indexed by
//    (router, port, vc); a flit is an 8-byte {32-bit ready cycle, packet
//    id << 2 | flags} entry, both widths checked limits (kMaxCycleHorizon,
//    kMaxPackets).
//    Each (router, port, vc) slot keeps its input-VC state in one record
//    and its output-VC state in another, and per-packet metadata (src,
//    dest, eject port, hop count) lives in packet-indexed arrays filled
//    once at generation. No push_back/pop_front churn, no pointer chasing,
//    no per-flit copies of cold fields.
//
//  * An arrival wheel instead of channel polling. A flit or credit sent
//    over a channel of latency L at cycle t is filed into the bucket of
//    cycle t + L; each cycle first lands its whole bucket, then runs the
//    routers. Nothing sent at t lands before t + 1 and every arrival
//    touches only its own slot or credit counter, so this equals landing
//    each arrival just before its router runs.
//
//  * Wake on events instead of sweeps. A router is processed only while a
//    flit is buffered at it or queued at its NI; a landing flit puts it on
//    the worklist, and credits are applied by the wheel alone. Inside a
//    router, per-port VC bitmasks (fresh heads, heads waiting for an output
//    VC, sendable VCs: active, holding a flit and a credit) and a set of
//    the ports holding a sendable VC (ceil(ports / 64) words) let route
//    computation and VC and switch allocation visit only their eligible
//    slots, in the order a full scan would. A waiting head that finds no
//    free output VC parks until an event at its router could free one (a
//    tail leaving, or in UGAL mode a credit reaching an idle output VC), and
//    a VC whose output VC runs dry leaves the sendable set until a credit
//    returns. Router phases commute across routers, and the ejection
//    harvest folds only integer-valued samples, which makes its sums exact
//    in any order.
//
//  * Whole-network quiescence fast-forward. The injection schedule is a
//    pure function of the seed or the trace (no draw depends on network
//    state, source queues are unbounded), so the constructor generates it
//    whole (generate_packets, sim/injection.hpp). When
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
/// owns topology/routing/table/injection and constructs one engine per run.
class SoaEngine {
 public:
  /// `routing` may be null only when `table` is non-null (table mode);
  /// `pattern` is null exactly when `injection` is a trace replay. The
  /// constructor generates the whole packet schedule.
  SoaEngine(const topo::Topology& topo, const std::vector<int>& link_latencies,
            const SimConfig& config, const TrafficPattern* pattern,
            int endpoints_per_tile, const RoutingFunction* routing,
            const RouteTable* table, const Injection& injection);

  /// Runs warmup + measurement + drain and returns the statistics.
  SimResult run();

  /// Packets sent on a UGAL non-minimal leg (0 under an effective kMinimal
  /// policy).
  long long ugal_nonminimal() const { return ugal_nonminimal_; }

 private:
  // Flags on buffered/in-flight flit entries.
  static constexpr std::uint8_t kHead = 1;
  static constexpr std::uint8_t kTail = 2;
  static constexpr int kFlagBits = 2;  ///< below a buffered packet id
  /// Packets a schedule may hold: ids below 2^30 fit beside the flags.
  static constexpr std::size_t kMaxPackets = std::size_t{1} << 30;
  // Input-VC allocation states.
  static constexpr std::uint8_t kIdle = 0;
  static constexpr std::uint8_t kVcAlloc = 1;
  static constexpr std::uint8_t kActive = 2;

  /// A flit waiting in an input-VC buffer slab, the largest structure a run
  /// allocates: its earliest switchable cycle (router pipeline delay) and
  /// packet id << kFlagBits | kHead | kTail.
  struct BufFlit {
    std::uint32_t ready = 0;
    std::uint32_t pkt_flags = 0;

    std::int32_t pkt() const {
      return static_cast<std::int32_t>(pkt_flags >> kFlagBits);
    }
    std::uint8_t flags() const { return pkt_flags & (kHead | kTail); }
  };
  static_assert(sizeof(BufFlit) == 8 && kMaxCycleHorizon == UINT32_MAX);
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
  /// One ejected flit, buffered until the cycle's statistics pass.
  struct EjectRec {
    std::int32_t tile = 0;
    std::int32_t pkt = 0;
    std::uint8_t flags = 0;
  };
  /// The input VC of one (router, port, vc) slot; its buffer ring lives in
  /// buf_ at slot * depth.
  struct InVc {
    const RouteCandidate* routes = nullptr;  ///< candidates (kVcAlloc)
    std::int32_t routes_len = 0;
    std::int32_t out_port = -1;  ///< granted output port (kActive)
    std::int32_t out_slot = -1;  ///< granted output VC's slot (kActive)
    std::int32_t port = 0;       ///< this slot's flat port
    std::uint16_t head = 0;      ///< buffer ring head
    std::uint16_t count = 0;     ///< buffer ring occupancy
    std::uint8_t vc = 0;         ///< this slot's VC
    std::uint8_t out_vc = 0;     ///< granted output VC (kActive)
    std::uint8_t state = kIdle;  ///< kIdle, kVcAlloc or kActive
  };
  /// The output VC of one (router, port, vc) slot.
  struct OutVc {
    std::int32_t owner = -1;     ///< input slot holding it, or -1
    std::int32_t credits = 0;
    std::int32_t va_rr = 0;      ///< VC-allocation round-robin pointer
    std::int32_t va_claim = -1;  ///< this cycle's leading requester, or -1
  };
  /// A directed channel.
  struct Channel {
    std::int32_t src = 0;       ///< producing router
    std::int32_t dst = 0;       ///< consuming router
    std::int32_t src_port = 0;  ///< flat output port at src
    std::int32_t dst_port = 0;  ///< flat input port at dst
    std::int32_t lat = 0;       ///< latency, cycles
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
  /// Generates the whole packet schedule (generate_packets) into the
  /// per-packet arrays; throws past kMaxPackets packets.
  void pregenerate(const topo::Topology& topo, const TrafficPattern* pattern,
                   const Injection& injection);

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
    ivc_[s].routes = routes.data();
    ivc_[s].routes_len = static_cast<std::int32_t>(routes.size());
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
  /// Sets or clears VC `bit` of router r's flat input port `pf` in
  /// sendable_, keeping the router's sendable-port set in step.
  void mark_sendable(int r, std::size_t pf, std::uint64_t bit);
  void clear_sendable(int r, std::size_t pf, std::uint64_t bit);
  /// Returns every parked head of router r to VC allocation.
  void wake_parked(int r);
  /// Files a flit (downstream) or credit (upstream) on channel c into the
  /// bucket of the cycle it lands in.
  void send(int c, std::int32_t pkt, int vc, std::uint8_t flags, bool credit);

  // --- Configuration (copied out of SimConfig for tight loop access) -----
  SimConfig config_;
  const RoutingFunction* routing_;
  const RouteTable* table_;
  int num_routers_ = 0;
  int local_ports_ = 0;  ///< endpoint ports per tile
  int vcs_ = 0;
  int depth_ = 0;        ///< input buffer depth, flits
  int pkt_flits_ = 0;    ///< flits per packet
  int delay_ = 0;        ///< router pipeline delay, cycles
  int max_ports_ = 0;
  int port_words_ = 0;   ///< words of a port set: ceil(max_ports_ / 64)
  bool ugal_mode_ = false;
  const UgalInfo* ugal_info_ = nullptr;
  long long ugal_nonminimal_ = 0;

  // --- Fabric layout ------------------------------------------------------
  std::vector<int> net_ports_;          ///< per router
  std::vector<std::size_t> port_base_;  ///< per router: first flat port id
  std::vector<int> in_chan_;            ///< per flat net port: channel in
  std::vector<int> out_chan_;           ///< per flat net port: channel out
  std::vector<Channel> chans_;

  // --- Hot state slabs ----------------------------------------------------
  std::vector<BufFlit> buf_;  ///< input VC buffers, slot * depth
  std::vector<InVc> ivc_;
  std::vector<OutVc> ovc_;
  /// Arrival wheel: bucket b (bucket_cap_ entries from b * bucket_cap_,
  /// wheel_len_[b] of them filed) holds what lands in the cycle t with
  /// t % wheel_len_.size() == b; there are longest latency + 1 buckets.
  std::vector<Arrival> wheel_;
  std::vector<std::size_t> wheel_len_;
  std::size_t due_bucket_ = 0;  ///< bucket of the current cycle
  std::size_t bucket_cap_ = 0;  ///< two entries per channel

  /// Per (router, endpoint port): the ejection candidate.
  std::vector<RouteCandidate> eject_;
  std::vector<std::vector<RouteCandidate>> ivc_live_;  ///< live-routing mode
  std::vector<RouteCandidate> splice_;  ///< UGAL via-leg row under assembly

  // Switch-allocation round-robin pointers.
  std::vector<std::int32_t> sa_in_rr_;   ///< per flat port
  std::vector<std::int32_t> sa_out_rr_;  ///< per flat port

  // Allocator work sets, one bit per VC of a flat port, so each phase
  // visits exactly its eligible slots in ascending (port, VC) order.
  std::vector<std::uint64_t> fresh_;     ///< idle slot holding a head
  std::vector<std::uint64_t> waiting_;   ///< kVcAlloc slot to try this cycle
  std::vector<std::uint64_t> parked_;    ///< kVcAlloc slot with no free VC
  std::vector<std::uint64_t> sendable_;  ///< kActive slot, flit and credit
  // Router-level skip gates: a phase with zero eligible slots grants
  // nothing and moves no round-robin pointer, so skipping it is
  // bit-identical to running it.
  std::vector<std::int32_t> route_pending_;  ///< per router: fresh slots
  std::vector<std::int32_t> va_pending_;     ///< per router: waiting slots
  std::vector<std::int32_t> va_parked_;      ///< per router: parked slots
  /// Per router, port_words_ words: ports with a sendable VC.
  std::vector<std::uint64_t> send_ports_;

  // Network interfaces (per tile * local port).
  std::vector<PktRing> ni_queue_;
  std::vector<std::int32_t> ni_front_flit_;
  std::vector<std::int32_t> ni_open_vc_;
  std::vector<std::int32_t> ni_next_vc_;

  // Worklist: a router stays on it while buffered_ or ni_packets_ > 0.
  std::vector<long long> buffered_;     ///< per router: flits in input VCs
  std::vector<long long> ni_packets_;   ///< per router: NI-queued packets
  std::vector<std::uint8_t> queued_;
  std::vector<int> active_;
  long long total_flits_ = 0;    ///< NI queues + buffers + channels
  long long total_credits_ = 0;  ///< credits on channels

  // Per-packet metadata (filled by pregenerate; index = packet id).
  std::vector<std::uint32_t> pk_create_;  ///< creation cycle
  std::vector<std::int32_t> pk_src_;
  std::vector<std::int32_t> pk_dest_;
  std::vector<std::int32_t> pk_port_;  ///< source endpoint port
  /// Concentrated fabrics only (else the packet id picks the port).
  std::vector<std::int32_t> pk_eject_port_;
  std::vector<std::int32_t> pk_hops_;
  /// UGAL Valiant intermediate per packet, in UGAL mode only; -1 = minimal /
  /// already reached.
  /// Only the head flit reads it, and the head exists in exactly one buffer
  /// at a time, so one per-packet slot holds the whole state (the golden
  /// corpus pins the UGAL cases, non-minimal counts included).
  std::vector<std::int32_t> pk_via_;
  std::vector<std::uint8_t> pk_done_;
  long long measured_created_ = 0;
  std::size_t sched_ptr_ = 0;

  // Per-cycle scratch.
  std::vector<EjectRec> eject_buf_;
  /// Output VCs with a requester this cycle: (output port, VC).
  std::vector<std::pair<int, int>> va_claims_;
  std::vector<int> sa_request_vc_;      ///< per port: nominated VC
  /// Per output port, port_words_ words: the input ports requesting it.
  std::vector<std::uint64_t> sa_want_;
  std::vector<std::uint64_t> sa_outs_;  ///< output ports requested
};

}  // namespace shg::sim
