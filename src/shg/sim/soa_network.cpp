#include "shg/sim/soa_network.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "shg/sim/concentration.hpp"
#include "shg/sim/stats.hpp"

namespace shg::sim {

namespace {
// Local output ports model the tile's endpoints as an infinite sink.
constexpr int kSinkCredits = std::numeric_limits<int>::max() / 2;

/// The member of a non-empty port set held in `words` 64-bit words that
/// comes first round-robin from `from`: the first at or above it, else the
/// first overall.
int round_robin_first(const std::uint64_t* set, int words, int from) {
  // Rotating a word right by `from` lists its members in that order.
  if (words == 1) {
    return (std::countr_zero(std::rotr(set[0], from)) + from) & 63;
  }
  const int fw = from >> 6;
  const std::uint64_t at_or_above = ~std::uint64_t{0} << (from & 63);
  for (int i = 0; i < words; ++i) {
    const int w = (fw + i) % words;
    const std::uint64_t m =
        set[w] & (i == 0 ? at_or_above : ~std::uint64_t{0});
    if (m != 0) return w * 64 + std::countr_zero(m);
  }
  return fw * 64 + std::countr_zero(set[fw]);
}
}  // namespace

void SoaEngine::PktRing::push(std::int32_t id) {
  if (count == buf.size()) {
    const std::size_t old = buf.size();
    std::vector<std::int32_t> grown(old == 0 ? 8 : old * 2);
    for (std::size_t i = 0; i < count; ++i) {
      grown[i] = buf[(head + i) % old];
    }
    buf = std::move(grown);
    head = 0;
  }
  std::size_t tail = head + count;
  if (tail >= buf.size()) tail -= buf.size();
  buf[tail] = id;
  ++count;
}

SoaEngine::SoaEngine(const topo::Topology& topo,
                     const std::vector<int>& link_latencies,
                     const SimConfig& config, const TrafficPattern* pattern,
                     int endpoints_per_tile, const RoutingFunction* routing,
                     const RouteTable* table, const Injection& injection)
    : config_(config), routing_(routing), table_(table) {
  config_.validate();
  SHG_REQUIRE(routing != nullptr || table != nullptr,
              "SoA engine needs a routing function or a route table");
  ugal_mode_ = effective_routing_policy(config_) == RoutingPolicy::kUgal;
  if (ugal_mode_) {
    ugal_info_ =
        table_ != nullptr ? table_->ugal_info() : routing_->ugal_info();
    SHG_REQUIRE(ugal_info_ != nullptr,
                "UGAL routing policy needs a UGAL routing function or a "
                "route table built from one");
  }
  SHG_REQUIRE(endpoints_per_tile >= 1, "need at least one endpoint per tile");
  num_routers_ = topo.graph().num_nodes();
  local_ports_ = endpoints_per_tile;
  vcs_ = config_.num_vcs;
  depth_ = config_.buffer_depth_flits;
  pkt_flits_ = config_.packet_size_flits;
  delay_ = config_.router_delay_cycles;
  build_fabric(topo, link_latencies);
  pregenerate(topo, pattern, injection);
}

void SoaEngine::build_fabric(const topo::Topology& topo,
                             const std::vector<int>& link_latencies) {
  const auto& g = topo.graph();
  SHG_REQUIRE(static_cast<int>(link_latencies.size()) == g.num_edges(),
              "need one latency per link");
  const std::size_t nr = static_cast<std::size_t>(num_routers_);

  // Port layout: network ports first (one per neighbor, adjacency order —
  // the port convention of RoutingFunction), then the endpoint ports.
  net_ports_.resize(nr);
  port_base_.resize(nr + 1);
  std::size_t ports = 0;
  for (int r = 0; r < num_routers_; ++r) {
    net_ports_[static_cast<std::size_t>(r)] = g.degree(r);
    port_base_[static_cast<std::size_t>(r)] = ports;
    const int p = g.degree(r) + local_ports_;
    max_ports_ = std::max(max_ports_, p);
    ports += static_cast<std::size_t>(p);
  }
  port_base_[nr] = ports;
  const std::size_t slots = ports * static_cast<std::size_t>(vcs_);

  // Two directed channels per edge: 2e carries u -> v (with u the edge's
  // stored u), 2e + 1 carries v -> u. A flit entering channel c lands on
  // its dst_port; a credit sent back over c returns to its src_port.
  const int num_chans = 2 * g.num_edges();
  chans_.resize(static_cast<std::size_t>(num_chans));
  int max_lat = 0;
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& edge = g.edge(e);
    const int lat = link_latencies[static_cast<std::size_t>(e)];
    SHG_REQUIRE(lat >= 1, "every link has at least one cycle of latency");
    max_lat = std::max(max_lat, lat);
    for (int dir = 0; dir < 2; ++dir) {
      Channel& c = chans_[static_cast<std::size_t>(2 * e + dir)];
      c.src = dir == 0 ? edge.u : edge.v;
      c.dst = dir == 0 ? edge.v : edge.u;
      c.lat = lat;
    }
  }
  // Arrivals land at most max_lat cycles after they are sent, so max_lat + 1
  // buckets keep every pending arrival cycle in its own bucket.
  wheel_len_.assign(static_cast<std::size_t>(max_lat) + 1, 0);
  bucket_cap_ = 2 * static_cast<std::size_t>(num_chans);
  wheel_.resize(wheel_len_.size() * bucket_cap_);

  in_chan_.assign(ports, -1);
  out_chan_.assign(ports, -1);
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto& nbrs = g.neighbors(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const auto& edge = g.edge(nbrs[i].edge);
      const bool is_forward = edge.u == u;
      const std::size_t pidx = port_base_[static_cast<std::size_t>(u)] + i;
      const int out = 2 * nbrs[i].edge + (is_forward ? 0 : 1);  // u -> nbr
      const int in = 2 * nbrs[i].edge + (is_forward ? 1 : 0);   // nbr -> u
      out_chan_[pidx] = out;
      in_chan_[pidx] = in;
      chans_[static_cast<std::size_t>(out)].src_port =
          static_cast<std::int32_t>(pidx);
      chans_[static_cast<std::size_t>(in)].dst_port =
          static_cast<std::int32_t>(pidx);
    }
  }

  // Buffers and allocation state.
  SHG_REQUIRE(slots <= static_cast<std::size_t>(
                           std::numeric_limits<std::int32_t>::max()),
              "too many (router, port, VC) slots");
  buf_.resize(slots * static_cast<std::size_t>(depth_));
  ivc_.resize(slots);
  ovc_.resize(slots);
  for (int r = 0; r < num_routers_; ++r) {
    const int np = net_ports_[static_cast<std::size_t>(r)];
    for (int p = 0; p < np + local_ports_; ++p) {
      for (int v = 0; v < vcs_; ++v) {
        const std::size_t s = slot(r, p, v);
        ivc_[s].port = static_cast<std::int32_t>(
            port_base_[static_cast<std::size_t>(r)] +
            static_cast<std::size_t>(p));
        ivc_[s].vc = static_cast<std::uint8_t>(v);
        ovc_[s].credits = p >= np ? kSinkCredits : depth_;
      }
    }
    for (int e = 0; e < local_ports_; ++e) {
      eject_.push_back(RouteCandidate{np + e, 0, vcs_});
    }
  }
  // Live-routing mode stores its per-slot candidate vectors here; UGAL mode
  // needs them even with a table, because a spliced via-leg row is not a
  // contiguous arena range.
  if (table_ == nullptr || ugal_mode_) ivc_live_.resize(slots);
  sa_in_rr_.assign(ports, 0);
  sa_out_rr_.assign(ports, 0);
  sa_request_vc_.assign(static_cast<std::size_t>(max_ports_), -1);
  route_pending_.assign(nr, 0);
  va_pending_.assign(nr, 0);
  va_parked_.assign(nr, 0);
  fresh_.assign(ports, 0);
  waiting_.assign(ports, 0);
  parked_.assign(ports, 0);
  sendable_.assign(ports, 0);
  port_words_ = (max_ports_ + 63) / 64;
  const std::size_t words = static_cast<std::size_t>(port_words_);
  send_ports_.assign(nr * words, 0);
  sa_want_.assign(static_cast<std::size_t>(max_ports_) * words, 0);
  sa_outs_.assign(words, 0);

  const std::size_t queues = nr * static_cast<std::size_t>(local_ports_);
  ni_queue_.resize(queues);
  ni_front_flit_.assign(queues, 0);
  ni_open_vc_.assign(queues, -1);
  ni_next_vc_.assign(queues, 0);

  buffered_.assign(nr, 0);
  ni_packets_.assign(nr, 0);
  queued_.assign(nr, 0);
}

void SoaEngine::pregenerate(const topo::Topology& topo,
                            const TrafficPattern* pattern,
                            const Injection& injection) {
  // Packet ids follow generation order. No draw depends on network state
  // and source queues are unbounded, so the schedule is a pure function of
  // the run's inputs — which is what makes quiescence fast-forward exact.
  const Cycle generation_end = config_.warmup_cycles + config_.measure_cycles;
  const Concentration conc = Concentration::make(topo.rows(), topo.cols(),
                                                 topo.concentration());
  const bool concentrated = topo.concentration() > 1;

  const std::size_t hint = packet_reserve_hint(
      config_.injection_rate / static_cast<double>(config_.packet_size_flits),
      generation_end, num_routers_, local_ports_);
  pk_create_.reserve(hint);
  pk_src_.reserve(hint);
  pk_dest_.reserve(hint);
  pk_port_.reserve(hint);
  if (concentrated) pk_eject_port_.reserve(hint);

  generate_packets(
      injection, pattern, conc, local_ports_, config_,
      [&](Cycle t, int tile, int port, int dest) {
        // validate() bounds t by kMaxCycleHorizon.
        pk_create_.push_back(static_cast<std::uint32_t>(t));
        pk_src_.push_back(tile);
        pk_dest_.push_back(concentrated ? conc.tile_of(dest) : dest);
        pk_port_.push_back(port);
        if (concentrated) pk_eject_port_.push_back(conc.port_of(dest));
        if (t >= config_.warmup_cycles) ++measured_created_;
      });
  SHG_REQUIRE(pk_create_.size() <= kMaxPackets,
              "the schedule holds more packets than a buffered flit's "
              "30-bit packet id can name");
  pk_hops_.assign(pk_create_.size(), 0);
  if (ugal_mode_) pk_via_.assign(pk_create_.size(), -1);
  pk_done_.assign(pk_create_.size(), 0);
}

inline void SoaEngine::buffer_flit(int r, std::size_t port, int vc,
                                   Cycle ready, std::int32_t pkt,
                                   std::uint8_t flags) {
  const std::size_t s =
      port * static_cast<std::size_t>(vcs_) + static_cast<std::size_t>(vc);
  InVc& in = ivc_[s];
  SHG_ASSERT(in.count < depth_, "credit protocol violated: buffer overflow");
  const std::uint64_t bit = std::uint64_t{1} << vc;
  if (in.state == kIdle) {
    // A flit landing in an empty idle slot is a fresh head awaiting route
    // computation (state only returns to idle after a tail departs).
    if ((fresh_[port] & bit) == 0) {
      fresh_[port] |= bit;
      ++route_pending_[static_cast<std::size_t>(r)];
    }
  } else if (in.state == kActive &&
             ovc_[static_cast<std::size_t>(in.out_slot)].credits > 0) {
    mark_sendable(r, port, bit);
  }
  std::size_t idx = static_cast<std::size_t>(in.head) + in.count;
  if (idx >= static_cast<std::size_t>(depth_)) {
    idx -= static_cast<std::size_t>(depth_);
  }
  buf_[s * static_cast<std::size_t>(depth_) + idx] = {
      static_cast<std::uint32_t>(ready),
      static_cast<std::uint32_t>(pkt) << kFlagBits | flags};
  ++in.count;
  ++buffered_[static_cast<std::size_t>(r)];
}

inline void SoaEngine::mark_sendable(int r, std::size_t pf,
                                     std::uint64_t bit) {
  if (sendable_[pf] == 0) {
    const std::size_t p = pf - port_base_[static_cast<std::size_t>(r)];
    send_ports_[static_cast<std::size_t>(r * port_words_) + (p >> 6)] |=
        std::uint64_t{1} << (p & 63);
  }
  sendable_[pf] |= bit;
}

inline void SoaEngine::clear_sendable(int r, std::size_t pf,
                                      std::uint64_t bit) {
  sendable_[pf] &= ~bit;
  if (sendable_[pf] == 0) {
    const std::size_t p = pf - port_base_[static_cast<std::size_t>(r)];
    send_ports_[static_cast<std::size_t>(r * port_words_) + (p >> 6)] &=
        ~(std::uint64_t{1} << (p & 63));
  }
}

void SoaEngine::wake_parked(int r) {
  const std::size_t ri = static_cast<std::size_t>(r);
  if (va_parked_[ri] == 0) return;
  for (std::size_t pf = port_base_[ri]; pf < port_base_[ri + 1]; ++pf) {
    waiting_[pf] |= parked_[pf];
    parked_[pf] = 0;
  }
  va_pending_[ri] += va_parked_[ri];
  va_parked_[ri] = 0;
}

inline void SoaEngine::send(int c, std::int32_t pkt, int vc,
                            std::uint8_t flags, bool credit) {
  const Channel& ch = chans_[static_cast<std::size_t>(c)];
  std::size_t b = due_bucket_ + static_cast<std::size_t>(ch.lat);
  if (b >= wheel_len_.size()) b -= wheel_len_.size();
  // One flit and one credit per channel and cycle, and a bucket holds one
  // arrival cycle.
  SHG_ASSERT(wheel_len_[b] < bucket_cap_, "arrival bucket overflow");
  Arrival& a = wheel_[b * bucket_cap_ + wheel_len_[b]++];
  if (credit) {
    a = {ch.src, ch.src_port, pkt, static_cast<std::int16_t>(vc), flags, 1};
  } else {
    a = {ch.dst, ch.dst_port, pkt, static_cast<std::int16_t>(vc), flags, 0};
  }
}

void SoaEngine::deliver_due(Cycle now) {
  due_bucket_ =
      static_cast<std::size_t>(now % static_cast<Cycle>(wheel_len_.size()));
  const std::span<const Arrival> due(&wheel_[due_bucket_ * bucket_cap_],
                                     wheel_len_[due_bucket_]);
  for (const Arrival& a : due) {
    const std::size_t port = static_cast<std::size_t>(a.port);
    if (!a.credit) {
      buffer_flit(a.router, port, a.vc, now + delay_, a.pkt, a.flags);
      activate(a.router);
      continue;
    }
    --total_credits_;
    OutVc& out = ovc_[port * static_cast<std::size_t>(vcs_) +
                      static_cast<std::size_t>(a.vc)];
    if (out.credits++ > 0) continue;
    // The output VC had run dry: its holder can send again, or, when it is
    // free, a UGAL head parked for want of a credited adaptive VC may now
    // request it.
    if (out.owner < 0) {
      if (ugal_mode_) wake_parked(a.router);
    } else if (const InVc& holder = ivc_[static_cast<std::size_t>(out.owner)];
               holder.count > 0) {
      mark_sendable(a.router, static_cast<std::size_t>(holder.port),
                    std::uint64_t{1} << holder.vc);
    }
  }
  wheel_len_[due_bucket_] = 0;
}

void SoaEngine::ni_inject(int r, Cycle now) {
  const std::size_t pbase = port_base_[static_cast<std::size_t>(r)];
  const int net = net_ports_[static_cast<std::size_t>(r)];
  for (int l = 0; l < local_ports_; ++l) {
    const std::size_t q =
        static_cast<std::size_t>(r) * static_cast<std::size_t>(local_ports_) +
        static_cast<std::size_t>(l);
    PktRing& ring = ni_queue_[q];
    if (ring.count == 0) continue;
    const std::int32_t pkt = ring.front();
    const int fi = ni_front_flit_[q];
    const bool head = fi == 0;
    const bool tail = fi == pkt_flits_ - 1;
    const std::size_t pidx = pbase + static_cast<std::size_t>(net + l);
    const InVc* const local = &ivc_[pidx * static_cast<std::size_t>(vcs_)];
    int chosen;
    if (head) {
      SHG_ASSERT(ni_open_vc_[q] < 0, "head flit while another packet is open");
      // Pick an input VC with space, round-robin (the routing constraints
      // bind at the router's output, not at the local input buffer).
      chosen = -1;
      for (int off = 0, v = ni_next_vc_[q]; off < vcs_; ++off) {
        if (local[v].count < depth_) {
          chosen = v;
          break;
        }
        if (++v == vcs_) v = 0;
      }
      if (chosen < 0) continue;  // all local VCs full; retry next cycle
      ni_next_vc_[q] = chosen + 1 == vcs_ ? 0 : chosen + 1;
      if (!tail) ni_open_vc_[q] = chosen;
    } else {
      // Body/tail flit: must continue on the head's VC.
      SHG_ASSERT(ni_open_vc_[q] >= 0, "body flit without an open packet");
      chosen = ni_open_vc_[q];
      if (local[chosen].count >= depth_) continue;
      if (tail) ni_open_vc_[q] = -1;
    }
    std::uint8_t flags = 0;
    if (head) flags |= kHead;
    if (tail) flags |= kTail;
    buffer_flit(r, pidx, chosen, now + delay_, pkt, flags);
    if (fi + 1 == pkt_flits_) {
      ring.pop();
      --ni_packets_[static_cast<std::size_t>(r)];
      ni_front_flit_[q] = 0;
    } else {
      ni_front_flit_[q] = fi + 1;
    }
  }
}

std::span<const RouteCandidate> SoaEngine::candidates(int r, int in_port,
                                                      int in_vc, int dest,
                                                      std::size_t s) {
  if (table_ != nullptr) return table_->lookup(r, in_port, in_vc, dest);
  ivc_live_[s] = routing_->route(r, in_port, in_vc, dest);
  return ivc_live_[s];
}

void SoaEngine::compute_route(int r, int port, int vc, std::size_t s) {
  const BufFlit& head = buf_[s * static_cast<std::size_t>(depth_) +
                             static_cast<std::size_t>(ivc_[s].head)];
  SHG_ASSERT((head.flags() & kHead) != 0,
             "route computation requires a head flit");
  const std::int32_t pkt = head.pkt();
  const int net = net_ports_[static_cast<std::size_t>(r)];
  const int dest = pk_dest_[static_cast<std::size_t>(pkt)];
  if (dest == r) {
    // Ejection: the destination terminal's port when the packet carries one
    // (concentrated fabrics), otherwise pick the endpoint port by packet id.
    const int endpoint = pk_eject_port_.empty()
                             ? pkt % local_ports_
                             : pk_eject_port_[static_cast<std::size_t>(pkt)];
    SHG_ASSERT(endpoint < local_ports_,
               "eject port beyond the tile's endpoints");
    const std::size_t e =
        static_cast<std::size_t>(r * local_ports_ + endpoint);
    set_routes(s, {&eject_[e], 1});
  } else {
    // Local input ports report in_port == -1 AND in_vc == -1: the local
    // buffer VC an injected packet happens to sit in carries no routing
    // state (VC classes like dateline/escape only apply to network hops).
    // Passing the raw local VC once caused a real deadlock: packets
    // injected into VC 1 of the local port were misclassified as "already
    // crossed the dateline" and legally traversed the wrap edge on the
    // class-1 channels, closing the cycle the dateline breaks.
    const bool from_network = port < net;
    const int in_port = from_network ? port : -1;
    const int in_vc = from_network ? vc : -1;
    if (ugal_mode_) {
      compute_route_ugal(r, s, in_port, in_vc, pkt, dest);
    } else {
      set_routes(s, candidates(r, in_port, in_vc, dest, s));
    }
    SHG_ASSERT(ivc_[s].routes_len > 0, "routing returned no candidates");
  }
  ivc_[s].state = kVcAlloc;
}

int SoaEngine::first_port(int r, int to, std::size_t s) {
  return candidates(r, -1, -1, to, s).front().out_port;
}

int SoaEngine::adaptive_occupancy(int r, int port) const {
  const std::size_t base = slot(r, port, 0);
  int occ = 0;
  for (int v = kUgalEscapeVcs; v < vcs_; ++v) {
    occ += depth_ - ovc_[base + static_cast<std::size_t>(v)].credits;
  }
  return occ;
}

void SoaEngine::append_band(int r, std::size_t s, int in_port, int in_vc,
                            int to, bool adaptive) {
  for (const RouteCandidate& cand : candidates(r, in_port, in_vc, to, s)) {
    if ((cand.vc_begin >= kUgalEscapeVcs) == adaptive) {
      splice_.push_back(cand);
    }
  }
}

void SoaEngine::compute_route_ugal(int r, std::size_t s, int in_port,
                                   int in_vc, std::int32_t pkt, int dest) {
  // The occupancy reads touch only this router's output credit counters,
  // which deliver_due settled before any router ran (phase commutation
  // across routers), so the choice does not depend on the order routers
  // are processed in.
  const bool on_escape =
      in_port >= 0 && in_vc >= 0 && in_vc < kUgalEscapeVcs;
  std::int32_t& via = pk_via_[static_cast<std::size_t>(pkt)];
  if (!on_escape) {
    if (in_port < 0 && via < 0) {
      const std::int32_t drawn = ugal_info_->via_of(r, dest);
      if (drawn >= 0) {
        const int occ_min = adaptive_occupancy(r, first_port(r, dest, s));
        const int occ_nm = adaptive_occupancy(r, first_port(r, drawn, s));
        const long long cost_min =
            static_cast<long long>(occ_min) *
            ugal_info_->hops_between(r, dest);
        const long long cost_nm =
            static_cast<long long>(occ_nm) *
                (ugal_info_->hops_between(r, drawn) +
                 ugal_info_->hops_between(drawn, dest)) +
            config_.ugal_bias_flits;
        if (cost_nm < cost_min) {
          via = drawn;
          ++ugal_nonminimal_;
        }
      }
    }
    if (via == r) via = -1;  // intermediate reached; route to dest now
    if (via >= 0) {
      // Non-minimal leg: adaptive candidates steer toward the intermediate,
      // escape candidates keep targeting the final destination.
      // The splice collects in splice_ because the lookups refill the
      // slot's live vector, then the two swap.
      splice_.clear();
      append_band(r, s, in_port, in_vc, via, /*adaptive=*/true);
      append_band(r, s, in_port, in_vc, dest, /*adaptive=*/false);
      ivc_live_[s].swap(splice_);
      set_routes(s, ivc_live_[s]);
      return;
    }
  }
  // Escape state or minimal/post-via adaptive state: the plain row toward
  // the destination.
  set_routes(s, candidates(r, in_port, in_vc, dest, s));
}

void SoaEngine::allocate(int r, Cycle now) {
  // Empty router fast path: the round-robin pointers only advance on
  // grants, so skipping a router with nothing buffered is bit-identical to
  // scanning it.
  const std::size_t ri = static_cast<std::size_t>(r);
  if (buffered_[ri] == 0) return;
  const std::size_t pbase = port_base_[ri];
  const int net = net_ports_[ri];
  const int ports = net + local_ports_;
  const int vcs = vcs_;
  const std::size_t sbase = pbase * static_cast<std::size_t>(vcs);

  // --- Route computation for fresh heads --------------------------------
  // Every fresh head is routed, in ascending (port, VC) order; each then
  // waits for VC allocation. This and the VC allocation scan stop at the
  // port holding the last pending slot.
  if (route_pending_[ri] > 0) {
    for (int p = 0, left = route_pending_[ri]; left > 0; ++p) {
      const std::size_t pf = pbase + static_cast<std::size_t>(p);
      for (std::uint64_t m = fresh_[pf]; m != 0; m &= m - 1, --left) {
        const int v = std::countr_zero(m);
        compute_route(r, p, v,
                      sbase + static_cast<std::size_t>(p * vcs + v));
      }
      waiting_[pf] |= fresh_[pf];
      fresh_[pf] = 0;
    }
    va_pending_[ri] += route_pending_[ri];
    route_pending_[ri] = 0;
  }

  // --- VC allocation ------------------------------------------------------
  // Each waiting input VC requests its most-preferred free candidate output
  // VC (unowned; in UGAL mode an adaptive one must also hold a credit). A
  // head with none parks until an output VC of this router frees or, in
  // UGAL mode, regains a credit (wake_parked), the only events that can
  // change its request. Each requested output VC grants the first requester
  // round-robin from its va_rr: requesters arrive in ascending order, so the
  // first at or above the pointer, else the first. One request per waiting
  // VC makes grants to different output VCs independent.
  if (va_pending_[ri] > 0) {
    va_claims_.clear();
    for (int p = 0, left = va_pending_[ri]; left > 0; ++p) {
      const std::size_t pf = pbase + static_cast<std::size_t>(p);
      for (std::uint64_t m = waiting_[pf]; m != 0; m &= m - 1, --left) {
        const int v = std::countr_zero(m);
        const int in_key = p * vcs + v;
        const InVc& in = ivc_[sbase + static_cast<std::size_t>(in_key)];
        int req_port = -1;
        int req_vc = -1;
        for (int ci = 0; ci < in.routes_len && req_vc < 0; ++ci) {
          const RouteCandidate& cand = in.routes[ci];
          const bool needs_credit =
              ugal_mode_ && cand.vc_begin >= kUgalEscapeVcs;
          const OutVc* const out =
              &ovc_[sbase + static_cast<std::size_t>(cand.out_port * vcs)];
          for (int ov = cand.vc_begin; ov < cand.vc_end; ++ov) {
            if (out[ov].owner < 0 && (!needs_credit || out[ov].credits > 0)) {
              req_port = cand.out_port;
              req_vc = ov;
              break;
            }
          }
        }
        if (req_vc < 0) {
          const std::uint64_t bit = std::uint64_t{1} << v;
          waiting_[pf] &= ~bit;
          parked_[pf] |= bit;
          --va_pending_[ri];
          ++va_parked_[ri];
          continue;
        }
        OutVc& out =
            ovc_[sbase + static_cast<std::size_t>(req_port * vcs + req_vc)];
        if (out.va_claim < 0) {
          out.va_claim = in_key;
          va_claims_.emplace_back(req_port, req_vc);
        } else if (out.va_claim < out.va_rr && in_key >= out.va_rr) {
          out.va_claim = in_key;
        }
      }
    }
    for (const auto& [out_port, out_vc] : va_claims_) {
      const std::size_t o =
          sbase + static_cast<std::size_t>(out_port * vcs + out_vc);
      OutVc& out = ovc_[o];
      const int in_key = out.va_claim;
      out.va_claim = -1;
      const std::size_t s = sbase + static_cast<std::size_t>(in_key);
      InVc& in = ivc_[s];
      in.state = kActive;
      in.out_port = out_port;
      in.out_vc = static_cast<std::uint8_t>(out_vc);
      in.out_slot = static_cast<std::int32_t>(o);
      out.owner = static_cast<std::int32_t>(s);
      out.va_rr = in_key + 1 == ports * vcs ? 0 : in_key + 1;
      --va_pending_[ri];
      const std::size_t pf = static_cast<std::size_t>(in.port);
      const std::uint64_t bit = std::uint64_t{1} << in.vc;
      waiting_[pf] &= ~bit;
      // The head is still buffered, so the VC can send once it has a credit.
      if (out.credits > 0) mark_sendable(r, pf, bit);
    }
  }

  // --- Switch allocation ---------------------------------------------------
  // Input-first: every port in the router's sendable-port set nominates its
  // first ready VC round-robin from sa_in_rr_ (a sendable VC holds a flit and
  // a credit, so readiness is the one test left), then every requested
  // output port, ascending, grants one requester round-robin from
  // sa_out_rr_. Ports with nothing to send cannot nominate and outputs
  // without requests grant nothing, so this equals a full port sweep.
  const std::uint64_t* const send_ports =
      &send_ports_[ri * static_cast<std::size_t>(port_words_)];
  for (int w = 0; w < port_words_; ++w) {
    for (std::uint64_t pm = send_ports[w]; pm != 0; pm &= pm - 1) {
      const int p = w * 64 + std::countr_zero(pm);
      const std::size_t pf = pbase + static_cast<std::size_t>(p);
      // Rotated right by the pointer, the mask lists the VCs in round-robin
      // order: those at or above the pointer, then those below.
      const int rr = sa_in_rr_[pf];
      int nominee = -1;
      for (std::uint64_t m = std::rotr(sendable_[pf], rr); m != 0; m &= m - 1) {
        const int v = (std::countr_zero(m) + rr) & 63;
        const std::size_t s = sbase + static_cast<std::size_t>(p * vcs + v);
        if (buf_[s * static_cast<std::size_t>(depth_) + ivc_[s].head].ready <=
            now) {
          nominee = v;
          break;
        }
      }
      if (nominee < 0) continue;
      const int op =
          ivc_[sbase + static_cast<std::size_t>(p * vcs + nominee)].out_port;
      sa_request_vc_[static_cast<std::size_t>(p)] = nominee;
      sa_want_[static_cast<std::size_t>(op * port_words_ + w)] |=
          std::uint64_t{1} << (p & 63);
      sa_outs_[static_cast<std::size_t>(op >> 6)] |= std::uint64_t{1}
                                                     << (op & 63);
    }
  }
  // Grants in ascending output-port order (this fixes the within-router
  // ejection order).
  for (int ow = 0; ow < port_words_; ++ow) {
    const std::uint64_t outs = sa_outs_[static_cast<std::size_t>(ow)];
    sa_outs_[static_cast<std::size_t>(ow)] = 0;
    for (std::uint64_t om = outs; om != 0; om &= om - 1) {
      const int op = ow * 64 + std::countr_zero(om);
      std::uint64_t* const want =
          &sa_want_[static_cast<std::size_t>(op * port_words_)];
      const std::size_t of = pbase + static_cast<std::size_t>(op);
      const int winner = round_robin_first(want, port_words_, sa_out_rr_[of]);
      std::fill_n(want, port_words_, 0);
      sa_out_rr_[of] = winner + 1 == ports ? 0 : winner + 1;
      const int iv = sa_request_vc_[static_cast<std::size_t>(winner)];
      const std::size_t wf = pbase + static_cast<std::size_t>(winner);
      sa_in_rr_[wf] = iv + 1 == vcs ? 0 : iv + 1;

      // --- Switch traversal ------------------------------------------------
      const std::size_t s = sbase + static_cast<std::size_t>(winner * vcs + iv);
      InVc& in = ivc_[s];
      const std::uint64_t bit = std::uint64_t{1} << iv;
      const BufFlit flit = buf_[s * static_cast<std::size_t>(depth_) + in.head];
      const std::int32_t pkt = flit.pkt();
      const std::uint8_t flags = flit.flags();
      in.head = static_cast<std::uint16_t>(in.head + 1 == depth_ ? 0
                                                                 : in.head + 1);
      --in.count;
      --buffered_[ri];
      // The VC stays sendable while it still holds a flit and a credit.
      bool stays = in.count > 0;
      OutVc& out = ovc_[static_cast<std::size_t>(in.out_slot)];
      // Hop counting: in wormhole switching the tail crosses exactly the
      // routers the head crossed, so counting head traversals into the
      // per-packet array gives the packet's hop count.
      if (flags & kHead) ++pk_hops_[static_cast<std::size_t>(pkt)];
      if (op >= net) {
        // Ejection; the endpoint sink consumes immediately (credit net zero).
        eject_buf_.push_back(EjectRec{r, pkt, flags});
        --total_flits_;
      } else {
        if (--out.credits == 0) stays = false;
        send(out_chan_[of], pkt, in.out_vc, flags, /*credit=*/false);
      }
      // Return the freed buffer slot upstream (network inputs only; the NI
      // observes local buffer occupancy directly).
      if (winner < net) {
        send(in_chan_[wf], 0, iv, 0, /*credit=*/true);
        ++total_credits_;
      }
      if (flags & kTail) {
        out.owner = -1;
        in.state = kIdle;
        stays = false;
        // The next packet's head may already be buffered behind the departed
        // tail; it becomes route-pending now that the slot is idle again.
        if (in.count > 0) {
          fresh_[wf] |= bit;
          ++route_pending_[ri];
        }
        wake_parked(r);
      }
      if (!stays) clear_sendable(r, wf, bit);
    }
  }
}

SimResult SoaEngine::run() {
  const Cycle generation_end = config_.warmup_cycles + config_.measure_cycles;
  const Cycle hard_end = generation_end + config_.drain_cycles;
  const std::size_t num_packets = pk_create_.size();

  long long measured_ejected = 0;
  long long flits_ejected_in_window = 0;
  Distribution latencies;
  double hops_sum = 0.0;
  std::vector<double> source_latency_sum(
      static_cast<std::size_t>(num_routers_), 0.0);
  std::vector<long long> source_packets(static_cast<std::size_t>(num_routers_),
                                        0);
  Cycle last_ejection = 0;

  SimResult result;
  result.offered_rate = config_.injection_rate;

  Cycle now = 0;
  for (; now < hard_end; ++now) {
    // --- Quiescence fast-forward ------------------------------------------
    // With no flit anywhere and no credit on any channel, every cycle until
    // the next scheduled injection is a provable no-op (allocators skip
    // empty routers bit-identically, round-robin state is frozen, and no
    // termination check can fire before generation_end — scheduled
    // injections all precede it). Jump straight to the next event.
    if (total_flits_ == 0 && total_credits_ == 0) {
      if (sched_ptr_ < num_packets) {
        if (pk_create_[sched_ptr_] > now) now = pk_create_[sched_ptr_];
      } else {
        // Nothing will ever move again: a cycle-by-cycle loop would idle
        // to its first post-generation termination check and break there.
        if (now < generation_end) now = generation_end;
        break;
      }
    }

    // --- Packet generation (pre-drawn schedule) ---------------------------
    while (sched_ptr_ < num_packets && pk_create_[sched_ptr_] == now) {
      const std::int32_t pkt = static_cast<std::int32_t>(sched_ptr_++);
      const int tile = pk_src_[static_cast<std::size_t>(pkt)];
      ni_queue_[static_cast<std::size_t>(tile) *
                    static_cast<std::size_t>(local_ports_) +
                static_cast<std::size_t>(
                    pk_port_[static_cast<std::size_t>(pkt)])]
          .push(pkt);
      ++ni_packets_[static_cast<std::size_t>(tile)];
      total_flits_ += pkt_flits_;
      activate(tile);
    }

    // --- One network cycle over the active routers ------------------------
    // Everything due this cycle lands first (putting the routers that
    // receive flits on the worklist); then inject/allocate fuse per router.
    // Phases commute across routers (arrivals are filed at
    // now + latency >= now + 1, so nothing sent this cycle is visible this
    // cycle), and nothing joins the worklist during the pass.
    deliver_due(now);
    for (const int r : active_) {
      if (ni_packets_[static_cast<std::size_t>(r)] > 0) ni_inject(r, now);
      allocate(r, now);
    }

    // --- Harvest ejected flits ----------------------------------------------
    // Every sample folded here is an integer (cycle counts and hop counts)
    // and every sum stays far below 2^53, so the double sums are exact and
    // the harvest order cannot change a result bit.
    if (!eject_buf_.empty()) {
      for (const EjectRec& e : eject_buf_) {
        last_ejection = now;
        if (now >= config_.warmup_cycles && now < generation_end) {
          ++flits_ejected_in_window;
        }
        if (!(e.flags & kTail)) continue;
        const std::size_t pkt = static_cast<std::size_t>(e.pkt);
        SHG_ASSERT(!pk_done_[pkt], "packet ejected twice");
        pk_done_[pkt] = 1;
        if (pk_create_[pkt] >= config_.warmup_cycles) {  // measured
          ++measured_ejected;
          const double latency =
              static_cast<double>(now - pk_create_[pkt] + 1);
          latencies.add(latency);
          hops_sum += pk_hops_[pkt];
          source_latency_sum[static_cast<std::size_t>(pk_src_[pkt])] +=
              latency;
          ++source_packets[static_cast<std::size_t>(pk_src_[pkt])];
        }
      }
      eject_buf_.clear();
    }

    // --- Worklist compaction ----------------------------------------------
    std::size_t w = 0;
    for (std::size_t i = 0; i < active_.size(); ++i) {
      const int r = active_[i];
      const std::size_t ri = static_cast<std::size_t>(r);
      if (buffered_[ri] > 0 || ni_packets_[ri] > 0) {
        active_[w++] = r;
      } else {
        queued_[static_cast<std::size_t>(r)] = 0;
      }
    }
    active_.resize(w);

    // --- Termination checks -----------------------------------------------
    if (now >= generation_end) {
      if (measured_ejected == measured_created_) break;
      // Deadlock/livelock watchdog: traffic in flight but nothing ejects.
      if (now - last_ejection > 20000 && total_flits_ > 0) {
        break;
      }
    }
  }

  result.cycles_run = now;
  result.measured_packets = measured_ejected;
  result.drained = measured_ejected == measured_created_;
  result.accepted_rate =
      static_cast<double>(flits_ejected_in_window) /
      (static_cast<double>(config_.measure_cycles) *
       static_cast<double>(num_routers_) * static_cast<double>(local_ports_));
  if (measured_ejected > 0) {
    result.avg_packet_latency = latencies.mean();
    result.max_packet_latency = latencies.max();
    result.p50_packet_latency = latencies.percentile(0.50);
    result.p95_packet_latency = latencies.percentile(0.95);
    result.p99_packet_latency = latencies.percentile(0.99);
    result.avg_hops = hops_sum / static_cast<double>(measured_ejected);
    std::vector<double> per_source;
    for (std::size_t s = 0; s < source_packets.size(); ++s) {
      if (source_packets[s] > 0) {
        per_source.push_back(source_latency_sum[s] /
                             static_cast<double>(source_packets[s]));
      }
    }
    if (!per_source.empty()) {
      result.fairness = fairness_ratio(per_source);
    }
  }
  return result;
}

}  // namespace shg::sim
