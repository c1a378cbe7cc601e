#include "shg/sim/soa_network.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "shg/common/prng.hpp"
#include "shg/sim/concentration.hpp"
#include "shg/sim/stats.hpp"

namespace shg::sim {

namespace {
// Local output ports model the tile's endpoints as an infinite sink.
constexpr int kSinkCredits = std::numeric_limits<int>::max() / 2;
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
                     const SimConfig& config, const TrafficPattern& pattern,
                     int endpoints_per_tile, const RoutingFunction* routing,
                     const RouteTable* table, InjectionProcess* process)
    : config_(config),
      pattern_(&pattern),
      routing_(routing),
      table_(table),
      process_(process) {
  config_.validate();
  SHG_REQUIRE(routing != nullptr || table != nullptr,
              "SoA engine needs a routing function or a route table");
  SHG_REQUIRE(process != nullptr, "SoA engine needs an injection process");
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
  pregenerate(topo);
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
  // chan_dst_port_[c]; a credit sent back over c returns to
  // chan_src_port_[c].
  const int num_chans = 2 * g.num_edges();
  chan_src_.resize(static_cast<std::size_t>(num_chans));
  chan_dst_.resize(static_cast<std::size_t>(num_chans));
  chan_lat_.resize(static_cast<std::size_t>(num_chans));
  chan_src_port_.resize(static_cast<std::size_t>(num_chans));
  chan_dst_port_.resize(static_cast<std::size_t>(num_chans));
  int max_lat = 0;
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& edge = g.edge(e);
    const int lat = link_latencies[static_cast<std::size_t>(e)];
    SHG_REQUIRE(lat >= 1, "every link has at least one cycle of latency");
    max_lat = std::max(max_lat, lat);
    for (int dir = 0; dir < 2; ++dir) {
      const std::size_t c = static_cast<std::size_t>(2 * e + dir);
      chan_src_[c] = dir == 0 ? edge.u : edge.v;
      chan_dst_[c] = dir == 0 ? edge.v : edge.u;
      chan_lat_[c] = lat;
    }
  }
  // Arrivals land at most max_lat cycles after they are sent, so max_lat + 1
  // buckets keep every pending arrival cycle in its own bucket.
  wheel_.resize(static_cast<std::size_t>(max_lat) + 1);
  bucket_cap_ = 2 * static_cast<std::size_t>(num_chans);

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
      chan_src_port_[static_cast<std::size_t>(out)] =
          static_cast<std::int32_t>(pidx);
      chan_dst_port_[static_cast<std::size_t>(in)] =
          static_cast<std::int32_t>(pidx);
    }
  }

  // Buffers and allocation state.
  buf_.resize(slots * static_cast<std::size_t>(depth_));
  buf_head_.assign(slots, 0);
  buf_count_.assign(slots, 0);
  ivc_state_.assign(slots, kIdle);
  ivc_out_port_.assign(slots, -1);
  ivc_out_vc_.assign(slots, -1);
  ivc_routes_.assign(slots, nullptr);
  ivc_routes_len_.assign(slots, 0);
  ivc_eject_.assign(slots, RouteCandidate{});
  // Live-routing mode stores its per-slot candidate vectors here; UGAL mode
  // needs them even with a table, because a spliced via-leg row is not a
  // contiguous arena range.
  if (table_ == nullptr || ugal_mode_) ivc_live_.resize(slots);
  ovc_busy_.assign(slots, 0);
  ovc_credits_.resize(slots);
  for (int r = 0; r < num_routers_; ++r) {
    const int np = net_ports_[static_cast<std::size_t>(r)];
    for (int p = 0; p < np + local_ports_; ++p) {
      for (int v = 0; v < vcs_; ++v) {
        ovc_credits_[slot(r, p, v)] = p >= np ? kSinkCredits : depth_;
      }
    }
  }
  va_rr_.assign(slots, 0);
  sa_in_rr_.assign(ports, 0);
  sa_out_rr_.assign(ports, 0);
  sa_request_port_.assign(static_cast<std::size_t>(max_ports_), -1);
  sa_request_vc_.assign(static_cast<std::size_t>(max_ports_), -1);
  route_pending_.assign(nr, 0);
  va_pending_.assign(nr, 0);
  active_ivcs_.assign(nr, 0);
  fresh_.assign(ports, 0);
  waiting_.assign(ports, 0);
  sendable_.assign(ports, 0);

  const std::size_t queues = nr * static_cast<std::size_t>(local_ports_);
  ni_queue_.resize(queues);
  ni_front_flit_.assign(queues, 0);
  ni_open_vc_.assign(queues, -1);
  ni_next_vc_.assign(queues, 0);

  work_.assign(nr, 0);
  buffered_.assign(nr, 0);
  queued_.assign(nr, 0);
}

void SoaEngine::pregenerate(const topo::Topology& topo) {
  // The generation loop, pre-drawn: one PRNG, draw order cycle -> tile ->
  // port (inject draw then destination draw), fixed points skipped, packet
  // ids in draw order. No draw depends on network state and source queues
  // are unbounded, so the schedule is a pure function of the seed — which
  // is what makes quiescence fast-forward exact.
  Prng rng(config_.seed);
  process_->reset();
  const Cycle generation_end = config_.warmup_cycles + config_.measure_cycles;
  const double packet_prob =
      config_.injection_rate / static_cast<double>(config_.packet_size_flits);
  const Concentration conc = Concentration::make(topo.rows(), topo.cols(),
                                                 topo.concentration());
  const bool concentrated = topo.concentration() > 1;

  const std::size_t hint = packet_reserve_hint(
      packet_prob, generation_end, num_routers_, local_ports_);
  pk_create_.reserve(hint);
  pk_src_.reserve(hint);
  pk_dest_.reserve(hint);
  pk_port_.reserve(hint);
  pk_eject_port_.reserve(hint);
  pk_measured_.reserve(hint);

  for (Cycle t = 0; t < generation_end; ++t) {
    for (int tile = 0; tile < num_routers_; ++tile) {
      for (int port = 0; port < local_ports_; ++port) {
        const int source = tile * local_ports_ + port;
        if (!process_->inject(source, rng)) continue;
        int dest_tile;
        int eject_port = -1;
        if (concentrated) {
          const int src_terminal = conc.terminal(tile, port);
          const int dest_terminal = pattern_->dest(src_terminal, rng);
          if (dest_terminal == src_terminal) continue;
          dest_tile = conc.tile_of(dest_terminal);
          eject_port = conc.port_of(dest_terminal);
        } else {
          dest_tile = pattern_->dest(tile, rng);
          if (dest_tile == tile) continue;  // fixed point of a permutation
        }
        const bool measured = t >= config_.warmup_cycles;
        pk_create_.push_back(t);
        pk_src_.push_back(tile);
        pk_dest_.push_back(dest_tile);
        pk_port_.push_back(port);
        pk_eject_port_.push_back(eject_port);
        pk_measured_.push_back(measured ? 1 : 0);
        if (measured) ++measured_created_;
      }
    }
  }
  pk_hops_.assign(pk_create_.size(), 0);
  pk_via_.assign(pk_create_.size(), -1);
  pk_done_.assign(pk_create_.size(), 0);
}

void SoaEngine::buffer_flit(int r, std::size_t port, int vc, Cycle ready,
                            std::int32_t pkt, std::uint8_t flags) {
  const std::size_t s =
      port * static_cast<std::size_t>(vcs_) + static_cast<std::size_t>(vc);
  SHG_ASSERT(buf_count_[s] < depth_,
             "credit protocol violated: buffer overflow");
  const std::uint64_t bit = std::uint64_t{1} << vc;
  if (ivc_state_[s] == kIdle) {
    // A flit landing in an empty idle slot is a fresh head awaiting route
    // computation (state only returns to idle after a tail departs).
    if ((fresh_[port] & bit) == 0) {
      fresh_[port] |= bit;
      ++route_pending_[static_cast<std::size_t>(r)];
    }
  } else if (ivc_state_[s] == kActive) {
    sendable_[port] |= bit;
  }
  std::size_t idx = static_cast<std::size_t>(buf_head_[s]) + buf_count_[s];
  if (idx >= static_cast<std::size_t>(depth_)) {
    idx -= static_cast<std::size_t>(depth_);
  }
  buf_[s * static_cast<std::size_t>(depth_) + idx] = {ready, pkt, flags};
  ++buf_count_[s];
  ++buffered_[static_cast<std::size_t>(r)];
}

void SoaEngine::send(int c, std::int32_t pkt, int vc, std::uint8_t flags,
                     bool credit) {
  const std::size_t ci = static_cast<std::size_t>(c);
  std::size_t b = due_bucket_ + static_cast<std::size_t>(chan_lat_[ci]);
  if (b >= wheel_.size()) b -= wheel_.size();
  std::vector<Arrival>& bucket = wheel_[b];
  // One flit and one credit per channel and cycle, and a bucket holds one
  // arrival cycle.
  SHG_ASSERT(bucket.size() < bucket_cap_, "arrival bucket overflow");
  if (credit) {
    bucket.push_back(
        {chan_src_[ci], chan_src_port_[ci], pkt, static_cast<std::int16_t>(vc),
         flags, 1});
  } else {
    bucket.push_back(
        {chan_dst_[ci], chan_dst_port_[ci], pkt, static_cast<std::int16_t>(vc),
         flags, 0});
  }
}

void SoaEngine::deliver_due(Cycle now) {
  due_bucket_ =
      static_cast<std::size_t>(now % static_cast<Cycle>(wheel_.size()));
  std::vector<Arrival>& due = wheel_[due_bucket_];
  for (const Arrival& a : due) {
    const std::size_t port = static_cast<std::size_t>(a.port);
    if (a.credit) {
      ++ovc_credits_[port * static_cast<std::size_t>(vcs_) +
                     static_cast<std::size_t>(a.vc)];
      --total_credits_;
      --work_[static_cast<std::size_t>(a.router)];
    } else {
      buffer_flit(a.router, port, a.vc, now + delay_, a.pkt, a.flags);
    }
  }
  due.clear();
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
    int chosen;
    if (head) {
      SHG_ASSERT(ni_open_vc_[q] < 0, "head flit while another packet is open");
      // Pick an input VC with space, round-robin (the routing constraints
      // bind at the router's output, not at the local input buffer).
      chosen = -1;
      for (int off = 0; off < vcs_; ++off) {
        const int v = (ni_next_vc_[q] + off) % vcs_;
        if (buf_count_[pidx * static_cast<std::size_t>(vcs_) +
                       static_cast<std::size_t>(v)] < depth_) {
          chosen = v;
          break;
        }
      }
      if (chosen < 0) continue;  // all local VCs full; retry next cycle
      ni_next_vc_[q] = (chosen + 1) % vcs_;
      if (!tail) ni_open_vc_[q] = chosen;
    } else {
      // Body/tail flit: must continue on the head's VC.
      SHG_ASSERT(ni_open_vc_[q] >= 0, "body flit without an open packet");
      chosen = ni_open_vc_[q];
      if (buf_count_[pidx * static_cast<std::size_t>(vcs_) +
                     static_cast<std::size_t>(chosen)] >= depth_) {
        continue;
      }
      if (tail) ni_open_vc_[q] = -1;
    }
    std::uint8_t flags = 0;
    if (head) flags |= kHead;
    if (tail) flags |= kTail;
    buffer_flit(r, pidx, chosen, now + delay_, pkt, flags);
    if (fi + 1 == pkt_flits_) {
      ring.pop();
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
                             static_cast<std::size_t>(buf_head_[s])];
  SHG_ASSERT((head.flags & kHead) != 0,
             "route computation requires a head flit");
  const int net = net_ports_[static_cast<std::size_t>(r)];
  const int dest = pk_dest_[static_cast<std::size_t>(head.pkt)];
  if (dest == r) {
    // Ejection: the destination terminal's port when the packet carries one
    // (concentrated fabrics), otherwise pick the endpoint port by packet id.
    const int ep = pk_eject_port_[static_cast<std::size_t>(head.pkt)];
    SHG_ASSERT(ep < local_ports_, "eject port beyond the tile's endpoints");
    const int local = net + (ep >= 0 ? ep : head.pkt % local_ports_);
    ivc_eject_[s] = RouteCandidate{local, 0, vcs_};
    set_routes(s, {&ivc_eject_[s], 1});
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
      compute_route_ugal(r, s, in_port, in_vc, head.pkt, dest);
    } else {
      set_routes(s, candidates(r, in_port, in_vc, dest, s));
    }
    SHG_ASSERT(ivc_routes_len_[s] > 0, "routing returned no candidates");
  }
  ivc_state_[s] = kVcAlloc;
}

int SoaEngine::first_port(int r, int to, std::size_t s) {
  return candidates(r, -1, -1, to, s).front().out_port;
}

int SoaEngine::adaptive_occupancy(int r, int port) const {
  const std::size_t base = slot(r, port, 0);
  int occ = 0;
  for (int v = kUgalEscapeVcs; v < vcs_; ++v) {
    occ += depth_ - ovc_credits_[base + static_cast<std::size_t>(v)];
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
  if (buffered_[static_cast<std::size_t>(r)] == 0) return;
  const std::size_t pbase = port_base_[static_cast<std::size_t>(r)];
  const int net = net_ports_[static_cast<std::size_t>(r)];
  const int ports = net + local_ports_;
  const int vcs = vcs_;
  const std::size_t sbase = pbase * static_cast<std::size_t>(vcs);

  // --- Route computation for fresh heads --------------------------------
  // Every fresh head is routed, in ascending (port, VC) order; each then
  // waits for VC allocation.
  if (route_pending_[static_cast<std::size_t>(r)] > 0) {
    for (int p = 0; p < ports; ++p) {
      const std::size_t pf = pbase + static_cast<std::size_t>(p);
      for (std::uint64_t m = fresh_[pf]; m != 0; m &= m - 1) {
        const int v = std::countr_zero(m);
        compute_route(r, p, v,
                      sbase + static_cast<std::size_t>(p * vcs + v));
      }
      waiting_[pf] |= fresh_[pf];
      fresh_[pf] = 0;
    }
    va_pending_[static_cast<std::size_t>(r)] +=
        route_pending_[static_cast<std::size_t>(r)];
    route_pending_[static_cast<std::size_t>(r)] = 0;
  }

  // --- VC allocation ------------------------------------------------------
  // Each waiting input VC requests its most-preferred candidate with a free
  // output VC; requests are grouped per output VC and granted round-robin.
  if (va_pending_[static_cast<std::size_t>(r)] > 0) {
    va_requests_.clear();
    for (int p = 0; p < ports; ++p) {
      for (std::uint64_t m = waiting_[pbase + static_cast<std::size_t>(p)];
           m != 0; m &= m - 1) {
        const int v = std::countr_zero(m);
        const std::size_t s = sbase + static_cast<std::size_t>(p * vcs + v);
        int request = -1;
        const RouteCandidate* cands = ivc_routes_[s];
        const int len = ivc_routes_len_[s];
        for (int ci = 0; ci < len; ++ci) {
          const RouteCandidate& cand = cands[ci];
          // UGAL mode: adaptive-band candidates additionally require a
          // credit, so a stuck head can always fall through to the escape
          // candidate instead of camping on a starved adaptive VC.
          const bool needs_credit =
              ugal_mode_ && cand.vc_begin >= kUgalEscapeVcs;
          for (int ov = cand.vc_begin; ov < cand.vc_end; ++ov) {
            const std::size_t o =
                sbase + static_cast<std::size_t>(cand.out_port * vcs + ov);
            if (!ovc_busy_[o] && (!needs_credit || ovc_credits_[o] > 0)) {
              request = cand.out_port * vcs + ov;
              break;
            }
          }
          if (request >= 0) break;
        }
        if (request >= 0) {
          va_requests_.emplace_back(request, p * vcs + v);
        }
      }
    }
    std::sort(va_requests_.begin(), va_requests_.end());
    for (std::size_t i = 0; i < va_requests_.size();) {
      const int out_key = va_requests_[i].first;
      std::size_t j = i;
      while (j < va_requests_.size() && va_requests_[j].first == out_key) ++j;
      // Round-robin among requesters [i, j).
      const int rr = va_rr_[sbase + static_cast<std::size_t>(out_key)];
      std::size_t winner = i;
      int best = std::numeric_limits<int>::max();
      for (std::size_t k = i; k < j; ++k) {
        const int in_key = va_requests_[k].second;
        const int rank = (in_key - rr + ports * vcs) % (ports * vcs);
        if (rank < best) {
          best = rank;
          winner = k;
        }
      }
      const int in_key = va_requests_[winner].second;
      const std::size_t s = sbase + static_cast<std::size_t>(in_key);
      ivc_state_[s] = kActive;
      ivc_out_port_[s] = out_key / vcs;
      ivc_out_vc_[s] = out_key % vcs;
      ovc_busy_[sbase + static_cast<std::size_t>(out_key)] = 1;
      va_rr_[sbase + static_cast<std::size_t>(out_key)] =
          (in_key + 1) % (ports * vcs);
      --va_pending_[static_cast<std::size_t>(r)];
      ++active_ivcs_[static_cast<std::size_t>(r)];
      // The head is still buffered, so the granted VC can send.
      const std::size_t pf = pbase + static_cast<std::size_t>(in_key / vcs);
      const std::uint64_t bit = std::uint64_t{1} << (in_key % vcs);
      waiting_[pf] &= ~bit;
      sendable_[pf] |= bit;
      i = j;
    }
  }

  // --- Switch allocation ---------------------------------------------------
  // Input-first: every input port with a sendable VC nominates one ready VC
  // (round-robin from sa_in_rr_), then every requested output port grants
  // one input port (round-robin). Ports with nothing to send cannot
  // nominate and outputs without requests grant nothing, so restricting
  // both scans to the occupied entries decides identically to a full port
  // sweep.
  if (active_ivcs_[static_cast<std::size_t>(r)] == 0) return;
  sa_req_in_.clear();
  sa_req_ops_.clear();
  for (int p = 0; p < ports; ++p) {
    const std::size_t pf = pbase + static_cast<std::size_t>(p);
    const std::uint64_t m = sendable_[pf];
    if (m == 0) continue;
    // Round-robin order from the pointer: the VCs at or above it, then the
    // ones below, each ascending — the (start + off) % vcs walk.
    const std::uint64_t from_start = ~std::uint64_t{0} << sa_in_rr_[pf];
    int nominee = -1;
    for (std::uint64_t part : {m & from_start, m & ~from_start}) {
      for (; part != 0 && nominee < 0; part &= part - 1) {
        const int v = std::countr_zero(part);
        const std::size_t s = sbase + static_cast<std::size_t>(p * vcs + v);
        const BufFlit& front = buf_[s * static_cast<std::size_t>(depth_) +
                                    static_cast<std::size_t>(buf_head_[s])];
        const std::size_t os =
            sbase +
            static_cast<std::size_t>(ivc_out_port_[s] * vcs + ivc_out_vc_[s]);
        if (front.ready <= now && ovc_credits_[os] > 0) nominee = v;
      }
    }
    if (nominee < 0) continue;
    const int op =
        ivc_out_port_[sbase + static_cast<std::size_t>(p * vcs + nominee)];
    sa_request_port_[static_cast<std::size_t>(p)] = op;
    sa_request_vc_[static_cast<std::size_t>(p)] = nominee;
    sa_req_in_.push_back(p);
    const auto it =
        std::lower_bound(sa_req_ops_.begin(), sa_req_ops_.end(), op);
    if (it == sa_req_ops_.end() || *it != op) sa_req_ops_.insert(it, op);
  }
  // Grants processed in ascending output-port order (this fixes the
  // within-router ejection order).
  for (const int op : sa_req_ops_) {
    int winner = -1;
    int best = std::numeric_limits<int>::max();
    const int rr = sa_out_rr_[pbase + static_cast<std::size_t>(op)];
    for (const int p : sa_req_in_) {
      if (sa_request_port_[static_cast<std::size_t>(p)] != op) continue;
      const int rank = (p - rr + ports) % ports;
      if (rank < best) {
        best = rank;
        winner = p;
      }
    }
    if (winner < 0) continue;
    sa_out_rr_[pbase + static_cast<std::size_t>(op)] = (winner + 1) % ports;
    sa_in_rr_[pbase + static_cast<std::size_t>(winner)] =
        (sa_request_vc_[static_cast<std::size_t>(winner)] + 1) % vcs;

    // --- Switch traversal --------------------------------------------------
    const int iv = sa_request_vc_[static_cast<std::size_t>(winner)];
    const std::size_t s = sbase + static_cast<std::size_t>(winner * vcs + iv);
    const std::size_t wf = pbase + static_cast<std::size_t>(winner);
    const std::uint64_t bit = std::uint64_t{1} << iv;
    const BufFlit flit = buf_[s * static_cast<std::size_t>(depth_) +
                              static_cast<std::size_t>(buf_head_[s])];
    buf_head_[s] = static_cast<std::uint16_t>(
        buf_head_[s] + 1 == depth_ ? 0 : buf_head_[s] + 1);
    --buf_count_[s];
    --buffered_[static_cast<std::size_t>(r)];
    if (buf_count_[s] == 0) sendable_[wf] &= ~bit;
    const int out_port = ivc_out_port_[s];
    const int out_v = ivc_out_vc_[s];
    const std::size_t os = sbase + static_cast<std::size_t>(out_port * vcs +
                                                            out_v);
    // Hop counting: in wormhole switching the tail crosses exactly the
    // routers the head crossed, so counting head traversals into the
    // per-packet array gives the packet's hop count.
    if (flit.flags & kHead) ++pk_hops_[static_cast<std::size_t>(flit.pkt)];
    if (out_port >= net) {
      // Ejection; the endpoint sink consumes immediately (credit net zero).
      eject_buf_.push_back(EjectRec{r, flit.pkt, flit.flags});
      --work_[static_cast<std::size_t>(r)];
      --total_flits_;
    } else {
      --ovc_credits_[os];
      const int c = out_chan_[pbase + static_cast<std::size_t>(out_port)];
      send(c, flit.pkt, out_v, flit.flags, /*credit=*/false);
      const int nbr = chan_dst_[static_cast<std::size_t>(c)];
      --work_[static_cast<std::size_t>(r)];
      ++work_[static_cast<std::size_t>(nbr)];
      activate(nbr);
    }
    // Return the freed buffer slot upstream (network inputs only; the NI
    // observes local buffer occupancy directly).
    if (winner < net) {
      const int c = in_chan_[wf];
      send(c, 0, iv, 0, /*credit=*/true);
      ++total_credits_;
      const int up = chan_src_[static_cast<std::size_t>(c)];
      ++work_[static_cast<std::size_t>(up)];
      activate(up);
    }
    if (flit.flags & kTail) {
      ovc_busy_[os] = 0;
      ivc_state_[s] = kIdle;
      ivc_out_port_[s] = -1;
      ivc_out_vc_[s] = -1;
      ivc_routes_[s] = nullptr;
      ivc_routes_len_[s] = 0;
      --active_ivcs_[static_cast<std::size_t>(r)];
      sendable_[wf] &= ~bit;
      // The next packet's head may already be buffered behind the departed
      // tail; it becomes route-pending now that the slot is idle again.
      if (buf_count_[s] > 0) {
        fresh_[wf] |= bit;
        ++route_pending_[static_cast<std::size_t>(r)];
      }
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
      work_[static_cast<std::size_t>(tile)] += pkt_flits_;
      total_flits_ += pkt_flits_;
      activate(tile);
    }

    // --- One network cycle over the active routers ------------------------
    // Everything due this cycle lands first; then inject/allocate fuse per
    // router. Phases commute across routers (arrivals are filed at
    // now + latency >= now + 1, so nothing sent this cycle is visible this
    // cycle). Routers activated during the pass (flits or credits sent
    // their way) are appended beyond the snapshot and start next cycle.
    deliver_due(now);
    const std::size_t n_active = active_.size();
    for (std::size_t i = 0; i < n_active; ++i) {
      const int r = active_[i];
      ni_inject(r, now);
      allocate(r, now);
    }

    // --- Harvest ejected flits (tile-ascending order) ---------------------
    if (!eject_buf_.empty()) {
      std::stable_sort(eject_buf_.begin(), eject_buf_.end(),
                       [](const EjectRec& a, const EjectRec& b) {
                         return a.tile < b.tile;
                       });
      for (const EjectRec& e : eject_buf_) {
        last_ejection = now;
        if (now >= config_.warmup_cycles && now < generation_end) {
          ++flits_ejected_in_window;
        }
        if (!(e.flags & kTail)) continue;
        const std::size_t pkt = static_cast<std::size_t>(e.pkt);
        SHG_ASSERT(!pk_done_[pkt], "packet ejected twice");
        pk_done_[pkt] = 1;
        if (pk_measured_[pkt]) {
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
      if (work_[static_cast<std::size_t>(r)] > 0) {
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
