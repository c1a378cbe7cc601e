#include "shg/sim/router.hpp"

#include <algorithm>
#include <limits>

namespace shg::sim {

namespace {
// Local output ports model the tile's endpoints as an infinite sink: the
// endpoint always accepts one flit per port and cycle.
constexpr int kSinkCredits = std::numeric_limits<int>::max() / 2;
}  // namespace

Router::Router(int node, int num_net_ports, int num_local_ports,
               const SimConfig& config, const RoutingFunction* routing,
               const RouteTable* table)
    : node_(node),
      num_net_ports_(num_net_ports),
      num_local_ports_(num_local_ports),
      config_(config),
      routing_(routing),
      table_(table) {
  SHG_REQUIRE(num_net_ports >= 0 && num_local_ports >= 1,
              "router needs at least one local port");
  SHG_REQUIRE(routing != nullptr || table != nullptr,
              "router needs a routing function or a route table");
  SHG_REQUIRE(table == nullptr || table->num_vcs() == config.num_vcs,
              "route table was built for a different VC count");
  config_.validate();
  ugal_mode_ = effective_routing_policy(config_) == RoutingPolicy::kUgal;
  if (ugal_mode_) {
    ugal_info_ =
        table_ != nullptr ? table_->ugal_info() : routing_->ugal_info();
    SHG_REQUIRE(ugal_info_ != nullptr,
                "UGAL routing policy needs a UGAL routing function or a "
                "route table built from one");
  }
  const int ports = num_ports();
  in_channels_.assign(static_cast<std::size_t>(ports), nullptr);
  out_channels_.assign(static_cast<std::size_t>(ports), nullptr);
  input_vcs_.resize(static_cast<std::size_t>(ports * config_.num_vcs));
  output_vcs_.resize(static_cast<std::size_t>(ports * config_.num_vcs));
  for (int p = 0; p < ports; ++p) {
    for (int v = 0; v < config_.num_vcs; ++v) {
      out_vc(p, v).credits =
          is_local_port(p) ? kSinkCredits : config_.buffer_depth_flits;
    }
  }
  va_rr_.assign(static_cast<std::size_t>(ports * config_.num_vcs), 0);
  sa_in_rr_.assign(static_cast<std::size_t>(ports), 0);
  sa_out_rr_.assign(static_cast<std::size_t>(ports), 0);
  sa_request_port_.assign(static_cast<std::size_t>(ports), -1);
  sa_request_vc_.assign(static_cast<std::size_t>(ports), -1);
}

void Router::attach(int port, Channel* in_channel, Channel* out_channel) {
  SHG_REQUIRE(port >= 0 && port < num_net_ports_,
              "can only attach channels to network ports");
  in_channels_[static_cast<std::size_t>(port)] = in_channel;
  out_channels_[static_cast<std::size_t>(port)] = out_channel;
}

bool Router::try_inject(int local_port, int vc, const Flit& flit, Cycle now) {
  SHG_REQUIRE(local_port >= 0 && local_port < num_local_ports_,
              "local port out of range");
  SHG_REQUIRE(vc >= 0 && vc < config_.num_vcs, "vc out of range");
  InputVc& ivc = in_vc(num_net_ports_ + local_port, vc);
  if (static_cast<int>(ivc.buffer.size()) >= config_.buffer_depth_flits) {
    return false;
  }
  Flit stored = flit;
  stored.vc = vc;
  stored.ready_cycle = now + config_.router_delay_cycles;
  ivc.buffer.push_back(stored);
  ++buffered_;
  return true;
}

int Router::local_vc_space(int local_port, int vc) const {
  const InputVc& ivc = in_vc(num_net_ports_ + local_port, vc);
  return config_.buffer_depth_flits - static_cast<int>(ivc.buffer.size());
}

void Router::deliver_phase(Cycle now) {
  for (int p = 0; p < num_net_ports_; ++p) {
    Channel* in = in_channels_[static_cast<std::size_t>(p)];
    if (in != nullptr) {
      while (auto flit = in->pop_flit(now)) {
        InputVc& ivc = in_vc(p, flit->vc);
        SHG_ASSERT(static_cast<int>(ivc.buffer.size()) <
                       config_.buffer_depth_flits,
                   "credit protocol violated: buffer overflow");
        flit->ready_cycle = now + config_.router_delay_cycles;
        ivc.buffer.push_back(*flit);
        ++buffered_;
      }
    }
    Channel* out = out_channels_[static_cast<std::size_t>(p)];
    if (out != nullptr) {
      while (auto credit = out->pop_credit(now)) {
        ++out_vc(p, credit->vc).credits;
      }
    }
  }
}

void Router::compute_route(int port, int vc) {
  InputVc& ivc = in_vc(port, vc);
  const Flit& head = ivc.buffer.front();
  SHG_ASSERT(head.head, "route computation requires a head flit");
  if (head.dest == node_) {
    // Ejection: the destination terminal's port when the packet carries one
    // (concentrated fabrics), otherwise pick the endpoint port by packet id
    // (spreads load over the tile's endpoints); any VC of the sink port is
    // acceptable.
    SHG_ASSERT(head.eject_port < num_local_ports_,
               "eject port beyond the tile's endpoints");
    const int local =
        num_net_ports_ + (head.eject_port >= 0
                              ? head.eject_port
                              : head.packet_id % num_local_ports_);
    ivc.eject = RouteCandidate{local, 0, config_.num_vcs};
    ivc.routes = {&ivc.eject, 1};
  } else {
    // Local input ports report in_port == -1 AND in_vc == -1: the local
    // buffer VC an injected packet happens to sit in carries no routing
    // state (VC classes like dateline/escape only apply to network hops).
    // Passing the raw local VC here once caused a real deadlock: packets
    // injected into VC 1 of the local port were misclassified as "already
    // crossed the dateline" and legally traversed the wrap edge on the
    // class-1 channels, closing the cycle the dateline breaks.
    const bool from_network = port < num_net_ports_;
    const int in_port = from_network ? port : -1;
    const int in_vc = from_network ? vc : -1;
    if (ugal_mode_) {
      compute_route_ugal(ivc, in_port, in_vc);
    } else if (table_ != nullptr) {
      ivc.routes = table_->lookup(node_, in_port, in_vc, head.dest);
    } else {
      ivc.live_candidates = routing_->route(node_, in_port, in_vc, head.dest);
      ivc.routes = ivc.live_candidates;
    }
    SHG_ASSERT(!ivc.routes.empty(), "routing returned no candidates");
  }
  ivc.state = InputVc::State::kVcAlloc;
}

std::span<const RouteCandidate> Router::row(
    int in_port, int in_vc, int dest,
    std::vector<RouteCandidate>& storage) const {
  if (table_ != nullptr) return table_->lookup(node_, in_port, in_vc, dest);
  storage = routing_->route(node_, in_port, in_vc, dest);
  return storage;
}

int Router::adaptive_occupancy(int out_port) {
  int occ = 0;
  for (int v = kUgalEscapeVcs; v < config_.num_vcs; ++v) {
    occ += config_.buffer_depth_flits - out_vc(out_port, v).credits;
  }
  return occ;
}

void Router::compute_route_ugal(InputVc& ivc, int in_port, int in_vc) {
  Flit& head = ivc.buffer.front();
  // A packet that traveled a network channel on an escape VC stays on the
  // escape network for the rest of its life: its rows (the family routing's
  // own candidates) all live inside the escape band, and they target the
  // final destination — any non-minimal leg is abandoned on escape entry.
  const bool on_escape =
      in_port >= 0 && in_vc >= 0 && in_vc < kUgalEscapeVcs;
  if (on_escape) {
    ivc.routes = row(in_port, in_vc, head.dest, ivc.live_candidates);
    return;
  }
  if (in_port < 0 && head.via < 0) {
    // Injection-time UGAL decision (booksim2 ugal_dragonflynew shape): the
    // minimal path competes on adaptive-band occupancy of its first hop
    // weighted by its hop count; the Valiant alternative carries the
    // two-leg hop count plus the configured bias. Occupancy reads only
    // this router's output credit counters, which both engines agree on at
    // route-computation time (deliver runs before allocate on every
    // router), so the decision is engine-independent.
    const int via = ugal_info_->via_of(node_, head.dest);
    if (via >= 0) {
      std::vector<RouteCandidate> scratch;
      const auto row_min = row(-1, -1, head.dest, scratch);
      const int occ_min = adaptive_occupancy(row_min.front().out_port);
      const auto row_nm = row(-1, -1, via, scratch);
      const int occ_nm = adaptive_occupancy(row_nm.front().out_port);
      const long long cost_min =
          static_cast<long long>(occ_min) *
          ugal_info_->hops_between(node_, head.dest);
      const long long cost_nm =
          static_cast<long long>(occ_nm) *
              (ugal_info_->hops_between(node_, via) +
               ugal_info_->hops_between(via, head.dest)) +
          config_.ugal_bias_flits;
      if (cost_nm < cost_min) {
        head.via = via;
        ++ugal_nonminimal_;
      }
    }
  }
  // The intermediate is reached on the adaptive band: the non-minimal leg
  // ends and the packet routes minimally toward its destination. The
  // buffered head is cleared in place so the downstream copy carries
  // via == -1.
  if (head.via == node_) head.via = -1;
  if (head.via < 0) {
    ivc.routes = row(in_port, in_vc, head.dest, ivc.live_candidates);
    return;
  }
  // Non-minimal leg: adaptive candidates steer toward the intermediate,
  // the escape candidates keep targeting the final destination (escape
  // entry abandons the leg; see above).
  std::vector<RouteCandidate> spliced;
  std::vector<RouteCandidate> scratch;
  for (const RouteCandidate& cand : row(in_port, in_vc, head.via, scratch)) {
    if (cand.vc_begin >= kUgalEscapeVcs) spliced.push_back(cand);
  }
  for (const RouteCandidate& cand : row(in_port, in_vc, head.dest, scratch)) {
    if (cand.vc_begin < kUgalEscapeVcs) spliced.push_back(cand);
  }
  ivc.live_candidates = std::move(spliced);
  ivc.routes = ivc.live_candidates;
}

void Router::allocate_phase(Cycle now) {
  // Empty router fast path: with no buffered flit there is nothing to
  // route, no VC to request and no switch grant to make, and the
  // round-robin pointers only advance on grants — skipping the three
  // allocator sweeps is bit-identical to running them. At low and moderate
  // loads most routers are empty in most cycles.
  if (buffered_ == 0) return;
  const int ports = num_ports();
  const int vcs = config_.num_vcs;

  // --- Route computation for fresh heads --------------------------------
  for (int p = 0; p < ports; ++p) {
    for (int v = 0; v < vcs; ++v) {
      InputVc& ivc = in_vc(p, v);
      if (ivc.state == InputVc::State::kIdle && !ivc.buffer.empty()) {
        compute_route(p, v);
      }
    }
  }

  // --- VC allocation ------------------------------------------------------
  // Each waiting input VC requests its most-preferred candidate with a free
  // output VC; requests are grouped per output VC and granted round-robin.
  va_requests_.clear();
  for (int p = 0; p < ports; ++p) {
    for (int v = 0; v < vcs; ++v) {
      InputVc& ivc = in_vc(p, v);
      if (ivc.state != InputVc::State::kVcAlloc) continue;
      int request = -1;
      for (const RouteCandidate& cand : ivc.routes) {
        // UGAL liveness guard: committing to an adaptive-band VC with no
        // credit could park the packet behind a congestion cycle the escape
        // network cannot break (the commit is final until the tail leaves).
        // Requiring a credit up front means an adaptive grant always makes
        // one hop of progress, and a head that cannot get one keeps
        // requesting — and can always fall onto the escape candidate, whose
        // acyclic network drains. Minimal mode keeps the historical
        // busy-only check (bit-identical behavior).
        const bool needs_credit =
            ugal_mode_ && cand.vc_begin >= kUgalEscapeVcs;
        for (int ov = cand.vc_begin; ov < cand.vc_end; ++ov) {
          const OutputVc& o = out_vc(cand.out_port, ov);
          if (!o.busy && (!needs_credit || o.credits > 0)) {
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
    const int rr = va_rr_[static_cast<std::size_t>(out_key)];
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
    InputVc& ivc = input_vcs_[static_cast<std::size_t>(in_key)];
    ivc.state = InputVc::State::kActive;
    ivc.out_port = out_key / vcs;
    ivc.out_vc = out_key % vcs;
    out_vc(ivc.out_port, ivc.out_vc).busy = true;
    va_rr_[static_cast<std::size_t>(out_key)] = (in_key + 1) % (ports * vcs);
    i = j;
  }

  // --- Switch allocation ---------------------------------------------------
  // Input-first: every input port nominates one ready VC (round-robin),
  // then every output port grants one input port (round-robin).
  std::fill(sa_request_port_.begin(), sa_request_port_.end(), -1);
  for (int p = 0; p < ports; ++p) {
    const int start = sa_in_rr_[static_cast<std::size_t>(p)];
    for (int off = 0; off < vcs; ++off) {
      const int v = (start + off) % vcs;
      InputVc& ivc = in_vc(p, v);
      if (ivc.state == InputVc::State::kActive && !ivc.buffer.empty() &&
          ivc.buffer.front().ready_cycle <= now &&
          out_vc(ivc.out_port, ivc.out_vc).credits > 0) {
        sa_request_port_[static_cast<std::size_t>(p)] = ivc.out_port;
        sa_request_vc_[static_cast<std::size_t>(p)] = v;
        break;
      }
    }
  }
  for (int op = 0; op < ports; ++op) {
    // Gather input ports requesting this output port; grant one.
    int winner = -1;
    int best = std::numeric_limits<int>::max();
    const int rr = sa_out_rr_[static_cast<std::size_t>(op)];
    for (int p = 0; p < ports; ++p) {
      if (sa_request_port_[static_cast<std::size_t>(p)] != op) continue;
      const int rank = (p - rr + ports) % ports;
      if (rank < best) {
        best = rank;
        winner = p;
      }
    }
    if (winner < 0) continue;
    sa_out_rr_[static_cast<std::size_t>(op)] = (winner + 1) % ports;
    sa_in_rr_[static_cast<std::size_t>(winner)] =
        (sa_request_vc_[static_cast<std::size_t>(winner)] + 1) % vcs;

    // --- Switch traversal --------------------------------------------------
    const int iv = sa_request_vc_[static_cast<std::size_t>(winner)];
    InputVc& ivc = in_vc(winner, iv);
    Flit flit = ivc.buffer.front();
    ivc.buffer.pop_front();
    --buffered_;
    flit.vc = ivc.out_vc;
    ++flit.hops;
    OutputVc& ovc = out_vc(ivc.out_port, ivc.out_vc);
    --ovc.credits;
    if (is_local_port(ivc.out_port)) {
      ejected_.push_back(flit);
      ++ovc.credits;  // endpoint sink consumes immediately
    } else {
      Channel* out = out_channels_[static_cast<std::size_t>(ivc.out_port)];
      SHG_ASSERT(out != nullptr, "network output port has no channel");
      out->push_flit(flit, now);
    }
    // Return the freed buffer slot upstream (network inputs only; the NI
    // observes local buffer occupancy directly).
    if (winner < num_net_ports_) {
      Channel* in = in_channels_[static_cast<std::size_t>(winner)];
      SHG_ASSERT(in != nullptr, "network input port has no channel");
      in->push_credit(Credit{iv}, now);
    }
    if (flit.tail) {
      ovc.busy = false;
      ivc.state = InputVc::State::kIdle;
      ivc.out_port = -1;
      ivc.out_vc = -1;
      ivc.routes = {};
      ivc.live_candidates.clear();
    }
  }
}

}  // namespace shg::sim
