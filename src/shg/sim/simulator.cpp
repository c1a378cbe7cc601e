#include "shg/sim/simulator.hpp"

#include <algorithm>
#include <string>

#include "shg/sim/soa_network.hpp"

namespace shg::sim {

namespace {

/// Smallest VC count the (topology, policy) combination is deadlock-free
/// with. SimConfig::validate() cannot see either, so the check lives at
/// simulator construction: without it an under-provisioned config used to
/// surface as a deep SHG_REQUIRE from a routing constructor or, worse, a
/// silent saturation hang.
int min_vcs_for(const topo::Topology& topo, const SimConfig& config) {
  if (effective_routing_policy(config) == RoutingPolicy::kUgal) {
    return kUgalEscapeVcs + 1;  // 2 escape classes + >= 1 adaptive VC
  }
  switch (topo.kind()) {
    case topo::Kind::kRing:
    case topo::Kind::kTorus:
    case topo::Kind::kFoldedTorus:
      return 2;  // dateline class pair
    case topo::Kind::kSlimNoc:
    case topo::Kind::kCustom:
      return 2;  // adaptive band + escape VC
    default:
      return 1;
  }
}

}  // namespace

std::size_t packet_reserve_hint(double packet_prob, Cycle generation_end,
                                int num_tiles, int endpoints_per_tile) {
  // All factors are non-negative, but their product at 64x64+, high rate
  // and long measurement phases can exceed what a size_t cast (UB for
  // values > SIZE_MAX) or an upfront reserve should see. Work in double,
  // add the 10% headroom, then clamp to a 16M-record ceiling — past that
  // the vector's geometric growth is cheaper than a mis-sized commit.
  constexpr double kMaxReserve = static_cast<double>(std::size_t{1} << 24);
  double expected = packet_prob * static_cast<double>(generation_end) *
                    static_cast<double>(num_tiles) *
                    static_cast<double>(endpoints_per_tile);
  if (!(expected > 0.0)) expected = 0.0;  // also catches NaN
  const double want = std::min(expected * 1.1, kMaxReserve);
  return static_cast<std::size_t>(want) + 256;
}

Simulator::Simulator(const topo::Topology& topo,
                     std::vector<int> link_latencies, SimConfig config,
                     const TrafficPattern* pattern, int endpoints_per_tile,
                     std::shared_ptr<const RouteTable> shared_table,
                     Injection injection)
    : topo_(&topo),
      link_latencies_(std::move(link_latencies)),
      config_(config),
      pattern_(pattern),
      endpoints_per_tile_(endpoints_per_tile),
      route_table_(std::move(shared_table)),
      injection_(std::move(injection)) {
  if (topo.concentration() > 1) {
    SHG_REQUIRE(endpoints_per_tile_ == 1,
                "concentrated runs define the endpoint count through the "
                "concentration factor; pass endpoints_per_tile = 1");
    endpoints_per_tile_ = topo.concentration();
  }
  config_.validate();
  {
    const int min_vcs = min_vcs_for(topo, config_);
    SHG_REQUIRE(
        config_.num_vcs >= min_vcs,
        "SimConfig::num_vcs = " + std::to_string(config_.num_vcs) +
            " is too small: " +
            (effective_routing_policy(config_) == RoutingPolicy::kUgal
                 ? std::string("the ugal routing policy needs ") +
                       std::to_string(min_vcs) +
                       " VCs (2 escape classes + 1 adaptive)"
                 : "this topology family's deadlock-free routing "
                   "(dateline/escape classes) needs " +
                       std::to_string(min_vcs) + " VCs"));
  }
  injection_.require_runnable(pattern_, config_);
  if (route_table_ != nullptr) {
    const bool ugal =
        effective_routing_policy(config_) == RoutingPolicy::kUgal;
    SHG_REQUIRE(route_table_->num_vcs() == config_.num_vcs,
                "shared route table was built for a different VC count");
    SHG_REQUIRE(route_table_->matches(topo),
                "shared route table was built for a different topology");
    SHG_REQUIRE((route_table_->ugal_info() != nullptr) == ugal,
                "shared route table was built for a different routing "
                "policy (minimal vs ugal)");
  } else {
    // No shared table: build one within the row budget, otherwise keep the
    // routing function for the engine to call per head flit.
    auto routing = make_policy_routing(topo, config_);
    if (RouteTable::rows_for(topo, config_.num_vcs) <= kMaxRouteTableRows) {
      route_table_ = std::make_shared<const RouteTable>(topo, *routing,
                                                        config_.num_vcs);
    } else {
      routing_ = std::move(routing);
    }
  }
}

SimResult Simulator::run() {
  SoaEngine engine(*topo_, link_latencies_, config_, pattern_,
                   endpoints_per_tile_, routing_.get(), route_table_.get(),
                   injection_);
  const SimResult result = engine.run();
  last_ugal_nonminimal_ = engine.ugal_nonminimal();
  return result;
}

}  // namespace shg::sim
