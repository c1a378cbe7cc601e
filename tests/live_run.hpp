// Live-routing runs: the engine driven without a route table, so every head
// flit asks the routing function. Simulator builds a table whenever the
// topology fits the row budget, so the tests that pin the live path (the
// golden corpus's " live" cases, the table-vs-live checks) construct the
// engine here, with the routing Simulator would build for the same
// arguments.
#pragma once

#include <vector>

#include "shg/sim/routing.hpp"
#include "shg/sim/simulator.hpp"
#include "shg/sim/soa_network.hpp"

namespace shg::sim {

/// One run's statistics plus its UGAL non-minimal decision count.
struct RunOutcome {
  SimResult result;
  long long nonminimal = 0;
};

/// One run with live routing; the injection defaults to Simulator's,
/// Bernoulli.
inline RunOutcome run_live(const topo::Topology& topo,
                           const std::vector<int>& link_latencies,
                           const SimConfig& config,
                           const TrafficPattern* pattern,
                           int endpoints_per_tile,
                           const Injection& injection = {}) {
  const auto routing = make_policy_routing(topo, config);
  SoaEngine engine(topo, link_latencies, config, pattern,
                   topo.concentration() > 1 ? topo.concentration()
                                            : endpoints_per_tile,
                   routing.get(), nullptr, injection);
  RunOutcome out;
  out.result = engine.run();
  out.nonminimal = engine.ugal_nonminimal();
  return out;
}

}  // namespace shg::sim
