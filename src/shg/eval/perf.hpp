// Performance evaluation: zero-load latency and saturation throughput via
// cycle-accurate simulation (the right half of the toolchain in Fig. 3).
#pragma once

#include <vector>

#include "shg/sim/simulator.hpp"

namespace shg::eval {

/// Knobs of the performance evaluation. The zero-load probe rate and the
/// saturation criteria are fixed (perf.cpp).
struct PerfConfig {
  sim::SimConfig sim;  ///< router microarchitecture + measurement phases
  int bisection_iterations = 7;  ///< saturation-search steps
};

/// Zero-load latency and saturation throughput of one configuration.
struct PerfResult {
  double zero_load_latency_cycles = 0.0;
  double zero_load_hops = 0.0;
  double saturation_throughput = 0.0;  ///< flits/cycle/port at saturation
  /// Accepted throughput measured at the saturation rate.
  double accepted_at_saturation = 0.0;
};

/// Measures zero-load latency (low-rate run) and saturation throughput
/// (bisection over the injection rate).
PerfResult evaluate_performance(const topo::Topology& topo,
                                const std::vector<int>& link_latencies,
                                int endpoints_per_tile,
                                const sim::TrafficPattern& pattern,
                                const PerfConfig& config);

/// Single simulation at a fixed rate (helper for sweeps and benches).
/// `shared_table` optionally reuses one precomputed route table across many
/// rates on the same topology (see make_shared_route_table).
sim::SimResult simulate_at_rate(
    const topo::Topology& topo, const std::vector<int>& link_latencies,
    int endpoints_per_tile, const sim::TrafficPattern& pattern,
    const PerfConfig& config, double rate,
    std::shared_ptr<const sim::RouteTable> shared_table = nullptr);

/// Builds the route table the config's routing policy would use on `topo`,
/// for sharing across the simulations of a sweep or bisection. Returns null
/// above the shared row budget (sim::kMaxSharedRouteTableRows), where the
/// simulator routes live instead.
std::shared_ptr<const sim::RouteTable> make_shared_route_table(
    const topo::Topology& topo, const PerfConfig& config);

}  // namespace shg::eval
