// Performance evaluation: zero-load latency and saturation throughput via
// cycle-accurate simulation (the right half of the toolchain in Fig. 3).
#pragma once

#include <vector>

#include "shg/sim/simulator.hpp"

namespace shg::eval {

/// Knobs of the performance evaluation.
struct PerfConfig {
  sim::SimConfig sim;  ///< router microarchitecture + measurement phases

  double zero_load_rate = 0.005;  ///< injection rate for the ZLL probe
  /// A rate is saturated when mean latency exceeds this multiple of the
  /// zero-load latency (BookSim convention) ...
  double latency_threshold_factor = 3.0;
  /// ... or when accepted throughput falls below this fraction of offered.
  double min_accepted_fraction = 0.9;
  int bisection_iterations = 7;
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
