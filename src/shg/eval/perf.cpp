#include "shg/eval/perf.hpp"

namespace shg::eval {

sim::SimResult simulate_at_rate(
    const topo::Topology& topo, const std::vector<int>& link_latencies,
    int endpoints_per_tile, const sim::TrafficPattern& pattern,
    const PerfConfig& config, double rate,
    std::shared_ptr<const sim::RouteTable> shared_table) {
  sim::SimConfig sim_config = config.sim;
  sim_config.injection_rate = rate;
  sim::Simulator simulator(topo, link_latencies, sim_config, &pattern,
                           endpoints_per_tile, std::move(shared_table));
  return simulator.run();
}

std::shared_ptr<const sim::RouteTable> make_shared_route_table(
    const topo::Topology& topo, const PerfConfig& config) {
  if (sim::RouteTable::rows_for(topo, config.sim.num_vcs) >
      sim::kMaxSharedRouteTableRows) {
    return nullptr;
  }
  // Policy-aware: an ugal config gets a table with the UGAL candidate rows
  // (and the ugal_info sidecar the simulator requires); minimal configs get
  // the family default, exactly as before.
  const auto routing = sim::make_policy_routing(topo, config.sim);
  return std::make_shared<const sim::RouteTable>(topo, *routing,
                                                 config.sim.num_vcs);
}

namespace {

/// Injection rate of the zero-load latency probe.
constexpr double kZeroLoadRate = 0.005;
/// A rate is saturated when mean latency exceeds this multiple of the
/// zero-load latency (BookSim convention) ...
constexpr double kLatencyThresholdFactor = 3.0;
/// ... or when accepted throughput falls below this fraction of offered.
constexpr double kMinAcceptedFraction = 0.9;

bool is_saturated(const sim::SimResult& result, double zero_load_latency) {
  if (!result.drained) return true;
  if (result.measured_packets == 0) return true;
  if (result.avg_packet_latency > kLatencyThresholdFactor * zero_load_latency) {
    return true;
  }
  return result.accepted_rate < kMinAcceptedFraction * result.offered_rate;
}

}  // namespace

PerfResult evaluate_performance(const topo::Topology& topo,
                                const std::vector<int>& link_latencies,
                                int endpoints_per_tile,
                                const sim::TrafficPattern& pattern,
                                const PerfConfig& config) {
  PerfResult result;

  // One route table serves every probe of this evaluation (the topology,
  // routing and VC count never change across rates).
  const auto table = make_shared_route_table(topo, config);

  // Zero-load latency: a rate low enough that queueing is negligible.
  const sim::SimResult zero = simulate_at_rate(
      topo, link_latencies, endpoints_per_tile, pattern, config,
      kZeroLoadRate, table);
  SHG_REQUIRE(zero.drained && zero.measured_packets > 0,
              "zero-load run must drain; topology or routing is broken");
  result.zero_load_latency_cycles = zero.avg_packet_latency;
  result.zero_load_hops = zero.avg_hops;

  // Saturation: bisection on the injection rate. The zero-load probe is
  // un-saturated by construction; rate 1.0 is the upper bound.
  double lo = kZeroLoadRate;
  double hi = 1.0;
  sim::SimResult at_lo = zero;
  const sim::SimResult full = simulate_at_rate(
      topo, link_latencies, endpoints_per_tile, pattern, config, 1.0, table);
  if (!is_saturated(full, result.zero_load_latency_cycles)) {
    result.saturation_throughput = 1.0;
    result.accepted_at_saturation = full.accepted_rate;
    return result;
  }
  for (int iter = 0; iter < config.bisection_iterations; ++iter) {
    const double mid = (lo + hi) / 2.0;
    const sim::SimResult probe = simulate_at_rate(
        topo, link_latencies, endpoints_per_tile, pattern, config, mid,
        table);
    if (is_saturated(probe, result.zero_load_latency_cycles)) {
      hi = mid;
    } else {
      lo = mid;
      at_lo = probe;
    }
  }
  result.saturation_throughput = lo;
  result.accepted_at_saturation = at_lo.accepted_rate;
  return result;
}

}  // namespace shg::eval
