// Cycle-accurate simulation driver: warmup / measurement / drain phases and
// latency/throughput statistics (the BookSim2 substitute of the prediction
// toolchain, Fig. 3).
//
// Simulator validates the run and owns its route table (or, above the
// table's row budget, its live routing function) and its injection;
// each run() hands them to one SoaEngine
// (sim/soa_network.hpp: flat slabs, an active-router worklist and
// quiescence fast-forward). The golden corpus (tests/golden/) pins its
// results bit for bit (ARCHITECTURE.md, "Simulator hot loop").
#pragma once

#include <memory>
#include <vector>

#include "shg/sim/config.hpp"
#include "shg/sim/injection.hpp"
#include "shg/sim/route_table.hpp"
#include "shg/sim/routing.hpp"
#include "shg/sim/traffic.hpp"

namespace shg::sim {

/// Result of one simulation run at a fixed injection rate. The struct is
/// plain scalar data on purpose: the session result tier
/// (customize/cache.hpp, SimResultCache) serializes every field by bit
/// pattern, so a cache hit reproduces a cold run's report bytes exactly —
/// a new field here must be added to that serializer.
struct SimResult {
  double offered_rate = 0.0;   ///< flits / cycle / endpoint port
  double accepted_rate = 0.0;  ///< ejected flits / cycle / endpoint port
  double avg_packet_latency = 0.0;  ///< creation -> tail ejection, cycles
  double max_packet_latency = 0.0;
  double p50_packet_latency = 0.0;
  double p95_packet_latency = 0.0;
  double p99_packet_latency = 0.0;
  double avg_hops = 0.0;
  /// Worst per-source mean latency / overall mean latency (>= 1).
  double fairness = 1.0;
  long long measured_packets = 0;
  bool drained = true;  ///< all measured packets ejected within the budget
  long long cycles_run = 0;

  /// Exact (bit-level for the doubles) equality — the comparison the
  /// cache-identity and differential oracles gate on.
  friend bool operator==(const SimResult&, const SimResult&) = default;
};

/// One simulation: a topology with per-link latencies, a router
/// configuration, a traffic pattern and an injection (sim/injection.hpp).
/// The routing is the one the config's policy selects for the topology
/// family (make_policy_routing).
class Simulator {
 public:
  /// `link_latencies`: cycles per link, from the cost model (Section IV-B2d).
  /// `endpoints_per_tile`: local injection/ejection ports per tile; must be
  /// 1 for a concentrated topology (make_concentrated_mesh), whose
  /// concentration factor then defines the endpoint count.
  /// `shared_table` lets callers running many simulations on one topology
  /// (sweeps, bisection) reuse one precomputed route table instead of
  /// rebuilding it per run; it must match the topology, VC count and
  /// routing policy. Without one, the simulator builds its own table when
  /// RouteTable::rows_for stays within kMaxRouteTableRows and routes live
  /// above that budget.
  /// `pattern` is null exactly when `injection` is a trace replay; that,
  /// and whether an on/off injection reaches the configured rate, is
  /// checked here. The default injection is Bernoulli.
  Simulator(const topo::Topology& topo, std::vector<int> link_latencies,
            SimConfig config, const TrafficPattern* pattern,
            int endpoints_per_tile,
            std::shared_ptr<const RouteTable> shared_table = nullptr,
            Injection injection = {});

  /// Runs warmup + measurement + drain on a fresh SoaEngine and returns
  /// the statistics. Repeated calls give identical results: every run
  /// generates its packets afresh, from config.seed or the trace.
  SimResult run();

  /// The route table the runs use: the shared one, or the one built here;
  /// null above the row budget, where the engine routes live.
  const RouteTable* route_table() const { return route_table_.get(); }

  /// Packets the last run() sent on a UGAL non-minimal leg. Always 0 under
  /// an effective kMinimal policy (including the kUgalBiasAlwaysMinimal
  /// sentinel). Diagnostic side channel — deliberately NOT a SimResult
  /// field, so the bit-serialized result cache layout is untouched.
  long long ugal_nonminimal_choices() const { return last_ugal_nonminimal_; }

 private:
  const topo::Topology* topo_;
  std::vector<int> link_latencies_;
  SimConfig config_;
  const TrafficPattern* pattern_;
  int endpoints_per_tile_;
  std::unique_ptr<RoutingFunction> routing_;  ///< null with a route table
  std::shared_ptr<const RouteTable> route_table_;
  Injection injection_;
  long long last_ugal_nonminimal_ = 0;
};

/// Initial reserve for per-packet bookkeeping: the expected injection
/// volume plus headroom, clamped so a high rate x long measurement x large
/// fabric product cannot overflow the size_t conversion or pre-commit
/// gigabytes up front (vectors still grow past the clamp on demand).
std::size_t packet_reserve_hint(double packet_prob, Cycle generation_end,
                                int num_tiles, int endpoints_per_tile);

}  // namespace shg::sim
