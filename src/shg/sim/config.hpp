// Simulation configuration: router microarchitecture and measurement setup.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "shg/common/error.hpp"

namespace shg::sim {

/// Simulated time, in router clock cycles.
using Cycle = long long;

/// The longest run SimConfig::validate() accepts: the engine stores ready
/// and creation cycles in 32 bits.
inline constexpr Cycle kMaxCycleHorizon = 0xffffffffLL;

/// How the router picks the path of a packet.
///
/// kMinimal: every packet follows a hop-minimal route (the per-family
/// default routing; deadlock-free by construction — see ARCHITECTURE.md,
/// "Deadlock freedom by routing family").
///
/// kUgal: UGAL-class source-adaptive routing (booksim2's
/// `ugal_dragonflynew` shape). At injection time the source router compares
/// the adaptive-VC occupancy toward the destination (weighted by the
/// minimal hop count) against the occupancy toward a deterministic,
/// seed-drawn Valiant intermediate (weighted by the two-leg hop count plus
/// a bias), and sends the packet non-minimally when the congested minimal
/// path loses. Deadlock freedom comes from a Duato escape scheme: adaptive
/// choice lives on VCs [2, num_vcs), the per-family deadlock-free routing
/// runs as an escape network on the reserved classes [0, 2), and a packet
/// that enters the escape band stays on it. Requires num_vcs >= 3.
enum class RoutingPolicy : std::int32_t {
  kMinimal = 0,
  kUgal = 1,
};

/// Knobs of one simulation run.
///
/// Every field is part of the experiment-cell cache key
/// (customize::fingerprint_sim_config) — a sizeof-based static_assert next
/// to that routine trips when a field is added here without extending it,
/// so new knobs cannot silently alias cached simulation results.
///
/// What the simulator can derive is not a knob here: the concentration
/// factor comes from the topology (topo::Topology::concentration()), and
/// whether a route table is built from the topology's size
/// (RouteTable::rows_for against kMaxRouteTableRows, sim/route_table.hpp).
struct SimConfig {
  // Router microarchitecture ("input-queued routers with 8 virtual channels
  // and 32-flit buffers", Section V-b).
  int num_vcs = 8;
  int buffer_depth_flits = 32;
  /// Per-router pipeline delay in cycles; the paper's model assumes every
  /// router (and flit injection) adds at least one cycle.
  int router_delay_cycles = 1;

  // Traffic.
  int packet_size_flits = 4;
  double injection_rate = 0.01;  ///< flits per cycle per endpoint port

  // Measurement phases (BookSim-style warmup / measure / drain).
  long long warmup_cycles = 1000;
  long long measure_cycles = 3000;
  long long drain_cycles = 40000;  ///< cap on the drain phase

  /// Forces a kUgal config to behave exactly like kMinimal (every decision
  /// resolves minimal before any UGAL machinery engages); see
  /// effective_routing_policy below. The differential-oracle tests use it
  /// to prove the UGAL plumbing perturbs nothing when it never fires.
  static constexpr int kUgalBiasAlwaysMinimal = -1;

  /// Routing-policy axis. kMinimal is bit-identical to the historical
  /// behavior; kUgal adds the adaptive/escape machinery described on
  /// RoutingPolicy.
  RoutingPolicy routing_policy = RoutingPolicy::kMinimal;
  /// UGAL bias in flits: the non-minimal cost must undercut the minimal
  /// cost by more than this margin before a packet goes non-minimal.
  /// Larger values favor minimal routing; kUgalBiasAlwaysMinimal disables
  /// non-minimal routing entirely.
  int ugal_bias_flits = 1;

  /// Seed of the injection schedule (the traffic pattern's and the
  /// injection's draws).
  std::uint64_t seed = 0x5eed;

  void validate() const {
    SHG_REQUIRE(num_vcs >= 1, "need at least one VC");
    // The engine keeps one bit per VC of a port in a 64-bit mask.
    SHG_REQUIRE(num_vcs <= 64, "at most 64 VCs per port");
    SHG_REQUIRE(buffer_depth_flits >= 1, "need at least one buffer slot");
    SHG_REQUIRE(router_delay_cycles >= 0, "router delay must be >= 0");
    SHG_REQUIRE(packet_size_flits >= 1, "packets need at least one flit");
    SHG_REQUIRE(injection_rate > 0.0 && injection_rate <= 1.0,
                "injection rate must be in (0, 1] flits/cycle/port");
    SHG_REQUIRE(warmup_cycles >= 0 && measure_cycles > 0 && drain_cycles >= 0,
                "invalid measurement phases");
    // Each term is bounded first, so the sum cannot overflow.
    SHG_REQUIRE(std::max({warmup_cycles, measure_cycles, drain_cycles}) <=
                        kMaxCycleHorizon &&
                    warmup_cycles + measure_cycles + drain_cycles +
                            router_delay_cycles <= kMaxCycleHorizon,
                "warmup + measure + drain + router delay exceeds "
                "kMaxCycleHorizon (2^32 - 1 cycles)");
    SHG_REQUIRE(routing_policy == RoutingPolicy::kMinimal ||
                    routing_policy == RoutingPolicy::kUgal,
                "unknown routing policy");
    SHG_REQUIRE(ugal_bias_flits >= kUgalBiasAlwaysMinimal,
                "ugal_bias_flits must be >= -1 "
                "(-1 = kUgalBiasAlwaysMinimal sentinel)");
  }
};

/// The policy the simulator actually runs. A kUgal config whose bias is the
/// kUgalBiasAlwaysMinimal sentinel degenerates to kMinimal outright — the
/// UGAL decision could never pick non-minimal, so the simulator skips the
/// escape-VC machinery and is bit-identical to a kMinimal run (the
/// differential oracle in tests/sim_ugal_test.cpp holds the two together).
inline RoutingPolicy effective_routing_policy(const SimConfig& config) {
  if (config.routing_policy == RoutingPolicy::kUgal &&
      config.ugal_bias_flits == SimConfig::kUgalBiasAlwaysMinimal) {
    return RoutingPolicy::kMinimal;
  }
  return config.routing_policy;
}

inline const char* routing_policy_name(RoutingPolicy policy) {
  return policy == RoutingPolicy::kUgal ? "ugal" : "minimal";
}

/// Parses "minimal" / "ugal" (the CLI and wire-protocol spelling). Throws
/// on anything else, naming the offending string.
inline RoutingPolicy parse_routing_policy(const std::string& name) {
  if (name == "minimal") return RoutingPolicy::kMinimal;
  if (name == "ugal") return RoutingPolicy::kUgal;
  SHG_REQUIRE(false, "unknown routing policy '" + name +
                         "' (expected 'minimal' or 'ugal')");
  return RoutingPolicy::kMinimal;  // unreachable
}

}  // namespace shg::sim
