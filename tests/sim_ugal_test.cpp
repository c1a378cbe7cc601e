// UGAL-class adaptive routing: delivery and escape-band deadlock freedom
// of the routing function, the min-VC construction guard, the
// always-minimal sentinel differential oracle (SimConfig::routing_policy =
// kUgal with ugal_bias_flits = kUgalBiasAlwaysMinimal must be bit-identical
// to kMinimal), golden-corpus bit-identity under live UGAL decisions, and
// saturation soak drains across every topology family.
#include <gtest/gtest.h>

#include <queue>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "shg/eval/experiment.hpp"
#include "shg/graph/cdg.hpp"
#include "shg/sim/route_table.hpp"
#include "shg/sim/simulator.hpp"
#include "shg/sim/traffic_spec.hpp"
#include "shg/topo/generators.hpp"

#include "golden.hpp"
#include "live_run.hpp"

namespace shg::sim {
namespace {

std::vector<int> unit_latencies(const topo::Topology& topo) {
  return std::vector<int>(static_cast<std::size_t>(topo.graph().num_edges()),
                          1);
}

SimConfig ugal_config() {
  SimConfig config;
  config.routing_policy = RoutingPolicy::kUgal;
  config.num_vcs = 4;  // 2 escape classes + 2 adaptive VCs
  config.buffer_depth_flits = 4;
  config.packet_size_flits = 2;
  config.warmup_cycles = 200;
  config.measure_cycles = 500;
  config.drain_cycles = 30000;
  return config;
}

/// One run through Simulator, or with `live` through the engine without a
/// route table (tests/live_run.hpp).
RunOutcome run_once(const topo::Topology& topo, const SimConfig& config,
                    const std::string& spec_text, bool live = false) {
  const TrafficSpec spec = TrafficSpec::parse(spec_text);
  const auto pattern =
      spec.make_pattern(topo.rows(), topo.cols(), topo.concentration());
  if (live) return run_live(topo, unit_latencies(topo), config, pattern.get(), 1);
  Simulator sim(topo, unit_latencies(topo), config, pattern.get(), 1);
  RunOutcome out;
  out.result = sim.run();
  out.nonminimal = sim.ugal_nonminimal_choices();
  return out;
}

/// Every SimResult field AND the number of non-minimal decisions must
/// match the golden corpus (the decision inputs are deterministic by
/// construction; this is the oracle that keeps them so).
RunOutcome expect_engines_identical(const topo::Topology& topo,
                                    const SimConfig& config,
                                    const std::string& spec_text,
                                    bool live = false) {
  const RunOutcome out = run_once(topo, config, spec_text, live);
  std::string label = golden::topo_label(topo) + " " + spec_text;
  if (live) label += " live";
  golden::expect_golden(label, out.result, out.nonminimal);
  EXPECT_GT(out.result.measured_packets, 0) << label;
  return out;
}

// --- Routing-function level -------------------------------------------------

int channel_id(const topo::Topology& topo, int u, int v) {
  for (const auto& n : topo.graph().neighbors(u)) {
    if (n.node == v) {
      const auto& edge = topo.graph().edge(n.edge);
      return 2 * n.edge + (edge.u == u ? 0 : 1);
    }
  }
  ADD_FAILURE() << "not neighbors: " << u << " " << v;
  return -1;
}

int port_of(const topo::Topology& topo, int u, int v) {
  const auto& nbrs = topo.graph().neighbors(u);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    if (nbrs[i].node == v) return static_cast<int>(i);
  }
  return -1;
}

/// Reachable channel dependency graph restricted to VCs below `band`: the
/// Duato condition only needs the escape subnetwork acyclic, because
/// adaptive VCs always have the escape candidate to fall back to. `band`
/// is kUgalEscapeVcs for most families; for families whose own default is
/// a Duato scheme (SlimNoc), the escape network nests one level deeper and
/// the acyclic root is its innermost VC (band = 1) — VC 1 is that scheme's
/// adaptive class, made safe by the same fallback protocol, not by
/// acyclicity.
std::vector<std::pair<int, int>> escape_band_cdg(const topo::Topology& topo,
                                                 const RoutingFunction& routing,
                                                 int num_vcs, int band) {
  auto vertex = [num_vcs](int channel, int vc) {
    return channel * num_vcs + vc;
  };
  std::set<std::pair<int, int>> dependencies;
  for (int dest = 0; dest < topo.num_tiles(); ++dest) {
    std::set<std::tuple<int, int, int>> visited;
    std::queue<std::tuple<int, int, int>> frontier;
    for (int src = 0; src < topo.num_tiles(); ++src) {
      if (src != dest) frontier.emplace(src, -1, -1);
    }
    while (!frontier.empty()) {
      const auto [node, in_vc, from] = frontier.front();
      frontier.pop();
      if (node == dest) continue;
      if (!visited.emplace(node, in_vc, from).second) continue;
      const int in_port = from < 0 ? -1 : port_of(topo, node, from);
      const auto candidates = routing.route(node, in_port, in_vc, dest);
      EXPECT_FALSE(candidates.empty());
      const int in_channel = from < 0 ? -1 : channel_id(topo, from, node);
      for (const auto& cand : candidates) {
        const int next = topo.graph()
                             .neighbors(node)[static_cast<std::size_t>(
                                 cand.out_port)]
                             .node;
        const int out_channel = channel_id(topo, node, next);
        for (int ov = cand.vc_begin; ov < cand.vc_end; ++ov) {
          if (in_channel >= 0 && in_vc >= 0 && in_vc < band && ov < band) {
            dependencies.emplace(vertex(in_channel, in_vc),
                                 vertex(out_channel, ov));
          }
          frontier.emplace(next, ov, node);
        }
      }
    }
  }
  return {dependencies.begin(), dependencies.end()};
}

/// Follows the first candidate from src to dest; returns hop count.
int walk_first(const topo::Topology& topo, const RoutingFunction& routing,
               int src, int dest) {
  int node = src;
  int in_vc = -1;
  int from = -1;
  int hops = 0;
  while (node != dest) {
    const int in_port = from < 0 ? -1 : port_of(topo, node, from);
    const auto candidates = routing.route(node, in_port, in_vc, dest);
    EXPECT_FALSE(candidates.empty());
    if (candidates.empty()) return -1;
    const auto& cand = candidates.front();
    from = node;
    node = topo.graph()
               .neighbors(node)[static_cast<std::size_t>(cand.out_port)]
               .node;
    in_vc = cand.vc_begin;
    if (++hops > topo.num_tiles() * 4) {
      ADD_FAILURE() << "routing loop " << src << " -> " << dest;
      return -1;
    }
  }
  return hops;
}

constexpr int kVcs = 4;

std::vector<topo::Topology> soak_topologies() {
  std::vector<topo::Topology> topos;
  topos.push_back(topo::make_ring(4, 4));
  topos.push_back(topo::make_mesh(4, 4));
  topos.push_back(topo::make_torus(4, 4));
  topos.push_back(topo::make_folded_torus(4, 4));
  topos.push_back(topo::make_hypercube(4, 4));
  topos.push_back(topo::make_flattened_butterfly(4, 4));
  topos.push_back(topo::make_sparse_hamming(4, 4, {2}, {2, 3}));
  topos.push_back(topo::make_slim_noc(4, 8));
  return topos;
}

TEST(UgalRouting, DeliversAllPairsEveryFamily) {
  for (const auto& topo : soak_topologies()) {
    SCOPED_TRACE(topo.name());
    const auto routing = make_ugal_routing(topo, kVcs, 0x1234);
    for (int s = 0; s < topo.num_tiles(); ++s) {
      for (int d = 0; d < topo.num_tiles(); ++d) {
        if (s == d) continue;
        ASSERT_GE(walk_first(topo, *routing, s, d), 1);
      }
    }
  }
}

TEST(UgalRouting, FirstCandidateIsMinimal) {
  const auto topo = topo::make_mesh(4, 4);
  const auto routing = make_ugal_routing(topo, kVcs, 0x1234);
  for (int s = 0; s < 16; ++s) {
    for (int d = 0; d < 16; ++d) {
      if (s == d) continue;
      const auto cs = topo.coord(s);
      const auto cd = topo.coord(d);
      EXPECT_EQ(walk_first(topo, *routing, s, d),
                std::abs(cs.row - cd.row) + std::abs(cs.col - cd.col));
    }
  }
}

TEST(UgalRouting, EscapeBandCdgAcyclicEveryFamily) {
  for (const auto& topo : soak_topologies()) {
    const auto routing = make_ugal_routing(topo, kVcs, 0x1234);
    const int band =
        topo.kind() == topo::Kind::kSlimNoc ? 1 : kUgalEscapeVcs;
    const auto edges = escape_band_cdg(topo, *routing, kVcs, band);
    EXPECT_FALSE(
        graph::has_cycle(2 * topo.graph().num_edges() * kVcs, edges))
        << topo.name();
  }
}

TEST(UgalRouting, AdaptiveRowEndsWithEscapeCandidate) {
  const auto topo = topo::make_torus(4, 4);
  const auto routing = make_ugal_routing(topo, kVcs, 0x1234);
  for (int s = 0; s < 16; ++s) {
    for (int d = 0; d < 16; ++d) {
      if (s == d) continue;
      const auto candidates = routing->route(s, -1, -1, d);
      ASSERT_GE(candidates.size(), 2u);
      // Adaptive candidates first (VCs [2, V)), escape last (VCs [0, 2)).
      EXPECT_EQ(candidates.front().vc_begin, kUgalEscapeVcs);
      EXPECT_EQ(candidates.front().vc_end, kVcs);
      EXPECT_LT(candidates.back().vc_begin, kUgalEscapeVcs);
      EXPECT_LE(candidates.back().vc_end, kUgalEscapeVcs);
    }
  }
}

TEST(UgalRouting, ViaDrawExcludesEndpointsAndIsSeedDeterministic) {
  const auto topo = topo::make_mesh(4, 4);
  const auto a = make_ugal_routing(topo, kVcs, 42);
  const auto b = make_ugal_routing(topo, kVcs, 42);
  const auto c = make_ugal_routing(topo, kVcs, 43);
  const UgalInfo* ia = a->ugal_info();
  const UgalInfo* ib = b->ugal_info();
  const UgalInfo* ic = c->ugal_info();
  ASSERT_NE(ia, nullptr);
  bool seed_changes_some_via = false;
  for (int s = 0; s < 16; ++s) {
    for (int d = 0; d < 16; ++d) {
      if (s == d) continue;
      const int via = ia->via_of(s, d);
      ASSERT_GE(via, 0);
      EXPECT_NE(via, s);
      EXPECT_NE(via, d);
      EXPECT_LT(via, 16);
      EXPECT_EQ(via, ib->via_of(s, d));  // pure function of the seed
      if (via != ic->via_of(s, d)) seed_changes_some_via = true;
      // hops are the real all-pairs distances.
      EXPECT_GE(ia->hops_between(s, d), 1);
      EXPECT_LE(ia->hops_between(s, via) + ia->hops_between(via, d),
                2 * 6 /* 2 * mesh diameter */);
    }
  }
  EXPECT_TRUE(seed_changes_some_via);
}

TEST(UgalRouting, RequiresEscapePlusAdaptiveVcs) {
  const auto topo = topo::make_mesh(4, 4);
  EXPECT_THROW(make_ugal_routing(topo, kUgalEscapeVcs, 1), Error);
  EXPECT_NO_THROW(make_ugal_routing(topo, kUgalEscapeVcs + 1, 1));
}

// --- Construction-time validation ------------------------------------------

TEST(UgalValidation, SimulatorNamesTheOffendingKnob) {
  const auto topo = topo::make_mesh(4, 4);
  SimConfig config = ugal_config();
  config.num_vcs = 2;  // ugal needs >= 3
  const auto pattern = TrafficSpec::parse("uniform").make_pattern(4, 4);
  try {
    Simulator sim(topo, unit_latencies(topo), config, pattern.get(), 1);
    FAIL() << "expected the min-VC guard to throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("SimConfig::num_vcs"), std::string::npos) << what;
    EXPECT_NE(what.find("ugal"), std::string::npos) << what;
  }
}

TEST(UgalValidation, DatelineFamiliesStillNeedTwoVcs) {
  const auto topo = topo::make_torus(4, 4);
  SimConfig config;
  config.num_vcs = 1;
  const auto pattern = TrafficSpec::parse("uniform").make_pattern(4, 4);
  try {
    Simulator sim(topo, unit_latencies(topo), config, pattern.get(), 1);
    FAIL() << "expected the min-VC guard to throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("SimConfig::num_vcs"),
              std::string::npos)
        << e.what();
  }
}

TEST(UgalValidation, SentinelBiasRelaxesTheVcFloor) {
  // kUgal with the always-minimal sentinel is EFFECTIVELY minimal, so the
  // minimal floor applies (mesh: 1 VC suffices).
  const auto topo = topo::make_mesh(4, 4);
  SimConfig config = ugal_config();
  config.ugal_bias_flits = SimConfig::kUgalBiasAlwaysMinimal;
  config.num_vcs = 1;
  const auto pattern = TrafficSpec::parse("uniform").make_pattern(4, 4);
  EXPECT_NO_THROW(
      Simulator(topo, unit_latencies(topo), config, pattern.get(), 1));
}

// --- Route-table propagation ------------------------------------------------

TEST(UgalRouteTable, CarriesUgalInfoOnlyForUgalRouting) {
  const auto topo = topo::make_mesh(4, 4);
  const auto ugal = make_ugal_routing(topo, kVcs, 7);
  const RouteTable ugal_table(topo, *ugal, kVcs);
  ASSERT_NE(ugal_table.ugal_info(), nullptr);
  EXPECT_EQ(ugal_table.ugal_info()->num_nodes, 16);

  const auto minimal = make_default_routing(topo, kVcs);
  const RouteTable minimal_table(topo, *minimal, kVcs);
  EXPECT_EQ(minimal_table.ugal_info(), nullptr);
}

TEST(UgalRouteTable, SimulatorRejectsPolicyMismatchedSharedTable) {
  const auto topo = topo::make_mesh(4, 4);
  const auto pattern = TrafficSpec::parse("uniform").make_pattern(4, 4);
  SimConfig config = ugal_config();
  // Minimal table handed to an ugal simulator:
  const auto minimal_table = std::make_shared<const RouteTable>(
      topo, *make_default_routing(topo, kVcs), kVcs);
  EXPECT_THROW(Simulator(topo, unit_latencies(topo), config, pattern.get(), 1,
                         minimal_table),
               Error);
  // Ugal table handed to a minimal simulator:
  SimConfig minimal_config;
  minimal_config.num_vcs = kVcs;
  const auto ugal_table = std::make_shared<const RouteTable>(
      topo, *make_ugal_routing(topo, kVcs, kUgalViaSeed), kVcs);
  EXPECT_THROW(Simulator(topo, unit_latencies(topo), minimal_config, pattern.get(),
                         1, ugal_table),
               Error);
}

// --- The sentinel differential oracle ---------------------------------------

TEST(UgalSentinel, AlwaysMinimalBiasIsBitIdenticalToMinimalPolicy) {
  // The whole UGAL machinery must vanish under the sentinel: every
  // SimResult field equals the plain minimal run bit-for-bit, in table and
  // live-routing mode.
  for (const auto& topo : {topo::make_mesh(4, 4), topo::make_torus(4, 4)}) {
    for (const char* spec : {"uniform", "transpose"}) {
      for (const bool table : {true, false}) {
        SCOPED_TRACE(std::string(topo.name()) + " / " + spec +
                     (table ? " table" : " live"));
        SimConfig minimal;
        minimal.num_vcs = kVcs;
        minimal.injection_rate = 0.15;
        minimal.warmup_cycles = 200;
        minimal.measure_cycles = 500;
        SimConfig sentinel = minimal;
        sentinel.routing_policy = RoutingPolicy::kUgal;
        sentinel.ugal_bias_flits = SimConfig::kUgalBiasAlwaysMinimal;
        const RunOutcome a = run_once(topo, minimal, spec, !table);
        const RunOutcome b = run_once(topo, sentinel, spec, !table);
        EXPECT_TRUE(a.result == b.result);
        EXPECT_EQ(a.nonminimal, 0);
        EXPECT_EQ(b.nonminimal, 0);
        EXPECT_GT(a.result.measured_packets, 0);
      }
    }
  }
}

TEST(UgalSentinel, HugeBiasNeverGoesNonminimal) {
  // A live ugal run (full machinery engaged) whose bias out-weighs any
  // occupancy difference must make zero non-minimal choices.
  const auto topo = topo::make_mesh(4, 4);
  SimConfig config = ugal_config();
  config.injection_rate = 0.4;
  config.ugal_bias_flits = 1000000;
  const RunOutcome out = expect_engines_identical(topo, config, "transpose");
  EXPECT_EQ(out.nonminimal, 0);
  EXPECT_TRUE(out.result.drained);
}

// --- Golden-corpus bit-identity under live UGAL -----------------------------

TEST(UgalBitIdentity, FamiliesAndPatterns) {
  SimConfig config = ugal_config();
  config.injection_rate = 0.12;
  const topo::Topology topos[] = {
      topo::make_mesh(4, 4),
      topo::make_torus(4, 4),
      topo::make_sparse_hamming(4, 4, {2}, {2, 3}),
      topo::make_slim_noc(4, 8),
  };
  for (const auto& topo : topos) {
    SCOPED_TRACE(topo.name());
    expect_engines_identical(topo, config, "uniform");
    expect_engines_identical(topo, config, "randperm:7");
  }
}

TEST(UgalBitIdentity, SaturatedAdversarialAndLiveRouting) {
  const auto topo = topo::make_mesh(4, 4);
  SimConfig config = ugal_config();
  config.injection_rate = 0.5;
  config.drain_cycles = 40000;
  expect_engines_identical(topo, config, "transpose");
  expect_engines_identical(topo, config, "hotspot:0,15:0.5", /*live=*/true);
}

TEST(UgalBitIdentity, SaturatedTwoFlitBuffers) {
  // 2-flit buffers past saturation: adaptive output VCs run out of credits,
  // so a waiting head's adaptive candidates open and close as credits
  // return.
  SimConfig config = ugal_config();
  config.buffer_depth_flits = 2;
  config.injection_rate = 0.5;
  config.drain_cycles = 40000;
  expect_engines_identical(topo::make_mesh(4, 4), config, "transpose");
  expect_engines_identical(topo::make_torus(4, 4), config, "uniform");
  expect_engines_identical(topo::make_mesh(4, 4), config, "hotspot:0,15:0.5",
                           /*live=*/true);
}

TEST(UgalBitIdentity, NonminimalChoicesFireUnderAdversarialLoad) {
  // The machinery must actually engage: under a saturating permutation
  // with the default bias, some packets must take the Valiant leg.
  const auto topo = topo::make_mesh(4, 4);
  SimConfig config = ugal_config();
  config.injection_rate = 0.5;
  config.drain_cycles = 40000;
  const RunOutcome out = expect_engines_identical(topo, config, "transpose");
  EXPECT_GT(out.nonminimal, 0);
  EXPECT_TRUE(out.result.drained);
}

// --- Determinism ------------------------------------------------------------

TEST(UgalDeterminism, RepeatedRunsAndParallelCampaignsAreByteIdentical) {
  const auto topo = topo::make_mesh(4, 4);
  SimConfig config = ugal_config();
  config.injection_rate = 0.3;
  const RunOutcome once = run_once(topo, config, "randperm:3");
  const RunOutcome twice = run_once(topo, config, "randperm:3");
  EXPECT_TRUE(once.result == twice.result);
  EXPECT_EQ(once.nonminimal, twice.nonminimal);

  // Through the experiment engine (parallel workers, any interleaving):
  // the rendered report must be byte-identical run to run.
  eval::ExperimentSpec spec;
  spec.name = "ugal-determinism";
  spec.topologies.push_back(
      eval::TopologyCase{topo::make_mesh(4, 4), {}, ""});
  spec.traffic.push_back(eval::TrafficCase{"randperm:7", ""});
  spec.rates = {0.1, 0.3};
  spec.seeds = {1, 2, 3};
  spec.config.sim = ugal_config();
  const eval::ExperimentReport r1 = eval::run_experiment(spec);
  const eval::ExperimentReport r2 = eval::run_experiment(spec);
  EXPECT_EQ(eval::experiment_to_json(r1), eval::experiment_to_json(r2));
}

// --- Saturation soak --------------------------------------------------------

TEST(UgalSoak, SaturationPermutationsDrainEveryFamilyBothPolicies) {
  // The deadlock-freedom soak: every family x {minimal, ugal} at a
  // saturating rate under adversarial permutations must drain inside the
  // drain budget. A deadlock shows up as drained == false (the watchdog
  // gives up after 20k ejection-free cycles with traffic in flight).
  for (const auto& topo : soak_topologies()) {
    for (const RoutingPolicy policy :
         {RoutingPolicy::kMinimal, RoutingPolicy::kUgal}) {
      for (const char* spec : {"bit-complement", "randperm:3"}) {
        SCOPED_TRACE(std::string(topo.name()) + " / " +
                     routing_policy_name(policy) + " / " + spec);
        SimConfig config = ugal_config();
        config.routing_policy = policy;
        config.injection_rate = 0.45;
        config.warmup_cycles = 150;
        config.measure_cycles = 350;
        const RunOutcome out = run_once(topo, config, spec);
        EXPECT_TRUE(out.result.drained);
        EXPECT_GT(out.result.measured_packets, 0);
      }
    }
  }
}

}  // namespace
}  // namespace shg::sim
