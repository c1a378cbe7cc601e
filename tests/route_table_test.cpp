// Route-table correctness: the table, which routes one representative state
// per (node, input class, dest), must agree with the live routing function
// on every reachable (node, in_port, in_vc, dest) state of every topology
// family, the simulator must produce bit-identical results with the table
// and with live routing, and the row budgets must pick the table exactly
// where the simulator's callers can afford it.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "shg/eval/perf.hpp"
#include "shg/eval/scenario.hpp"
#include "shg/eval/toolchain.hpp"
#include "shg/serve/service.hpp"
#include "shg/sim/route_table.hpp"
#include "shg/sim/simulator.hpp"
#include "shg/topo/generators.hpp"

#include "live_run.hpp"

namespace shg::sim {
namespace {

constexpr int kVcs = 4;

std::string describe(int node, int in_port, int in_vc, int dest) {
  return "node " + std::to_string(node) + " in_port " +
         std::to_string(in_port) + " in_vc " + std::to_string(in_vc) +
         " dest " + std::to_string(dest);
}

/// Sweeps every (node, in_port, in_vc, dest) routing state of `topo` and
/// returns the first where `table` disagrees with live `routing` (candidate
/// count, order, out port or VC range, or candidates stored for a state the
/// routing function rejects), or "" when every state agrees. The sweep also
/// recounts the states and the undeduplicated candidates the table reports.
std::string table_mismatch(const topo::Topology& topo, const RouteTable& table,
                           const RoutingFunction& routing) {
  const int num_vcs = table.num_vcs();
  std::size_t states = 0;
  std::size_t candidates = 0;
  for (int node = 0; node < topo.num_tiles(); ++node) {
    const int degree = topo.graph().degree(node);
    for (int slot = 0; slot < 1 + degree * num_vcs; ++slot) {
      const int in_port = slot == 0 ? -1 : (slot - 1) / num_vcs;
      const int in_vc = slot == 0 ? -1 : (slot - 1) % num_vcs;
      states += static_cast<std::size_t>(topo.num_tiles());
      for (int dest = 0; dest < topo.num_tiles(); ++dest) {
        if (dest == node) continue;
        const auto actual = table.lookup(node, in_port, in_vc, dest);
        std::vector<RouteCandidate> expected;
        try {
          expected = routing.route(node, in_port, in_vc, dest);
        } catch (const Error&) {
          // State unreachable under the routing function's invariants: the
          // table must have stored an empty row.
          if (!actual.empty()) {
            return "candidates for a rejected state at " +
                   describe(node, in_port, in_vc, dest);
          }
          continue;
        }
        candidates += expected.size();
        const bool match =
            std::equal(expected.begin(), expected.end(), actual.begin(),
                       actual.end(),
                       [](const RouteCandidate& a, const RouteCandidate& b) {
                         return a.out_port == b.out_port &&
                                a.vc_begin == b.vc_begin &&
                                a.vc_end == b.vc_end;
                       });
        if (!match) {
          return "mismatch vs " + routing.name() + " at " +
                 describe(node, in_port, in_vc, dest);
        }
      }
    }
  }
  if (states != table.num_rows()) return "routing state count differs";
  if (candidates != table.num_candidates_undeduped()) {
    return "undeduplicated candidate count differs";
  }
  return "";
}

void expect_table_matches_live(const topo::Topology& topo,
                               const RoutingFunction& routing, int num_vcs) {
  const RouteTable table(topo, routing, num_vcs);
  EXPECT_EQ(table.num_vcs(), num_vcs);
  EXPECT_EQ(table.routing_name(), routing.name());
  EXPECT_EQ(table.num_rows(), RouteTable::rows_for(topo, num_vcs));
  EXPECT_LT(table.num_stored_rows(), table.num_rows());
  EXPECT_EQ(table_mismatch(topo, table, routing), "")
      << topo.name() << " at " << num_vcs << " VCs";
}

/// The family's default routing at 1 (where legal), 2 and 4 VCs; the
/// dateline and escape families reject 1 VC.
void expect_default_routing_matches_live(const topo::Topology& topo,
                                         bool one_vc_legal) {
  for (const int vcs : {1, 2, 4}) {
    if (vcs == 1 && !one_vc_legal) {
      EXPECT_THROW(make_default_routing(topo, vcs), Error) << topo.name();
      continue;
    }
    expect_table_matches_live(topo, *make_default_routing(topo, vcs), vcs);
  }
}

TEST(RouteTable, MatchesLiveRoutingOnMesh) {
  expect_default_routing_matches_live(topo::make_mesh(4, 5), true);
}

TEST(RouteTable, MatchesLiveRoutingOnTorus) {
  expect_default_routing_matches_live(topo::make_torus(4, 4), false);
}

TEST(RouteTable, MatchesLiveRoutingOnFoldedTorus) {
  expect_default_routing_matches_live(topo::make_folded_torus(4, 5), false);
}

TEST(RouteTable, MatchesLiveRoutingOnFlattenedButterfly) {
  expect_default_routing_matches_live(topo::make_flattened_butterfly(4, 4),
                                      true);
}

TEST(RouteTable, MatchesLiveRoutingOnShg) {
  expect_default_routing_matches_live(
      topo::make_sparse_hamming(5, 5, {2, 3}, {2, 4}), true);
}

TEST(RouteTable, MatchesLiveRoutingOnRuche) {
  expect_default_routing_matches_live(topo::make_ruche(6, 5, 3, 2), true);
}

TEST(RouteTable, MatchesLiveRoutingOnRing) {
  expect_default_routing_matches_live(topo::make_ring(4, 4), false);
}

TEST(RouteTable, MatchesLiveRoutingOnHypercube) {
  expect_default_routing_matches_live(topo::make_hypercube(4, 4), true);
}

TEST(RouteTable, MatchesLiveRoutingOnSlimNoc) {
  expect_default_routing_matches_live(topo::make_slim_noc(5, 10), false);
}

TEST(RouteTable, MatchesLiveRoutingOnConcentratedMesh) {
  expect_default_routing_matches_live(topo::make_concentrated_mesh(3, 4, 4),
                                      true);
}

TEST(RouteTable, MatchesLiveUgalRouting) {
  // UGAL keys its band and the escape routing's own class: dateline
  // (torus, ring), O1TURN (mesh) and up*/down* (SlimNoC) escapes.
  for (const topo::Topology& topo :
       {topo::make_mesh(4, 4), topo::make_torus(4, 4), topo::make_ring(4, 4),
        topo::make_slim_noc(5, 10)}) {
    for (const int vcs : {3, 4}) {
      expect_table_matches_live(
          topo, *make_ugal_routing(topo, vcs, kUgalViaSeed), vcs);
    }
  }
}

TEST(RouteTable, StoresOneRowPerInputClass) {
  // An 8x8 flattened butterfly at the campaign's 8 VCs: 14 ports, so 113
  // slots per router, but O1TURN routes on injection or the VC class, so
  // 3 classes per router.
  const auto fb = topo::make_flattened_butterfly(8, 8);
  const RouteTable fb_table(fb, *make_default_routing(fb, 8), 8);
  EXPECT_EQ(fb_table.num_rows(), 462848u);
  EXPECT_EQ(fb_table.num_stored_rows(), 3u * 64u * 64u);
  // Dateline torus: injection plus arrival axis x VC class, 5 classes.
  const auto torus = topo::make_torus(4, 4);
  const RouteTable torus_table(torus, *make_default_routing(torus, kVcs),
                               kVcs);
  EXPECT_EQ(torus_table.num_stored_rows(), 5u * 16u * 16u);
  // E-cube reads neither port nor VC: one class.
  const auto cube = topo::make_hypercube(4, 4);
  const RouteTable cube_table(cube, *make_default_routing(cube, kVcs), kVcs);
  EXPECT_EQ(cube_table.num_stored_rows(), 16u * 16u);
}

/// Torus routing behind a key too coarse for it: every state of a node
/// gets class 0, so the table stores only each router's injection rows.
class ConstantKeyRouting final : public RoutingFunction {
 public:
  explicit ConstantKeyRouting(std::unique_ptr<RoutingFunction> inner)
      : inner_(std::move(inner)) {}
  std::vector<RouteCandidate> route(int node, int in_port, int in_vc,
                                    int dest) const override {
    return inner_->route(node, in_port, in_vc, dest);
  }
  int input_class(int, int, int) const override { return 0; }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<RoutingFunction> inner_;
};

TEST(RouteTable, SweepCatchesTooCoarseInputClass) {
  const auto topo = topo::make_torus(4, 4);
  const ConstantKeyRouting routing(make_default_routing(topo, kVcs));
  const RouteTable table(topo, routing, kVcs);
  EXPECT_EQ(table.num_stored_rows(), 16u * 16u);
  EXPECT_NE(table_mismatch(topo, table, routing), "");
}

TEST(RouteTable, SweepRejectsDifferentRouting) {
  // A table built for a 4x4 mesh's XY routing must fail the sweep against
  // the escape-table routing of the same topology (different candidate
  // sets for most states).
  const auto topo = topo::make_mesh(4, 4);
  const auto xy = make_xy_hamming_routing(topo, kVcs);
  const auto escape = make_table_escape_routing(topo, kVcs);
  const RouteTable table(topo, *xy, kVcs);
  EXPECT_EQ(table_mismatch(topo, table, *xy), "");
  EXPECT_NE(table_mismatch(topo, table, *escape), "");
}

TEST(RouteTable, RejectsVcMismatchInRouter) {
  // A shared table built for 2 VCs cannot serve a 4-VC simulation.
  const auto topo = topo::make_mesh(3, 3);
  const auto routing = make_xy_hamming_routing(topo, 2);
  const auto table = std::make_shared<const RouteTable>(topo, *routing, 2);
  SimConfig config;
  config.num_vcs = 4;  // != table's 2
  const auto pattern = make_uniform(topo.num_tiles());
  const std::vector<int> latencies(
      static_cast<std::size_t>(topo.graph().num_edges()), 1);
  EXPECT_THROW(Simulator(topo, latencies, config, pattern.get(), 1, table), Error);
}

TEST(RouteTable, SimulatorRejectsSharedTableForDifferentTopology) {
  const auto built_for = topo::make_mesh(3, 3);
  const auto other = topo::make_mesh(4, 4);
  const auto routing = make_default_routing(built_for, kVcs);
  const auto table =
      std::make_shared<const RouteTable>(built_for, *routing, kVcs);
  EXPECT_TRUE(table->matches(built_for));
  EXPECT_FALSE(table->matches(other));
  SimConfig config;
  config.num_vcs = kVcs;
  const auto pattern = make_uniform(other.num_tiles());
  const std::vector<int> latencies(
      static_cast<std::size_t>(other.graph().num_edges()), 1);
  EXPECT_THROW(Simulator(other, latencies, config, pattern.get(), 1, table),
               Error);
}

std::vector<int> unit_latencies(const topo::Topology& topo) {
  return std::vector<int>(static_cast<std::size_t>(topo.graph().num_edges()),
                          1);
}

/// The acceptance bar of the perf overhaul: latency distribution,
/// throughput and every other statistic must be identical whether the
/// engine routes live or through the table the simulator builds — and that
/// table must agree with the live routing function row for row.
void expect_bit_identical_sim(const topo::Topology& topo) {
  SimConfig config;
  config.num_vcs = kVcs;
  config.injection_rate = 0.08;
  config.warmup_cycles = 300;
  config.measure_cycles = 900;
  const auto pattern = make_uniform(topo.num_tiles());

  const SimResult live =
      run_live(topo, unit_latencies(topo), config, pattern.get(), 1).result;
  Simulator simulator(topo, unit_latencies(topo), config, pattern.get(), 1);
  ASSERT_NE(simulator.route_table(), nullptr);
  EXPECT_EQ(table_mismatch(topo, *simulator.route_table(),
                           *make_policy_routing(topo, config)),
            "");
  const SimResult tabled = simulator.run();

  EXPECT_EQ(live.offered_rate, tabled.offered_rate);
  EXPECT_EQ(live.accepted_rate, tabled.accepted_rate);
  EXPECT_EQ(live.avg_packet_latency, tabled.avg_packet_latency);
  EXPECT_EQ(live.max_packet_latency, tabled.max_packet_latency);
  EXPECT_EQ(live.p50_packet_latency, tabled.p50_packet_latency);
  EXPECT_EQ(live.p95_packet_latency, tabled.p95_packet_latency);
  EXPECT_EQ(live.p99_packet_latency, tabled.p99_packet_latency);
  EXPECT_EQ(live.avg_hops, tabled.avg_hops);
  EXPECT_EQ(live.fairness, tabled.fairness);
  EXPECT_EQ(live.measured_packets, tabled.measured_packets);
  EXPECT_EQ(live.drained, tabled.drained);
  EXPECT_EQ(live.cycles_run, tabled.cycles_run);
}

TEST(RouteTable, SimResultsBitIdenticalOnShg) {
  expect_bit_identical_sim(topo::make_sparse_hamming(6, 6, {3}, {2}));
}

TEST(RouteTable, SimResultsBitIdenticalOnTorus) {
  expect_bit_identical_sim(topo::make_torus(4, 4));
}

TEST(RouteTable, SimResultsBitIdenticalOnSlimNoc) {
  expect_bit_identical_sim(topo::make_slim_noc(5, 10));
}

TEST(RouteTable, DedupCollapsesVcInsensitiveRows) {
  // XY-Hamming routing on an SHG picks the same continuation regardless of
  // the arrival VC, so rows differing only in in_vc must collapse behind
  // the row-index indirection: far fewer unique rows than logical rows,
  // and a smaller byte footprint than the one-range-per-row layout.
  const auto topo = topo::make_sparse_hamming(5, 5, {2, 3}, {2, 4});
  const auto routing = make_xy_hamming_routing(topo, kVcs);
  const RouteTable table(topo, *routing, kVcs);
  EXPECT_GT(table.num_rows(), table.num_unique_rows());
  // At kVcs = 4 the vc-insensitive rows alone bound unique rows well below
  // half of the logical count.
  EXPECT_LT(table.num_unique_rows(), table.num_rows() / 2);
  EXPECT_LT(table.num_candidates(), table.num_candidates_undeduped());
  EXPECT_LT(table.memory_bytes(), table.undeduped_memory_bytes());
}

TEST(RouteTable, RowBudget) {
  // rows_for is the built table's exact row count.
  const auto small = topo::make_sparse_hamming(6, 6, {3}, {2});
  const RouteTable table(small, *make_default_routing(small, kVcs), kVcs);
  EXPECT_EQ(RouteTable::rows_for(small, kVcs), table.num_rows());

  const auto fits = [](const topo::Topology& topo, int num_vcs) {
    return RouteTable::rows_for(topo, num_vcs) <= kMaxRouteTableRows;
  };
  // Tables: every Figure 6 campaign fabric at its 8 VCs, and the 32x32
  // mesh at 2 VCs (9.18 M rows).
  const eval::Scenario scenario =
      eval::figure6_scenario(tech::KncScenario::kA);
  const int campaign_vcs =
      eval::default_perf_config(scenario.arch).sim.num_vcs;
  EXPECT_EQ(campaign_vcs, 8);
  for (const topo::Topology& topo : eval::scenario_topologies(scenario)) {
    EXPECT_TRUE(fits(topo, campaign_vcs)) << topo.name();
  }
  EXPECT_EQ(RouteTable::rows_for(topo::make_mesh(32, 32), 2), 9175040u);
  EXPECT_TRUE(fits(topo::make_mesh(32, 32), 2));
  // Live: the 32x32 UGAL saturation fabrics at 4 VCs (17.3 M, 17.8 M rows).
  EXPECT_FALSE(fits(topo::make_mesh(32, 32), 4));
  EXPECT_FALSE(fits(topo::make_torus(32, 32), 4));

  const auto fits_shared = [](const topo::Topology& topo, int num_vcs) {
    return RouteTable::rows_for(topo, num_vcs) <= kMaxSharedRouteTableRows;
  };
  for (const char* routing : {"minimal", "ugal"}) {
    // Shared tables: every fabric of a 32x32 "experiment" request, under
    // either policy (at most 39.6 M rows, SHG under UGAL).
    serve::CampaignParams params;
    params.rows = 32;
    params.cols = 32;
    params.routing = routing;
    const eval::ExperimentSpec at32 = serve::make_campaign_spec(params);
    ASSERT_EQ(at32.topologies.size(), 3u);
    for (const eval::TopologyCase& tc : at32.topologies) {
      EXPECT_TRUE(fits_shared(tc.topology, at32.config.sim.num_vcs))
          << routing << ' ' << tc.topology.name();
    }
    // Live: the three fabrics of a 64x64 request, whose tables would need
    // hundreds of MB of row indices each. make_shared_route_table declines
    // them before building any routing function.
    params.rows = 64;
    params.cols = 64;
    const eval::ExperimentSpec at64 = serve::make_campaign_spec(params);
    ASSERT_EQ(at64.topologies.size(), 3u);
    for (const eval::TopologyCase& tc : at64.topologies) {
      EXPECT_FALSE(fits_shared(tc.topology, at64.config.sim.num_vcs))
          << routing << ' ' << tc.topology.name();
      EXPECT_EQ(eval::make_shared_route_table(tc.topology, at64.config),
                nullptr)
          << routing << ' ' << tc.topology.name();
    }
  }
}

TEST(RouteTable, SharedTableMatchesPrivateTable) {
  const auto topo = topo::make_mesh(4, 4);
  const auto routing = make_default_routing(topo, kVcs);
  const auto shared =
      std::make_shared<const RouteTable>(topo, *routing, kVcs);
  SimConfig config;
  config.num_vcs = kVcs;
  config.injection_rate = 0.05;
  config.warmup_cycles = 200;
  config.measure_cycles = 600;
  const auto pattern = make_uniform(topo.num_tiles());
  const SimResult with_private =
      Simulator(topo, unit_latencies(topo), config, pattern.get(), 1).run();
  const SimResult with_shared = Simulator(topo, unit_latencies(topo), config,
                                          pattern.get(), 1, shared)
                                    .run();
  EXPECT_EQ(with_private.avg_packet_latency, with_shared.avg_packet_latency);
  EXPECT_EQ(with_private.accepted_rate, with_shared.accepted_rate);
  EXPECT_EQ(with_private.measured_packets, with_shared.measured_packets);
}

}  // namespace
}  // namespace shg::sim
