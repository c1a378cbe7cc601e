// Scale smoke test: a 32x32 mesh run through the simulator must finish in
// seconds (CI-friendly), produce sane statistics and match its golden
// corpus line bit for bit. This is the "can we even size up" guard —
// throughput numbers live in bench_sim_scale.
#include <gtest/gtest.h>

#include <vector>

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

TEST(SimScale, Mesh32x32UniformCompletes) {
  const auto topo = topo::make_mesh(32, 32);
  SimConfig config;
  config.num_vcs = 2;
  config.buffer_depth_flits = 4;
  config.injection_rate = 0.02;
  config.warmup_cycles = 500;
  config.measure_cycles = 1500;
  // The route table at 32x32 and 2 VCs fits the row budget, so the
  // simulator builds one.
  const auto pattern = TrafficSpec::parse("uniform").make_pattern(32, 32);
  Simulator simulator(topo, unit_latencies(topo), config, pattern.get(), 1);
  EXPECT_NE(simulator.route_table(), nullptr);
  const SimResult result = simulator.run();
  golden::expect_golden(golden::topo_label(topo) + " uniform", result);
  EXPECT_TRUE(result.drained);
  EXPECT_GT(result.measured_packets, 5000);
  EXPECT_GT(result.avg_packet_latency, 0.0);
  EXPECT_GT(result.accepted_rate, 0.015);
  EXPECT_LE(result.accepted_rate, 0.025);
}

TEST(SimScale, Mesh32x32LiveRoutingCompletes) {
  // Live routing (no table) is what makes 64x64+ feasible (above the row
  // budget); smoke it at 32x32 through the engine directly.
  const auto topo = topo::make_mesh(32, 32);
  SimConfig config;
  config.num_vcs = 2;
  config.buffer_depth_flits = 4;
  config.injection_rate = 0.02;
  config.warmup_cycles = 300;
  config.measure_cycles = 700;
  const auto pattern = TrafficSpec::parse("uniform").make_pattern(32, 32);
  const SimResult result =
      run_live(topo, unit_latencies(topo), config, pattern.get(), 1).result;
  golden::expect_golden(golden::topo_label(topo) + " uniform live", result);
  EXPECT_TRUE(result.drained);
  EXPECT_GT(result.measured_packets, 0);
}

TEST(SimScale, SimulatorRoutesLiveAboveRowBudget) {
  // 32x32 at 4 VCs needs 17.3 M rows, just past kMaxRouteTableRows, so the
  // Simulator keeps the routing function and asks it per head flit. Its
  // result must equal the run_live helper's for the same arguments, which
  // pins the helper the " live" golden lines go through to the product path.
  const auto topo = topo::make_mesh(32, 32);
  SimConfig config;
  config.num_vcs = 4;
  config.buffer_depth_flits = 4;
  config.injection_rate = 0.02;
  config.warmup_cycles = 100;
  config.measure_cycles = 200;
  ASSERT_GT(RouteTable::rows_for(topo, config.num_vcs), kMaxRouteTableRows);
  const auto pattern = TrafficSpec::parse("uniform").make_pattern(32, 32);
  Simulator simulator(topo, unit_latencies(topo), config, pattern.get(), 1);
  EXPECT_EQ(simulator.route_table(), nullptr);
  const SimResult result = simulator.run();
  EXPECT_TRUE(result.drained);
  EXPECT_GT(result.measured_packets, 0);
  EXPECT_EQ(result,
            run_live(topo, unit_latencies(topo), config, pattern.get(), 1).result);
}

TEST(SimScale, ConcentratedMesh16x16x4Completes) {
  // 1024 terminals on a 16x16 router fabric: the concentration path at the
  // same terminal count as the 32x32 mesh.
  const auto topo = topo::make_concentrated_mesh(16, 16, 4);
  SimConfig config;
  config.num_vcs = 2;
  config.buffer_depth_flits = 8;
  config.injection_rate = 0.01;
  config.warmup_cycles = 500;
  config.measure_cycles = 1500;
  const auto pattern = TrafficSpec::parse("uniform").make_pattern(16, 16, 4);
  Simulator simulator(topo, unit_latencies(topo), config, pattern.get(), 1);
  const SimResult result = simulator.run();
  golden::expect_golden(golden::topo_label(topo) + " uniform", result);
  EXPECT_TRUE(result.drained);
  EXPECT_GT(result.measured_packets, 0);
}

}  // namespace
}  // namespace shg::sim
