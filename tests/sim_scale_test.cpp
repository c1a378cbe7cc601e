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
  // The route table at 32x32 is large but affordable; live routing is
  // covered by the 64x64 bench tier.
  const auto pattern = TrafficSpec::parse("uniform").make_pattern(32, 32);
  Simulator simulator(topo, unit_latencies(topo), config, *pattern, 1);
  const SimResult result = simulator.run();
  golden::expect_golden(golden::topo_label(topo) + " uniform", result);
  EXPECT_TRUE(result.drained);
  EXPECT_GT(result.measured_packets, 5000);
  EXPECT_GT(result.avg_packet_latency, 0.0);
  EXPECT_GT(result.accepted_rate, 0.015);
  EXPECT_LE(result.accepted_rate, 0.025);
}

TEST(SimScale, Mesh32x32LiveRoutingCompletes) {
  // Live routing (no table) is what makes 64x64+ feasible; smoke it at
  // 32x32 where the reference table would already be ~1 GiB-scale work.
  const auto topo = topo::make_mesh(32, 32);
  SimConfig config;
  config.num_vcs = 2;
  config.buffer_depth_flits = 4;
  config.injection_rate = 0.02;
  config.warmup_cycles = 300;
  config.measure_cycles = 700;
  config.use_route_table = false;
  const auto pattern = TrafficSpec::parse("uniform").make_pattern(32, 32);
  Simulator simulator(topo, unit_latencies(topo), config, *pattern, 1);
  const SimResult result = simulator.run();
  golden::expect_golden(golden::topo_label(topo) + " uniform live", result);
  EXPECT_TRUE(result.drained);
  EXPECT_GT(result.measured_packets, 0);
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
  Simulator simulator(topo, unit_latencies(topo), config, *pattern, 1);
  const SimResult result = simulator.run();
  golden::expect_golden(golden::topo_label(topo) + " uniform", result);
  EXPECT_TRUE(result.drained);
  EXPECT_GT(result.measured_packets, 0);
}

}  // namespace
}  // namespace shg::sim
