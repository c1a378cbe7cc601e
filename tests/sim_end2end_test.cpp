// End-to-end simulator tests: latency composition, flit conservation,
// throughput orderings, saturation behaviour and deadlock stress.
#include <gtest/gtest.h>

#include "shg/eval/perf.hpp"
#include "shg/sim/simulator.hpp"
#include "shg/topo/generators.hpp"

namespace shg::sim {
namespace {

SimConfig fast_config() {
  SimConfig config;
  config.num_vcs = 2;
  config.buffer_depth_flits = 4;
  config.packet_size_flits = 4;
  config.warmup_cycles = 500;
  config.measure_cycles = 1500;
  config.drain_cycles = 30000;
  return config;
}

std::vector<int> unit_latencies(const topo::Topology& topo) {
  return std::vector<int>(static_cast<std::size_t>(topo.graph().num_edges()),
                          1);
}

TEST(Simulator, LowRateDrainsAndConservesFlits) {
  const auto topo = topo::make_mesh(4, 4);
  SimConfig config = fast_config();
  config.injection_rate = 0.05;
  const auto pattern = make_uniform(16);
  Simulator simulator(topo, unit_latencies(topo), config, pattern.get(), 1);
  const SimResult result = simulator.run();
  EXPECT_TRUE(result.drained);
  EXPECT_GT(result.measured_packets, 0);
  EXPECT_NEAR(result.accepted_rate, 0.05, 0.015);
}

TEST(Simulator, ZeroLoadLatencyDecomposition) {
  // Neighbor traffic on a 4x4 mesh with unit links: 12 of 16 sources reach
  // their neighbor in 1 link (2 routers), the 4 wrap pairs need 3 links
  // (4 routers). With 4-flit serialization, per-packet latency is
  // ~5 cycles for the short pairs and ~9 for the wrap pairs.
  const auto topo = topo::make_mesh(4, 4);
  SimConfig config = fast_config();
  config.injection_rate = 0.01;
  const auto pattern = make_neighbor(4, 4);
  Simulator simulator(topo, unit_latencies(topo), config, pattern.get(), 1);
  const SimResult result = simulator.run();
  EXPECT_TRUE(result.drained);
  EXPECT_GE(result.avg_packet_latency, 5.0);
  EXPECT_LE(result.avg_packet_latency, 9.0);
  EXPECT_GE(result.avg_hops, 2.0);
  EXPECT_LE(result.avg_hops, 3.0);
}

TEST(Simulator, LinkLatencyRaisesPacketLatency) {
  const auto topo = topo::make_mesh(4, 4);
  SimConfig config = fast_config();
  config.injection_rate = 0.02;
  const auto pattern = make_uniform(16);
  Simulator fast(topo, unit_latencies(topo), config, pattern.get(), 1);
  std::vector<int> slow_links(
      static_cast<std::size_t>(topo.graph().num_edges()), 4);
  Simulator slow(topo, slow_links, config, pattern.get(), 1);
  const SimResult fast_result = fast.run();
  const SimResult slow_result = slow.run();
  ASSERT_TRUE(fast_result.drained);
  ASSERT_TRUE(slow_result.drained);
  EXPECT_GT(slow_result.avg_packet_latency,
            fast_result.avg_packet_latency + 3.0);
}

TEST(Simulator, RunRejectsMalformedFabric) {
  // A latency count that does not match the link count, a tile without
  // endpoints and a zero-cycle link each fail with a clean shg::Error.
  const auto topo = topo::make_mesh(3, 3);
  const SimConfig config = fast_config();
  const auto pattern = make_uniform(9);
  EXPECT_THROW(Simulator(topo, std::vector<int>(5, 1), config, pattern.get(), 1)
                   .run(),
               Error);
  EXPECT_THROW(Simulator(topo, unit_latencies(topo), config, pattern.get(), 0)
                   .run(),
               Error);
  std::vector<int> zero_link = unit_latencies(topo);
  zero_link[3] = 0;
  EXPECT_THROW(Simulator(topo, zero_link, config, pattern.get(), 1).run(), Error);
}

TEST(Simulator, MoreEndpointsInjectMoreTraffic) {
  const auto topo = topo::make_mesh(4, 4);
  SimConfig config = fast_config();
  config.injection_rate = 0.05;
  const auto pattern = make_uniform(16);
  Simulator one(topo, unit_latencies(topo), config, pattern.get(), 1);
  Simulator two(topo, unit_latencies(topo), config, pattern.get(), 2);
  const SimResult r1 = one.run();
  const SimResult r2 = two.run();
  ASSERT_TRUE(r1.drained);
  ASSERT_TRUE(r2.drained);
  // Rate is per endpoint port: two endpoints double the measured packets.
  EXPECT_NEAR(static_cast<double>(r2.measured_packets) /
                  static_cast<double>(r1.measured_packets),
              2.0, 0.5);
}

TEST(Simulator, SaturationLatencyExplodes) {
  const auto topo = topo::make_mesh(4, 4);
  SimConfig config = fast_config();
  const auto pattern = make_uniform(16);
  config.injection_rate = 0.03;
  Simulator low(topo, unit_latencies(topo), config, pattern.get(), 1);
  config.injection_rate = 0.9;
  Simulator high(topo, unit_latencies(topo), config, pattern.get(), 1);
  const SimResult low_result = low.run();
  const SimResult high_result = high.run();
  ASSERT_TRUE(low_result.drained);
  // At 0.9 flits/port/cycle a 4x4 mesh is far beyond saturation: either the
  // drain fails or latency explodes.
  EXPECT_TRUE(!high_result.drained ||
              high_result.avg_packet_latency >
                  3.0 * low_result.avg_packet_latency);
  // But it must keep moving flits (no deadlock): accepted rate well over 0.
  EXPECT_GT(high_result.accepted_rate, 0.05);
}

TEST(Simulator, FlattenedButterflyBeatsMeshUnderLoad) {
  SimConfig config = fast_config();
  config.injection_rate = 0.30;
  const auto pattern = make_uniform(16);
  const auto mesh = topo::make_mesh(4, 4);
  const auto fb = topo::make_flattened_butterfly(4, 4);
  const SimResult mesh_result =
      Simulator(mesh, unit_latencies(mesh), config, pattern.get(), 1).run();
  const SimResult fb_result =
      Simulator(fb, unit_latencies(fb), config, pattern.get(), 1).run();
  // The FB either still drains where the mesh cannot, or has lower latency.
  if (mesh_result.drained && fb_result.drained) {
    EXPECT_LT(fb_result.avg_packet_latency, mesh_result.avg_packet_latency);
  } else {
    EXPECT_TRUE(fb_result.drained || !mesh_result.drained);
  }
}

TEST(Simulator, RingSaturatesFirst) {
  SimConfig config = fast_config();
  config.injection_rate = 0.15;
  const auto pattern = make_uniform(16);
  const auto ring = topo::make_ring(4, 4);
  const auto mesh = topo::make_mesh(4, 4);
  const SimResult ring_result =
      Simulator(ring, unit_latencies(ring), config, pattern.get(), 1).run();
  const SimResult mesh_result =
      Simulator(mesh, unit_latencies(mesh), config, pattern.get(), 1).run();
  ASSERT_TRUE(mesh_result.drained);
  EXPECT_TRUE(!ring_result.drained ||
              ring_result.avg_packet_latency >
                  mesh_result.avg_packet_latency);
}

TEST(Simulator, DeadlockStressTorusHighLoad) {
  // Dateline VCs must keep the torus deadlock-free even far beyond
  // saturation with adversarial wrap-heavy traffic.
  const auto topo = topo::make_torus(4, 4);
  SimConfig config = fast_config();
  config.injection_rate = 0.8;
  config.measure_cycles = 2500;
  const auto pattern = make_tornado(4, 4);
  Simulator simulator(topo, unit_latencies(topo), config, pattern.get(), 1);
  const SimResult result = simulator.run();
  EXPECT_GT(result.accepted_rate, 0.05);
}

TEST(Simulator, DeadlockStressSlimNocHighLoad) {
  // The up*/down* escape VC must keep the irregular SlimNoC graph live
  // beyond saturation.
  const auto topo = topo::make_slim_noc(5, 10);
  SimConfig config = fast_config();
  config.num_vcs = 4;
  config.injection_rate = 0.8;
  config.measure_cycles = 2500;
  const auto pattern = make_uniform(50);
  Simulator simulator(topo, unit_latencies(topo), config, pattern.get(), 1);
  const SimResult result = simulator.run();
  EXPECT_GT(result.accepted_rate, 0.05);
}

TEST(Simulator, DeadlockStressRing) {
  const auto topo = topo::make_ring(4, 4);
  SimConfig config = fast_config();
  config.injection_rate = 0.7;
  const auto pattern = make_uniform(16);
  Simulator simulator(topo, unit_latencies(topo), config, pattern.get(), 1);
  const SimResult result = simulator.run();
  EXPECT_GT(result.accepted_rate, 0.02);
}

TEST(Simulator, DeterministicForFixedSeed) {
  const auto topo = topo::make_mesh(4, 4);
  SimConfig config = fast_config();
  config.injection_rate = 0.2;
  const auto pattern = make_uniform(16);
  const SimResult a =
      Simulator(topo, unit_latencies(topo), config, pattern.get(), 1).run();
  const SimResult b =
      Simulator(topo, unit_latencies(topo), config, pattern.get(), 1).run();
  EXPECT_EQ(a.measured_packets, b.measured_packets);
  EXPECT_DOUBLE_EQ(a.avg_packet_latency, b.avg_packet_latency);
  EXPECT_DOUBLE_EQ(a.accepted_rate, b.accepted_rate);
}

TEST(Simulator, SeedChangesTraffic) {
  const auto topo = topo::make_mesh(4, 4);
  SimConfig config = fast_config();
  config.injection_rate = 0.2;
  const auto pattern = make_uniform(16);
  SimConfig other = config;
  other.seed = config.seed + 1;
  const SimResult a =
      Simulator(topo, unit_latencies(topo), config, pattern.get(), 1).run();
  const SimResult b =
      Simulator(topo, unit_latencies(topo), other, pattern.get(), 1).run();
  EXPECT_NE(a.measured_packets, b.measured_packets);
}

TEST(PerfEval, MeshPerformanceEnvelope) {
  const auto topo = topo::make_mesh(4, 4);
  eval::PerfConfig config;
  config.sim = fast_config();
  const auto pattern = make_uniform(16);
  const auto perf = eval::evaluate_performance(topo, unit_latencies(topo), 1,
                                               *pattern, config);
  EXPECT_GT(perf.zero_load_latency_cycles, 5.0);
  EXPECT_LT(perf.zero_load_latency_cycles, 25.0);
  EXPECT_GT(perf.saturation_throughput, 0.15);
  EXPECT_LT(perf.saturation_throughput, 0.9);
}

TEST(PerfEval, FbOutperformsRing) {
  eval::PerfConfig config;
  config.sim = fast_config();
  config.bisection_iterations = 5;
  const auto pattern = make_uniform(16);
  const auto ring = topo::make_ring(4, 4);
  const auto fb = topo::make_flattened_butterfly(4, 4);
  const auto ring_perf = eval::evaluate_performance(
      ring, unit_latencies(ring), 1, *pattern, config);
  const auto fb_perf =
      eval::evaluate_performance(fb, unit_latencies(fb), 1, *pattern, config);
  EXPECT_GT(fb_perf.saturation_throughput, ring_perf.saturation_throughput);
  EXPECT_LT(fb_perf.zero_load_latency_cycles,
            ring_perf.zero_load_latency_cycles);
}

}  // namespace
}  // namespace shg::sim
