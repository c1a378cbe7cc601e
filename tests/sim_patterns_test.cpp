// Behavioural tests of the simulator under non-uniform traffic: adversarial
// permutations, hotspots, and fairness measurements.
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
  config.drain_cycles = 25000;
  return config;
}

std::vector<int> unit_latencies(const topo::Topology& topo) {
  return std::vector<int>(static_cast<std::size_t>(topo.graph().num_edges()),
                          1);
}

SimResult run(const topo::Topology& topo, const TrafficPattern& pattern,
              double rate, SimConfig config = fast_config()) {
  config.injection_rate = rate;
  return Simulator(topo, unit_latencies(topo), config, &pattern, 1).run();
}

TEST(Patterns, TransposeIsAdversarialForMesh) {
  // Transpose concentrates traffic through the diagonal; at the same rate
  // the mesh must show substantially higher latency (or fail to drain)
  // compared to nearest-neighbor traffic.
  const auto mesh = topo::make_mesh(6, 6);
  const auto neighbor = make_neighbor(6, 6);
  const auto transpose = make_transpose(6, 6);
  const SimResult easy = run(mesh, *neighbor, 0.30);
  const SimResult hard = run(mesh, *transpose, 0.30);
  ASSERT_TRUE(easy.drained);
  EXPECT_TRUE(!hard.drained ||
              hard.avg_packet_latency > 1.5 * easy.avg_packet_latency);
}

TEST(Patterns, FlattenedButterflyShrugsOffTranspose) {
  // Direct row/column links make transpose a 2-hop pattern on the FB.
  const auto fb = topo::make_flattened_butterfly(6, 6);
  const auto transpose = make_transpose(6, 6);
  const SimResult result = run(fb, *transpose, 0.30);
  EXPECT_TRUE(result.drained);
  EXPECT_LT(result.avg_packet_latency, 40.0);
}

TEST(Patterns, HotspotThrottlesAcceptedRate)
{
  // 50% of traffic to one tile: the hotspot's ejection port (1 flit/cycle)
  // caps the whole network's accepted rate near 2/N per port.
  const auto mesh = topo::make_mesh(4, 4);
  const auto hotspot = make_hotspot(16, {5}, 0.5);
  const SimResult result = run(mesh, *hotspot, 0.6);
  // Per-port accepted can't exceed ~ 1 / (16 * 0.5) = 0.125 once the
  // hotspot's sink saturates; allow generous slack above the bound.
  EXPECT_LT(result.accepted_rate, 0.20);
  EXPECT_GT(result.accepted_rate, 0.02);
}

TEST(Patterns, BitComplementStressesBisection) {
  // Bit complement sends everything across the middle: mesh saturates far
  // below uniform capacity but must keep flowing.
  const auto mesh = topo::make_mesh(4, 4);
  const auto bitcomp = make_bit_complement(16);
  const SimResult result = run(mesh, *bitcomp, 0.8);
  EXPECT_GT(result.accepted_rate, 0.05);
}

TEST(Fairness, UniformLowLoadIsFair) {
  const auto mesh = topo::make_mesh(4, 4);
  const auto uniform = make_uniform(16);
  const SimResult result = run(mesh, *uniform, 0.05);
  ASSERT_TRUE(result.drained);
  // At low load every source sees near-identical service.
  EXPECT_LT(result.fairness, 1.5);
}

TEST(Fairness, SaturatedRingIsUnfair) {
  // Beyond saturation the ring starves sources far from their destinations'
  // free slots; fairness must degrade relative to low load.
  const auto ring = topo::make_ring(4, 4);
  const auto uniform = make_uniform(16);
  const SimResult low = run(ring, *uniform, 0.03);
  SimConfig config = fast_config();
  config.measure_cycles = 2000;
  const SimResult high = run(ring, *uniform, 0.6, config);
  ASSERT_TRUE(low.drained);
  EXPECT_GT(high.fairness, low.fairness);
}

TEST(Percentiles, TailDominatesMeanUnderLoad) {
  const auto mesh = topo::make_mesh(4, 4);
  const auto uniform = make_uniform(16);
  const SimResult result = run(mesh, *uniform, 0.35);
  ASSERT_GT(result.measured_packets, 0);
  EXPECT_GE(result.p50_packet_latency, 1.0);
  EXPECT_GE(result.p95_packet_latency, result.p50_packet_latency);
  EXPECT_GE(result.p99_packet_latency, result.p95_packet_latency);
  EXPECT_GE(result.max_packet_latency, result.p99_packet_latency);
  // The mean sits between the median and the tail under congestion.
  EXPECT_LE(result.p50_packet_latency, result.avg_packet_latency * 1.5);
}

TEST(Percentiles, ZeroLoadTailIsTight) {
  const auto fb = topo::make_flattened_butterfly(4, 4);
  const auto uniform = make_uniform(16);
  const SimResult result = run(fb, *uniform, 0.01);
  ASSERT_TRUE(result.drained);
  // Diameter-2 topology at zero load: p99 within a small factor of median.
  EXPECT_LT(result.p99_packet_latency, 2.5 * result.p50_packet_latency);
}

}  // namespace
}  // namespace shg::sim
