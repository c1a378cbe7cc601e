// Tests for load-latency sweeps through the experiment engine.
#include <gtest/gtest.h>

#include "shg/eval/experiment.hpp"
#include "shg/topo/generators.hpp"

namespace shg::eval {
namespace {

std::vector<int> unit_latencies(const topo::Topology& topo) {
  return std::vector<int>(static_cast<std::size_t>(topo.graph().num_edges()),
                          1);
}

TEST(Sweep, LatencyRisesMonotonicallyTowardSaturation) {
  const auto topo = topo::make_mesh(4, 4);
  ExperimentSpec spec;
  spec.topologies.push_back(TopologyCase{topo, unit_latencies(topo), "mesh"});
  spec.traffic.push_back(TrafficCase{"uniform", ""});
  spec.rates = {0.02, 0.1, 0.3, 0.6};
  spec.config.sim.num_vcs = 2;
  spec.config.sim.buffer_depth_flits = 8;
  spec.config.sim.warmup_cycles = 400;
  spec.config.sim.measure_cycles = 1200;
  const std::vector<ExperimentPoint> points = run_experiment(spec).points;
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].topology, "mesh");
  // Weak monotonicity with slack for simulation noise at low loads.
  EXPECT_LE(points[0].avg_latency.mean, points[2].avg_latency.mean * 1.1);
  EXPECT_LT(points[1].avg_latency.mean, points[3].avg_latency.mean);
  // p99 dominates the mean everywhere.
  for (const auto& point : points) {
    EXPECT_GE(point.p99_latency.mean, point.avg_latency.mean);
  }
}

}  // namespace
}  // namespace shg::eval
