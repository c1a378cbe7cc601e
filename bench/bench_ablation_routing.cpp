// Ablation: routing algorithm and router microarchitecture.
//
// Design principle #4 requires the topology to be *co-designed with the
// routing algorithm*. This bench compares, on the customized scenario-a
// sparse Hamming graph:
//   * XY-Hamming monotone routing (the co-designed default) vs. the generic
//     minimal-adaptive + escape-VC table routing, and
//   * virtual-channel count and buffer-depth sweeps.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "shg/common/strings.hpp"
#include "shg/common/table.hpp"
#include "shg/eval/toolchain.hpp"
#include "shg/tech/presets.hpp"
#include "shg/topo/generators.hpp"

namespace {

using namespace shg;

struct Setup {
  topo::Topology topology;
  std::vector<int> latencies;
  tech::ArchParams arch;
};

Setup make_setup() {
  tech::ArchParams arch = tech::knc_scenario(tech::KncScenario::kA);
  topo::Topology topology = topo::make_sparse_hamming(8, 8, {4}, {2, 5});
  const auto cost = eval::predict_cost(arch, topology);
  return Setup{std::move(topology), cost.link_latencies(), std::move(arch)};
}

void BM_SimulationCycleRate(benchmark::State& state) {
  const Setup setup = make_setup();
  const auto pattern = sim::make_uniform(64);
  sim::SimConfig config;
  config.injection_rate = 0.2;
  config.warmup_cycles = 100;
  config.measure_cycles = 400;
  long long cycles = 0;
  for (auto _ : state) {
    sim::Simulator simulator(setup.topology, setup.latencies, config,
                             pattern.get(), 1);
    const auto result = simulator.run();
    cycles += result.cycles_run;
  }
  state.counters["cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulationCycleRate);

sim::SimResult run_once(const Setup& setup, const sim::TrafficPattern& pattern,
                        int vcs, int depth, double rate, bool table_routing) {
  sim::SimConfig config;
  config.num_vcs = vcs;
  config.buffer_depth_flits = depth;
  config.injection_rate = rate;
  config.warmup_cycles = 500;
  config.measure_cycles = 1500;
  config.drain_cycles = 20000;
  const auto routing =
      table_routing ? sim::make_table_escape_routing(setup.topology, vcs)
                    : sim::make_xy_hamming_routing(setup.topology, vcs);
  sim::Simulator simulator(
      setup.topology, setup.latencies, config, &pattern, 1,
      std::make_shared<const sim::RouteTable>(setup.topology, *routing, vcs));
  return simulator.run();
}

void print_ablation() {
  const Setup setup = make_setup();
  const auto pattern = sim::make_uniform(64);

  std::printf("\n=== Routing-algorithm ablation (SHG SR={4} SC={2,5}, "
              "scenario a) ===\n");
  Table routing_table({"routing", "VCs", "buffers", "rate", "avg latency",
                       "accepted", "drained"});
  for (const bool table_routing : {false, true}) {
    for (const double rate : {0.05, 0.25, 0.45}) {
      const auto result =
          run_once(setup, *pattern, 8, 32, rate, table_routing);
      routing_table.add_row(
          {table_routing ? "minimal-adaptive+escape" : "xy-hamming", "8",
           "32", fmt_double(rate, 2),
           fmt_double(result.avg_packet_latency, 1) + " cyc",
           fmt_double(result.accepted_rate, 3),
           result.drained ? "yes" : "no"});
    }
  }
  std::printf("%s", routing_table.to_string().c_str());

  std::printf("\n=== VC / buffer sweep (xy-hamming, rate 0.35) ===\n");
  Table sweep_table({"VCs", "buffers", "avg latency", "accepted", "drained"});
  for (const int vcs : {2, 4, 8}) {
    for (const int depth : {8, 32}) {
      const auto result = run_once(setup, *pattern, vcs, depth, 0.35, false);
      sweep_table.add_row({std::to_string(vcs), std::to_string(depth),
                           fmt_double(result.avg_packet_latency, 1) + " cyc",
                           fmt_double(result.accepted_rate, 3),
                           result.drained ? "yes" : "no"});
    }
  }
  std::printf("%s", sweep_table.to_string().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_ablation();
  return 0;
}
