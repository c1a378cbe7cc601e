// Load-latency curves: the classic NoC evaluation plot underlying the
// "saturation throughput" numbers of Figure 6 — average packet latency as a
// function of offered load for every scenario-a topology, printed as a
// table and as CSV for plotting.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "shg/common/strings.hpp"
#include "shg/common/table.hpp"
#include "shg/eval/experiment.hpp"
#include "shg/eval/scenario.hpp"
#include "shg/eval/toolchain.hpp"

namespace {

using namespace shg;

void BM_SweepPointMesh(benchmark::State& state) {
  const auto scenario = eval::figure6_scenario(tech::KncScenario::kA);
  const auto topo = eval::scenario_topologies(scenario)[1];  // mesh
  const auto cost = eval::predict_cost(scenario.arch, topo);
  const auto latencies = cost.link_latencies();
  const auto pattern = sim::make_uniform(64);
  eval::PerfConfig config = eval::default_perf_config(scenario.arch);
  config.sim.warmup_cycles = 300;
  config.sim.measure_cycles = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval::simulate_at_rate(
        topo, latencies, 1, *pattern, config, 0.2));
  }
}
BENCHMARK(BM_SweepPointMesh);

void print_curves() {
  const auto scenario = eval::figure6_scenario(tech::KncScenario::kA);
  // Every scenario topology with its cost-model link latencies, under
  // uniform traffic — one experiment, one shared route table per topology.
  eval::ExperimentSpec spec = eval::figure6_experiment(
      scenario, {0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0});
  spec.config.sim.warmup_cycles = 500;
  spec.config.sim.measure_cycles = 1500;
  spec.config.sim.drain_cycles = 15000;
  const eval::ExperimentReport report = eval::run_experiment(spec);

  std::printf("\n=== Load-latency curves (scenario a, uniform traffic) ===\n");
  Table table({"topology", "rate", "accepted", "avg latency", "p99",
               "drained"});
  for (const auto& point : report.points) {
    table.add_row({point.topology, fmt_double(point.offered_rate, 2),
                   fmt_double(point.accepted_rate.mean, 3),
                   fmt_double(point.avg_latency.mean, 1),
                   fmt_double(point.p99_latency.mean, 1),
                   point.all_drained ? "yes" : "no"});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("\nCSV:\n%s", eval::experiment_to_csv(report).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_curves();
  return 0;
}
