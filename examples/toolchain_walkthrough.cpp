// Walkthrough of the five-step NoC model (Section IV-B, Fig. 4/5): prints
// every intermediate artifact — tile sizing, global-routing channel loads,
// spacing estimates, unit-cell discretization and detailed-routing results —
// for one topology on one architecture, then feeds the cost model's link
// latencies into a batched multi-workload, multi-seed experiment (the
// right half of the Fig. 3 toolchain, run through the experiment engine).
//
//   $ ./toolchain_walkthrough
#include <algorithm>
#include <cstdio>

#include "shg/common/strings.hpp"
#include "shg/common/table.hpp"
#include "shg/eval/experiment.hpp"
#include "shg/eval/toolchain.hpp"
#include "shg/model/cost_model.hpp"
#include "shg/phys/global_route.hpp"
#include "shg/tech/presets.hpp"
#include "shg/topo/generators.hpp"

int main() {
  using namespace shg;
  const tech::ArchParams arch = tech::knc_scenario(tech::KncScenario::kA);
  const topo::Topology topology =
      topo::make_sparse_hamming(8, 8, {4}, {2, 5});
  std::printf("architecture: %s\ntopology:     %s\n\n", arch.name.c_str(),
              topology.name().c_str());

  // Step 1: tile area estimate and placement.
  const model::CostReport report = model::evaluate_cost(arch, topology);
  std::printf("step 1 — tile area estimate and placement:\n");
  std::printf("  router area A_R = f_AR(m,s,B) = %.2f MGE\n",
              report.router_area_ge / 1e6);
  std::printf("  tile area  A_T = A_E + A_R   = %.2f MGE\n",
              report.tile_area_ge / 1e6);
  std::printf("  tile size  W_T x H_T = %.3f x %.3f mm\n\n",
              report.tile_w_mm, report.tile_h_mm);

  // Step 2: global routing in the grid of tiles.
  const phys::GlobalRoutingResult global = phys::global_route(topology);
  std::printf("step 2 — global routing channel loads (NL per channel):\n  ");
  std::printf("horizontal:");
  for (int i = 0; i <= topology.rows(); ++i) {
    std::printf(" %d", global.max_h_load(i));
  }
  std::printf("   vertical:");
  for (int j = 0; j <= topology.cols(); ++j) {
    std::printf(" %d", global.max_v_load(j));
  }
  int straight = 0;
  int l_shaped = 0;
  for (const auto& route : global.routes) {
    if (route.straight) ++straight;
    if (route.spans.size() == 2) ++l_shaped;
  }
  std::printf("\n  %d unit links cross channels directly, %d L-shaped "
              "routes\n\n",
              straight, l_shaped);

  // Step 3: spacing between rows and columns.
  const double wires = arch.wires_per_link();
  std::printf("step 3 — spacing: one link needs %.0f wires;\n", wires);
  std::printf("  peak loads: %d horizontal / %d vertical parallel links\n",
              report.peak_h_channel_load, report.peak_v_channel_load);
  std::printf("  widest channels: %.1f um horizontal, %.1f um vertical\n\n",
              1e3 * arch.tech.wires.h_wires_to_mm(
                        report.peak_h_channel_load * wires),
              1e3 * arch.tech.wires.v_wires_to_mm(
                        report.peak_v_channel_load * wires));

  // Step 4: unit cells.
  std::printf("step 4 — unit cells: W_C x H_C = %.2f x %.2f um, chip "
              "%.2f x %.2f mm\n\n",
              1e3 * report.cell_w_mm, 1e3 * report.cell_h_mm,
              report.chip_width_mm, report.chip_height_mm);

  // Step 5: detailed routing.
  std::printf("step 5 — detailed routing: %lld H-cells, %lld V-cells, "
              "%lld collision cells\n\n",
              report.h_cells, report.v_cells, report.collision_cells);

  // Outputs.
  std::printf("outputs:\n");
  std::printf("  area:  total %.1f mm^2, no-NoC %.1f mm^2, overhead %.1f%%\n",
              report.total_area_mm2, report.base_area_mm2,
              100.0 * report.area_overhead);
  std::printf("  power: total %.2f W = base %.2f + routers %.2f + wires "
              "%.2f\n",
              report.total_power_w, report.base_power_w,
              report.router_power_w, report.wire_power_w);
  std::printf("  link latency: avg %.2f cycles, max %.2f cycles\n",
              report.avg_link_latency_cycles, report.max_link_latency_cycles);
  const auto longest = std::max_element(
      report.links.begin(), report.links.end(),
      [](const model::LinkCost& a, const model::LinkCost& b) {
        return a.length_mm < b.length_mm;
      });
  std::printf("  longest link: %.2f mm -> %d pipeline stages\n",
              longest->length_mm, longest->latency_cycles);

  // Step 6: performance under declarative workloads. The cost model's
  // per-link latencies drive the cycle-accurate simulator through the
  // experiment engine: workloads x rates x seeds in one batched run, the
  // route table built once, seed replicas aggregated to mean +- stddev.
  eval::ExperimentSpec spec;
  spec.name = "toolchain-walkthrough";
  spec.config = eval::default_perf_config(arch);
  spec.config.sim.warmup_cycles = 300;
  spec.config.sim.measure_cycles = 1000;
  spec.config.sim.drain_cycles = 15000;
  spec.endpoints_per_tile = arch.endpoints_per_tile;
  spec.topologies.push_back(
      eval::TopologyCase{topology, report.link_latencies(), ""});
  for (const char* workload :
       {"uniform", "transpose", "hotspot:0,7:0.2", "uniform/onoff:0.05,0.2"}) {
    spec.traffic.push_back(eval::TrafficCase{workload, ""});
  }
  spec.rates = {0.05, 0.15, 0.30};
  spec.seeds = {1, 2, 3};
  const eval::ExperimentReport experiment = eval::run_experiment(spec);

  std::printf("\nstep 6 — workload experiment (%zu sims: %zu workloads x "
              "%zu rates x %zu seeds, batched):\n",
              spec.traffic.size() * spec.rates.size() * spec.seeds.size(),
              spec.traffic.size(), spec.rates.size(), spec.seeds.size());
  Table table({"workload", "rate", "accepted", "avg lat +- sd", "p99",
               "drained"});
  for (const auto& point : experiment.points) {
    table.add_row({point.traffic, fmt_double(point.offered_rate, 2),
                   fmt_double(point.accepted_rate.mean, 3),
                   fmt_double(point.avg_latency.mean, 1) + " +- " +
                       fmt_double(point.avg_latency.stddev, 1),
                   fmt_double(point.p99_latency.mean, 1),
                   point.all_drained ? "yes" : "no"});
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}
