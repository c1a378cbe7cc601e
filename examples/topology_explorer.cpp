// Topology explorer: renders every established topology of Figure 1 on a
// small grid and prints its Table I compliance row — a visual + quantitative
// tour of the design principles of Section II — then batches a workload
// experiment (uniform / tornado / hotspot traffic at two load points)
// across all of them through the experiment engine.
//
//   $ ./topology_explorer [rows cols]
#include <cstdio>
#include <cstdlib>

#include "shg/common/strings.hpp"
#include "shg/common/table.hpp"
#include "shg/eval/experiment.hpp"
#include "shg/topo/generators.hpp"
#include "shg/topo/registry.hpp"
#include "shg/topo/render.hpp"
#include "shg/topo/traits.hpp"

int main(int argc, char** argv) {
  using namespace shg;
  const int rows = argc > 1 ? std::atoi(argv[1]) : 4;
  const int cols = argc > 2 ? std::atoi(argv[2]) : 8;
  if (rows < 2 || cols < 2) {
    std::fprintf(stderr, "usage: %s [rows cols], both >= 2\n", argv[0]);
    return 1;
  }

  std::vector<topo::Topology> topologies =
      topo::established_suite(rows, cols);
  // A couple of sparse Hamming graphs to show the customization axis.
  topologies.push_back(topo::make_sparse_hamming(rows, cols, {2}, {2}));
  if (cols > 3) {
    topologies.push_back(topo::make_sparse_hamming(rows, cols, {2, 3}, {2}));
  }
  topologies.push_back(topo::make_ruche(rows, cols, 3, 2));

  Table table({"topology", "radix", "diameter", "avg hops", "SL", "AL",
               "ULD", "OPP", "min paths", "min used"});
  for (const auto& topology : topologies) {
    std::printf("%s\n", topo::render_ascii(topology).c_str());
    const auto traits = topo::analyze(topology);
    table.add_row({topology.name(), std::to_string(traits.radix),
                   std::to_string(traits.diameter),
                   fmt_double(traits.avg_hops, 2),
                   topo::compliance_symbol(traits.short_links),
                   topo::compliance_symbol(traits.aligned_links),
                   topo::compliance_symbol(traits.uniform_link_density),
                   topo::compliance_symbol(traits.port_placement),
                   traits.minimal_paths_present ? "yes" : "no",
                   traits.minimal_paths_used ? "yes" : "no"});
  }
  std::printf("%s", table.to_string().c_str());

  // Workload tour through the experiment engine: one declarative spec
  // batches every (topology, workload, rate) cell — route tables are
  // built once per topology and the points fan out across cores.
  eval::ExperimentSpec spec;
  spec.name = "topology-explorer";
  for (const auto& topology : topologies) {
    spec.topologies.push_back(eval::TopologyCase{topology, {}, ""});
  }
  for (const char* workload :
       {"uniform", "tornado", "hotspot:0:0.25/onoff:0.05,0.15"}) {
    spec.traffic.push_back(eval::TrafficCase{workload, ""});
  }
  spec.rates = {0.05, 0.20};
  spec.config.sim.warmup_cycles = 300;
  spec.config.sim.measure_cycles = 800;
  spec.config.sim.drain_cycles = 10000;
  const eval::ExperimentReport report = eval::run_experiment(spec);

  std::printf("\nworkload experiment (%zu simulations, batched):\n",
              spec.topologies.size() * spec.traffic.size() *
                  spec.rates.size());
  Table workloads({"topology", "workload", "rate", "accepted", "avg lat",
                   "p99", "drained"});
  for (const auto& point : report.points) {
    workloads.add_row({point.topology, point.traffic,
                       fmt_double(point.offered_rate, 2),
                       fmt_double(point.accepted_rate.mean, 3),
                       fmt_double(point.avg_latency.mean, 1),
                       fmt_double(point.p99_latency.mean, 1),
                       point.all_drained ? "yes" : "no"});
  }
  std::printf("%s", workloads.to_string().c_str());
  return 0;
}
