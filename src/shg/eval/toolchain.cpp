#include "shg/eval/toolchain.hpp"

namespace shg::eval {

PerfConfig default_perf_config(const tech::ArchParams& arch) {
  PerfConfig config;
  config.sim.num_vcs = arch.router_arch.num_vcs;
  config.sim.buffer_depth_flits = arch.router_arch.buffer_depth_flits;
  return config;
}

model::CostReport predict_cost(const tech::ArchParams& arch,
                               const topo::Topology& topo) {
  return model::evaluate_cost(arch, topo);
}

Prediction predict(const tech::ArchParams& arch, const topo::Topology& topo,
                   const PerfConfig& config) {
  Prediction prediction;
  prediction.cost = model::evaluate_cost(arch, topo);
  const auto uniform = sim::make_uniform(topo.num_tiles());
  prediction.perf =
      evaluate_performance(topo, prediction.cost.link_latencies(),
                           arch.endpoints_per_tile, *uniform, config);
  return prediction;
}

}  // namespace shg::eval
