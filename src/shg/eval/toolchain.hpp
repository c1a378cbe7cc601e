// The complete prediction toolchain of Fig. 3: architectural parameters +
// topology -> cost model -> (topology with link latency estimates) ->
// cycle-accurate simulation -> cost and performance predictions.
#pragma once

#include "shg/eval/perf.hpp"
#include "shg/model/cost_model.hpp"
#include "shg/tech/arch_params.hpp"

namespace shg::eval {

/// Joint cost/performance prediction of one topology on one architecture.
struct Prediction {
  model::CostReport cost;
  PerfResult perf;
};

/// Runs the full toolchain under random uniform traffic (the Figure 6
/// configuration).
Prediction predict(const tech::ArchParams& arch, const topo::Topology& topo,
                   const PerfConfig& config);

/// Cost-only prediction (the fast inner loop of the customization strategy;
/// skips the simulation).
model::CostReport predict_cost(const tech::ArchParams& arch,
                               const topo::Topology& topo);

/// Default performance-evaluation configuration mirroring Section V-b:
/// 8 VCs, 32-flit buffers.
PerfConfig default_perf_config(const tech::ArchParams& arch);

}  // namespace shg::eval
