// Bit-identity oracle for the simulation engine: every SimResult field must
// equal its golden corpus line EXACTLY (tests/golden/sim_results.txt,
// recorded with a second, object-per-router engine agreeing on every case,
// plus later cases recorded on this engine before a rework of its phases)
// across topology families, traffic patterns, injection kinds, endpoint
// counts, link latencies, routing modes (table and live) and concentration
// — plus the quiescence fast-forward regime (rates low enough that the
// network goes fully idle between injections).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "shg/eval/scenario.hpp"
#include "shg/eval/toolchain.hpp"
#include "shg/sim/concentration.hpp"
#include "shg/sim/simulator.hpp"
#include "shg/sim/trace.hpp"
#include "shg/sim/traffic_spec.hpp"
#include "shg/topo/generators.hpp"

#include "golden.hpp"
#include "live_run.hpp"

namespace shg::sim {
namespace {

SimConfig fast_config() {
  SimConfig config;
  config.num_vcs = 2;
  config.buffer_depth_flits = 4;
  config.packet_size_flits = 4;
  config.warmup_cycles = 300;
  config.measure_cycles = 900;
  config.drain_cycles = 30000;
  return config;
}

std::vector<int> unit_latencies(const topo::Topology& topo) {
  return std::vector<int>(static_cast<std::size_t>(topo.graph().num_edges()),
                          1);
}

/// Runs one simulation and requires every SimResult field to match the
/// golden corpus bit for bit. `spec_text` drives pattern AND process
/// through the TrafficSpec path (the experiment engine's shape). `live`
/// runs the engine without a route table (tests/live_run.hpp). `tag`, when
/// set, ends the case label (for cases that differ only in the config).
void expect_bit_identical(const topo::Topology& topo,
                          const std::vector<int>& latencies,
                          const SimConfig& config,
                          const std::string& spec_text,
                          int endpoints_per_tile, bool live = false,
                          const std::string& tag = "") {
  const TrafficSpec spec = TrafficSpec::parse(spec_text);
  const auto pattern =
      spec.make_pattern(topo.rows(), topo.cols(), topo.concentration());

  RunOutcome run;
  if (live) {
    run = run_live(topo, latencies, config, pattern.get(), endpoints_per_tile,
                   spec.injection());
  } else {
    Simulator sim(topo, latencies, config, pattern.get(), endpoints_per_tile,
                  nullptr, spec.injection());
    run.result = sim.run();
    run.nonminimal = sim.ugal_nonminimal_choices();
  }
  const SimResult& s = run.result;
  std::string label = golden::topo_label(topo) + " " + spec_text;
  if (endpoints_per_tile > 1) {
    label += " ep" + std::to_string(endpoints_per_tile);
  }
  if (live) label += " live";
  if (!tag.empty()) label += " " + tag;
  golden::expect_golden(label, s, run.nonminimal);
  // The run must have done real work, or the comparison proves nothing.
  EXPECT_GT(s.measured_packets, 0) << spec_text;
}

TEST(SoaBitIdentity, AllTopologyFamiliesUniform) {
  SimConfig config = fast_config();
  config.injection_rate = 0.04;
  const topo::Topology topos[] = {
      topo::make_ring(4, 4),        topo::make_mesh(4, 4),
      topo::make_torus(4, 4),       topo::make_folded_torus(4, 4),
      topo::make_hypercube(4, 4),   topo::make_flattened_butterfly(4, 4),
      topo::make_sparse_hamming(4, 4, {2}, {2, 3}),
  };
  for (const auto& topo : topos) {
    SCOPED_TRACE(topo.name());
    expect_bit_identical(topo, unit_latencies(topo), config, "uniform", 1);
  }
}

TEST(SoaBitIdentity, SlimNocAdaptiveEscapeRouting) {
  // TableEscapeRouting exercises multi-candidate adaptive routes, the
  // hardest case for allocator-order equivalence.
  const auto topo = topo::make_slim_noc(4, 8);
  SimConfig config = fast_config();
  config.injection_rate = 0.06;
  expect_bit_identical(topo, unit_latencies(topo), config, "uniform", 1);
}

TEST(SoaBitIdentity, EveryPatternOnMesh) {
  const auto topo = topo::make_mesh(4, 4);
  SimConfig config = fast_config();
  config.injection_rate = 0.05;
  for (const char* spec :
       {"uniform", "transpose", "bit-complement", "bit-reverse", "shuffle",
        "tornado", "neighbor", "hotspot:0,5:0.5"}) {
    SCOPED_TRACE(spec);
    expect_bit_identical(topo, unit_latencies(topo), config, spec, 1);
  }
}

TEST(SoaBitIdentity, OnOffProcessAndMultiEndpoint) {
  const auto topo = topo::make_mesh(4, 4);
  SimConfig config = fast_config();
  config.injection_rate = 0.05;
  expect_bit_identical(topo, unit_latencies(topo), config,
                       "uniform/onoff:0.05,0.2", 1);
  expect_bit_identical(topo, unit_latencies(topo), config,
                       "transpose/onoff:0.1,0.3", 2);
  // Endpoint spreading without concentration (eject port by packet id).
  expect_bit_identical(topo, unit_latencies(topo), config, "uniform", 3);
}

TEST(SoaBitIdentity, NonUnitLinkLatenciesAndDeeperBuffers) {
  const auto topo = topo::make_torus(4, 4);
  SimConfig config = fast_config();
  config.injection_rate = 0.08;
  config.num_vcs = 4;
  config.buffer_depth_flits = 8;
  config.router_delay_cycles = 2;
  std::vector<int> latencies(
      static_cast<std::size_t>(topo.graph().num_edges()));
  for (std::size_t e = 0; e < latencies.size(); ++e) {
    latencies[e] = 1 + static_cast<int>(e % 3);
  }
  expect_bit_identical(topo, latencies, config, "uniform", 1);
}

TEST(SoaBitIdentity, PipelineDelayZeroAndThreeAtSaturation) {
  // A buffered flit's ready cycle at both ends of the pipeline delay: 0 (a
  // landing flit is switchable in its arrival cycle) and 3 (past saturation
  // flits queue behind a head that is not ready yet), over links of 1..3
  // cycles.
  const topo::Topology topos[] = {topo::make_mesh(4, 4),
                                  topo::make_flattened_butterfly(4, 4)};
  SimConfig config = fast_config();
  config.injection_rate = 0.8;
  config.num_vcs = 4;
  config.buffer_depth_flits = 8;
  config.drain_cycles = 3000;
  for (const auto& topo : topos) {
    std::vector<int> latencies(
        static_cast<std::size_t>(topo.graph().num_edges()));
    for (std::size_t e = 0; e < latencies.size(); ++e) {
      latencies[e] = 1 + static_cast<int>(e % 3);
    }
    for (const int delay : {0, 3}) {
      config.router_delay_cycles = delay;
      expect_bit_identical(topo, latencies, config, "uniform", 1, false,
                           "delay" + std::to_string(delay));
    }
  }
}

TEST(SoaBitIdentity, DeepBuffersWrapAtSaturatedHotspot) {
  // The paper's 8 VCs of 32 flits past saturation: every busy buffer ring
  // wraps around its slab range many times.
  const auto topo = topo::make_mesh(4, 4);
  SimConfig config = fast_config();
  config.num_vcs = 8;
  config.buffer_depth_flits = 32;
  config.injection_rate = 0.6;
  config.drain_cycles = 4000;
  expect_bit_identical(topo, unit_latencies(topo), config, "hotspot:5:0.8",
                       1, false, "vc8x32");
}

TEST(SoaBitIdentity, Figure6aConfigOnScenarioA) {
  // The paper's evaluation config: 8 VCs, 32-flit buffers and cost-model
  // link latencies on every scenario-a topology, at a low and a high rate.
  const eval::Scenario scenario =
      eval::figure6_scenario(tech::KncScenario::kA);
  SimConfig config = eval::default_perf_config(scenario.arch).sim;
  config.warmup_cycles = 300;
  config.measure_cycles = 900;
  for (const auto& topo : eval::scenario_topologies(scenario)) {
    SCOPED_TRACE(topo.name());
    const std::vector<int> latencies =
        eval::predict_cost(scenario.arch, topo).link_latencies();
    for (const char* rate : {"0.02", "0.2"}) {
      config.injection_rate = std::stod(rate);
      expect_bit_identical(topo, latencies, config, "uniform",
                           scenario.arch.endpoints_per_tile, false,
                           std::string("r") + rate);
    }
  }
}

TEST(SoaBitIdentity, OneAndSixtyFourVcs) {
  // The VC-count extremes: a single VC, and the widest per-port VC set.
  const auto topo = topo::make_mesh(4, 4);
  SimConfig config = fast_config();
  config.injection_rate = 0.1;
  for (const int vcs : {1, 64}) {
    config.num_vcs = vcs;
    expect_bit_identical(topo, unit_latencies(topo), config, "uniform", 1,
                         false, "vc" + std::to_string(vcs));
  }
}

TEST(SimConfigLimits, SixtyFiveVcsThrow) {
  // The engine keeps one bit per VC in a 64-bit mask per port.
  const auto topo = topo::make_mesh(4, 4);
  SimConfig config = fast_config();
  config.num_vcs = 65;
  EXPECT_THROW(config.validate(), shg::Error);
  const auto pattern = TrafficSpec::parse("uniform").make_pattern(4, 4);
  EXPECT_THROW(Simulator(topo, unit_latencies(topo), config, pattern.get(), 1),
               shg::Error);
}

TEST(SimConfigLimits, CycleHorizonBeyondPackedFieldThrows) {
  // The engine stores ready and creation cycles in 32 bits: the last cycle
  // a run can reach, warmup + measure + drain + router delay, must fit.
  const auto topo = topo::make_mesh(4, 4);
  SimConfig config = fast_config();
  const Cycle rest = config.warmup_cycles + config.measure_cycles +
                     config.router_delay_cycles;
  config.drain_cycles = kMaxCycleHorizon - rest;
  EXPECT_NO_THROW(config.validate());
  config.drain_cycles = kMaxCycleHorizon - rest + 1;
  EXPECT_THROW(config.validate(), shg::Error);
  const auto pattern = TrafficSpec::parse("uniform").make_pattern(4, 4);
  EXPECT_THROW(Simulator(topo, unit_latencies(topo), config, pattern.get(), 1),
               shg::Error);
  // A phase far past the limit is rejected without overflowing the sum.
  config.drain_cycles = std::numeric_limits<long long>::max();
  EXPECT_THROW(config.validate(), shg::Error);
}

TEST(SoaBitIdentity, LinkLatenciesOneToNine) {
  // Links of 1..9 cycles: many arrivals in flight per channel at once.
  const auto topo = topo::make_sparse_hamming(4, 4, {2}, {2, 3});
  SimConfig config = fast_config();
  config.injection_rate = 0.1;
  config.num_vcs = 4;
  config.buffer_depth_flits = 8;
  std::vector<int> latencies(
      static_cast<std::size_t>(topo.graph().num_edges()));
  for (std::size_t e = 0; e < latencies.size(); ++e) {
    latencies[e] = 1 + static_cast<int>((e * 5) % 9);
  }
  expect_bit_identical(topo, latencies, config, "uniform", 1);
}

TEST(SoaBitIdentity, ShallowBuffersRunOutOfCredits) {
  // 1- and 2-flit buffers under 4-flit packets: an output VC runs out of
  // credits mid-packet, so its holder stalls until a credit returns.
  SimConfig config = fast_config();
  config.injection_rate = 0.15;
  const topo::Topology topos[] = {topo::make_mesh(4, 4),
                                  topo::make_flattened_butterfly(4, 4)};
  for (const auto& topo : topos) {
    for (const int depth : {1, 2}) {
      config.buffer_depth_flits = depth;
      expect_bit_identical(topo, unit_latencies(topo), config, "uniform", 1,
                           false, "d" + std::to_string(depth));
    }
  }
  config.buffer_depth_flits = 1;
  const auto mesh = topo::make_mesh(4, 4);
  expect_bit_identical(mesh, unit_latencies(mesh), config, "transpose", 1,
                       /*live=*/true, "d1");
}

TEST(SoaBitIdentity, SaturatedOneAndTwoVcs) {
  // Past saturation on 1 and 2 VCs: most waiting heads find every
  // candidate output VC held and wait many cycles for one to free.
  SimConfig config = fast_config();
  config.injection_rate = 0.5;
  config.drain_cycles = 3000;
  const topo::Topology topos[] = {
      topo::make_mesh(4, 4), topo::make_sparse_hamming(4, 4, {2}, {2, 3})};
  for (const auto& topo : topos) {
    for (const int vcs : {1, 2}) {
      config.num_vcs = vcs;
      for (const char* spec : {"uniform", "transpose"}) {
        expect_bit_identical(topo, unit_latencies(topo), config, spec, 1,
                             false, "vc" + std::to_string(vcs));
      }
    }
  }
}

TEST(SoaBitIdentity, NineCycleLinksAtSaturation) {
  // 9-cycle links past saturation: flits and credits spend many cycles on
  // channels while the routers at both ends are full.
  const topo::Topology topos[] = {topo::make_torus(4, 4),
                                  topo::make_flattened_butterfly(4, 4)};
  SimConfig config = fast_config();
  config.injection_rate = 0.5;
  config.drain_cycles = 3000;
  for (const auto& topo : topos) {
    const std::vector<int> latencies(
        static_cast<std::size_t>(topo.graph().num_edges()), 9);
    expect_bit_identical(topo, latencies, config, "uniform", 1, false,
                         "lat9");
  }
}

TEST(SoaBitIdentity, MoreThanSixtyFourPortsPerRouter) {
  // Routers with 65 ports: a 2x64 flattened butterfly (64 network ports and
  // one endpoint port) and a 4x4 mesh with 61 endpoints per tile.
  SimConfig config = fast_config();
  config.injection_rate = 0.2;
  const auto fbfly = topo::make_flattened_butterfly(2, 64);
  expect_bit_identical(fbfly, unit_latencies(fbfly), config, "uniform", 1,
                       /*live=*/true);
  config.injection_rate = 0.01;
  config.warmup_cycles = 100;
  config.measure_cycles = 300;
  const auto mesh = topo::make_mesh(4, 4);
  expect_bit_identical(mesh, unit_latencies(mesh), config, "uniform", 61);
}

TEST(SoaBitIdentity, LiveRoutingWithoutTable) {
  // No route table: the engine calls the routing function per head flit.
  const auto topo = topo::make_mesh(5, 5);
  SimConfig config = fast_config();
  config.injection_rate = 0.05;
  expect_bit_identical(topo, unit_latencies(topo), config, "uniform", 1,
                       /*live=*/true);
}

TEST(SoaBitIdentity, QuiescentLowRateFastForward) {
  // Rate low enough that the fabric is empty most cycles: the engine
  // spends its time in quiescence fast-forward and must still reproduce
  // the recorded cycle count exactly.
  const auto topo = topo::make_mesh(4, 4);
  SimConfig config = fast_config();
  config.injection_rate = 0.001;
  config.warmup_cycles = 2000;
  config.measure_cycles = 6000;
  expect_bit_identical(topo, unit_latencies(topo), config, "uniform", 1);
}

TEST(SoaBitIdentity, SaturatedHotspot) {
  // Saturation exercises backpressure, credit stalls and the drain-phase
  // watchdog paths.
  const auto topo = topo::make_mesh(4, 4);
  SimConfig config = fast_config();
  config.injection_rate = 0.6;
  config.drain_cycles = 4000;
  expect_bit_identical(topo, unit_latencies(topo), config, "hotspot:5:0.8",
                       1);
}

TEST(SoaBitIdentity, ConcentratedMesh) {
  SimConfig config = fast_config();
  config.injection_rate = 0.03;
  for (int conc : {2, 4}) {
    const auto topo = topo::make_concentrated_mesh(4, 4, conc);
    SCOPED_TRACE(conc);
    expect_bit_identical(topo, unit_latencies(topo), config, "uniform", 1);
    if (conc == 4) {
      // The 4x4-router, c=4 terminal grid is the square 8x8 (2x2 sub-grids);
      // c=2 gives a 4x8 terminal grid, on which transpose is undefined.
      expect_bit_identical(topo, unit_latencies(topo), config, "transpose",
                           1);
    }
    expect_bit_identical(topo, unit_latencies(topo), config,
                         "hotspot:0,9:0.4", 1);
  }
}

TEST(SoaBitIdentity, OnOffOnConcentratedMesh) {
  // Bursty sources on a concentrated fabric: one on/off state per
  // terminal, sources ordered tile * 4 + port.
  const auto topo = topo::make_concentrated_mesh(4, 4, 4);
  SimConfig config = fast_config();
  config.injection_rate = 0.03;
  expect_bit_identical(topo, unit_latencies(topo), config,
                       "uniform/onoff:0.05,0.2", 1);
  expect_bit_identical(topo, unit_latencies(topo), config,
                       "transpose/onoff:0.1,0.3", 1);
}

TEST(SoaBitIdentity, ZeroTrafficRun) {
  // A rate so low the PRNG may never inject: the degenerate all-idle run
  // (cycles_run = generation end, drained) is pinned too.
  const auto topo = topo::make_mesh(3, 3);
  SimConfig config = fast_config();
  config.injection_rate = 1e-9;
  config.warmup_cycles = 50;
  config.measure_cycles = 100;
  const TrafficSpec spec = TrafficSpec::parse("uniform");
  const auto pattern = spec.make_pattern(3, 3);
  Simulator sim(topo, unit_latencies(topo), config, pattern.get(), 1);
  const SimResult s = sim.run();
  golden::expect_golden(golden::topo_label(topo) + " uniform", s);
}

/// Replays `trace` and requires exact SimResult equality with the golden
/// corpus — trace injection must preserve the bit-identity contract
/// exactly like the synthetic kinds do. Returns the run's result.
SimResult expect_trace_bit_identical(const topo::Topology& topo,
                                const SimConfig& config, const Trace& trace,
                                const std::string& what) {
  Simulator simulator(topo, unit_latencies(topo), config, nullptr, 1, nullptr,
                      Injection::trace(std::make_shared<const Trace>(trace)));
  const SimResult s = simulator.run();
  golden::expect_golden(what, s);
  EXPECT_GT(s.measured_packets, 0) << what;
  return s;
}

TEST(SoaBitIdentity, TraceReplayAcrossFamilies) {
  // A recorded synthetic trace replayed across families.
  SimConfig config = fast_config();
  config.injection_rate = 0.05;
  TraceRecordOptions opt;
  opt.rows = 4;
  opt.cols = 4;
  opt.injection_rate = config.injection_rate;
  opt.packet_size_flits = config.packet_size_flits;
  opt.cycles = config.warmup_cycles + config.measure_cycles;
  opt.seed = config.seed;
  const Trace trace =
      trace_from_spec(TrafficSpec::parse("hotspot:0,7:0.3/onoff:0.1,0.3"),
                      opt);
  for (const auto& topo :
       {topo::make_mesh(4, 4), topo::make_torus(4, 4),
        topo::make_flattened_butterfly(4, 4)}) {
    expect_trace_bit_identical(topo, config, trace, topo.name());
  }
}

TEST(SoaBitIdentity, TraceWithNonUnitMessageSizes) {
  // Message sizes that are not multiples of the packet size: messages of
  // 1..10 flits over 4-flit packets split into ceil(size/4) packets on
  // consecutive cycles.
  SimConfig config = fast_config();
  config.warmup_cycles = 0;  // the whole hand-built trace is measured
  Trace trace;
  trace.num_sources = 16;
  trace.num_terminals = 16;
  for (std::uint32_t i = 0; i < 160; ++i) {
    TraceRecord rec;
    rec.source = i % 16;
    rec.delta = 7;  // every source fires every 7th "time unit"
    rec.dest = (i * 5 + 3) % 16;
    rec.size_flits = 1 + i % 10;
    trace.records.push_back(rec);
  }
  // Interleave sources so reconstructed timestamps stay globally
  // nondecreasing: record i has absolute time 7 * (1 + i / 16).
  expect_trace_bit_identical(topo::make_mesh(4, 4), config, trace,
                             "non-unit sizes");
}

TEST(SoaBitIdentity, TraceWithDependencyStalledSources) {
  // Request/reply shape: every reply record depends on its request and
  // fires only after the request finished injecting.
  SimConfig config = fast_config();
  config.warmup_cycles = 0;  // the whole hand-built trace is measured
  Trace trace;
  trace.num_sources = 16;
  trace.num_terminals = 16;
  for (std::uint32_t i = 0; i < 60; ++i) {
    const std::uint32_t requester = (i * 3) % 8;       // sources 0..7
    const std::uint32_t responder = 8 + (i * 5) % 8;   // sources 8..15
    const std::uint64_t request_index = trace.records.size();
    TraceRecord request;
    request.source = requester;
    request.delta = 20;
    request.dest = responder;
    request.size_flits = 8;
    trace.records.push_back(request);
    TraceRecord reply;
    reply.source = responder;
    reply.delta = 20;
    reply.dest = requester;
    reply.size_flits = 16;
    reply.dep = request_index;
    trace.records.push_back(reply);
  }
  expect_trace_bit_identical(topo::make_mesh(4, 4), config, trace,
                             "dependency-stalled");
}

TEST(SoaBitIdentity, TraceDrainsToQuiescenceMidRun) {
  // Long idle gaps between bursts: the engine's whole-network quiescence
  // fast-forward must jump the gaps and still match the recorded cycle
  // count exactly.
  SimConfig config = fast_config();
  config.warmup_cycles = 100;
  config.measure_cycles = 2900;
  Trace trace;
  trace.num_sources = 16;
  trace.num_terminals = 16;
  for (const std::uint32_t burst_start : {0u, 1100u, 2500u}) {
    for (std::uint32_t i = 0; i < 16; ++i) {
      TraceRecord rec;
      rec.source = i;
      rec.delta = burst_start == 0 ? 0 : 1100 + (burst_start == 2500 ? 300 : 0);
      rec.dest = 15 - i;
      rec.size_flits = 4;
      trace.records.push_back(rec);
    }
  }
  expect_trace_bit_identical(topo::make_mesh(4, 4), config, trace,
                             "quiescent gaps");
}

TEST(SoaBitIdentity, TraceReplayOnConcentratedMesh) {
  // Destinations are terminal ids on the 8x8 terminal grid of a c=4
  // 4x4-router mesh, and sources are tile * 4 + port.
  const auto topo = topo::make_concentrated_mesh(4, 4, 4);
  SimConfig config = fast_config();
  config.injection_rate = 0.03;
  TraceRecordOptions opt;
  opt.rows = 4;
  opt.cols = 4;
  opt.concentration = 4;
  opt.injection_rate = config.injection_rate;
  opt.packet_size_flits = config.packet_size_flits;
  opt.cycles = config.warmup_cycles + config.measure_cycles;
  opt.seed = config.seed;
  const Trace trace = trace_from_spec(
      TrafficSpec::parse("hotspot:0,9:0.4/onoff:0.1,0.3"), opt);
  expect_trace_bit_identical(topo, config, trace, "c4 hotspot onoff");
}

/// Counts the packets `trace` schedules inside the measurement window of
/// `config` on a grid of `packet_size_flits`-flit packets, skipping
/// records addressed to their own source tile (unconcentrated grids with
/// one endpoint per tile, where source id == tile id).
long long measured_trace_packets(const Trace& trace, const SimConfig& config) {
  std::vector<std::uint64_t> last(trace.num_sources, 0);
  std::vector<Cycle> next_free(trace.num_sources, 0);
  long long count = 0;
  for (const TraceRecord& rec : trace.records) {
    last[rec.source] += rec.delta;
    Cycle start = std::max(static_cast<Cycle>(last[rec.source]),
                           next_free[rec.source]);
    const Cycle packets = (rec.size_flits + config.packet_size_flits - 1) /
                          config.packet_size_flits;
    for (Cycle k = 0; k < packets; ++k, ++start) {
      if (rec.dest != rec.source && start >= config.warmup_cycles &&
          start < config.warmup_cycles + config.measure_cycles) {
        ++count;
      }
    }
    next_free[rec.source] = start;
  }
  return count;
}

TEST(SoaBitIdentity, TraceScheduledPastGenerationWindow) {
  // Records run 400 cycles past warmup + measure (1200 cycles), and the
  // 3-packet messages at cycle 1198 straddle its end: only packets whose
  // cycle falls inside the window are injected.
  SimConfig config = fast_config();
  Trace trace;
  trace.num_sources = 16;
  trace.num_terminals = 16;
  for (std::uint32_t k = 0; 38 + 40 * k <= 1600; ++k) {
    for (std::uint32_t s = 0; s < 16; ++s) {
      TraceRecord rec;
      rec.source = s;
      rec.delta = k == 0 ? 38 : 40;
      rec.dest = (s + 1 + k % 15) % 16;
      rec.size_flits = 4 * (1 + s % 3);
      trace.records.push_back(rec);
    }
  }
  const SimResult s = expect_trace_bit_identical(
      topo::make_mesh(4, 4), config, trace, "past the window");
  EXPECT_EQ(s.measured_packets, measured_trace_packets(trace, config));
}

TEST(SoaBitIdentity, TraceRecordToItsOwnSourceIsSkipped) {
  // Every third record is addressed to its own source: like a fixed point
  // of a permutation, it is scheduled but never injected.
  SimConfig config = fast_config();
  Trace trace;
  trace.num_sources = 16;
  trace.num_terminals = 16;
  for (std::uint32_t k = 0; k < 40; ++k) {
    for (std::uint32_t s = 0; s < 16; ++s) {
      TraceRecord rec;
      rec.source = s;
      rec.delta = k == 0 ? 0 : 30;
      rec.dest = (s + k) % 3 == 0 ? s : (s + 1 + (k * 7) % 15) % 16;
      rec.size_flits = 4;
      trace.records.push_back(rec);
    }
  }
  const SimResult s = expect_trace_bit_identical(
      topo::make_mesh(4, 4), config, trace, "self-addressed records");
  EXPECT_EQ(s.measured_packets, measured_trace_packets(trace, config));
}

TEST(Concentration, TerminalMappingRoundTrips) {
  for (int factor : {1, 2, 3, 4, 6, 8, 9}) {
    const Concentration conc = Concentration::make(3, 5, factor);
    EXPECT_EQ(conc.sub_rows * conc.sub_cols, factor);
    EXPECT_LE(conc.sub_rows, conc.sub_cols);
    EXPECT_EQ(conc.terminals(), 3 * 5 * factor);
    for (int tile = 0; tile < 15; ++tile) {
      for (int port = 0; port < factor; ++port) {
        const int term = conc.terminal(tile, port);
        EXPECT_GE(term, 0);
        EXPECT_LT(term, conc.terminals());
        EXPECT_EQ(conc.tile_of(term), tile);
        EXPECT_EQ(conc.port_of(term), port);
      }
    }
  }
}

TEST(Concentration, DegenerateFactorOneIsIdentity) {
  const Concentration conc = Concentration::make(4, 4, 1);
  for (int tile = 0; tile < 16; ++tile) {
    EXPECT_EQ(conc.terminal(tile, 0), tile);
    EXPECT_EQ(conc.tile_of(tile), tile);
    EXPECT_EQ(conc.port_of(tile), 0);
  }
}

TEST(Concentration, ConcentratedMeshCarriesFactor) {
  const auto topo = topo::make_concentrated_mesh(4, 4, 4);
  EXPECT_EQ(topo.concentration(), 4);
  EXPECT_EQ(topo.num_tiles(), 16);
  // The link graph is the plain mesh.
  EXPECT_EQ(topo.graph().num_edges(),
            topo::make_mesh(4, 4).graph().num_edges());
}

TEST(Concentration, SimulatorRejectsMultiEndpointConcentration) {
  const auto topo = topo::make_concentrated_mesh(4, 4, 2);
  SimConfig config = fast_config();
  const auto pattern = TrafficSpec::parse("uniform").make_pattern(4, 4, 2);
  EXPECT_THROW(
      Simulator(topo, unit_latencies(topo), config, pattern.get(), 2),
      shg::Error);
}

}  // namespace
}  // namespace shg::sim
