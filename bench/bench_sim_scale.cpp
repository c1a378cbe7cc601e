// Simulator raw-speed benchmark: absolute throughput of the simulation
// engine (flat state slabs, active-router worklist, quiescence
// fast-forward) across fabric sizes and workloads.
//
// Grid: {10x10, 32x32, 64x64} meshes x {uniform, hotspot, onoff}, each row
// reporting simulated flits per second. The simulator picks the route table
// by size (sim::kMaxRouteTableRows): 64x64 is above the budget and routes
// live (the all-pairs table is the scaling wall there), the smaller tiers
// build a table; each row records which. A concentrated 16x16 c=4 row
// (same 1024 terminals as the 32x32 mesh on a quarter of the routers)
// tracks the concentration path.
//
// A routing-policy section saturates 32x32 fabrics (mesh and torus) under
// the two adversarial workloads (hotspot, transpose) with minimal and UGAL
// routing at identical VC/buffer resources and compares the accepted load.
// The per-row ratios tell the expected story: UGAL wins where minimal
// routing lacks path diversity (torus DOR under transpose, mesh hotspot
// trees) and can lose past deep saturation where its local occupancy
// signal goes stale — all four rows ship in the JSON so the trade-off
// stays visible.
//
// Acceptance gates (non-zero exit so CI can gate on the smoke run). Both
// are simulated quantities, deterministic for the fixed seeds, so the
// verdict does not depend on the machine:
//  * the 64x64 tiers must drain (the scale target actually completes);
//  * UGAL sustains >= 1.5x the minimal-routing accepted load at saturation
//    on at least one 32x32 adversarial row (adaptivity must pay off).
// Bit-identity of the results is pinned by the golden corpus tests
// (tests/golden/), not here.
//
// Output: a human-readable table on stdout and machine-readable JSON
// (default BENCH_sim.json; see --out). `--smoke` shrinks the simulated
// cycle counts for CI — absolute flits/sec get noisier. Both end with the
// process's peak resident set (getrusage ru_maxrss), a trend field no gate
// reads.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "shg/sim/simulator.hpp"
#include "shg/sim/traffic_spec.hpp"
#include "shg/topo/generators.hpp"

namespace {

using namespace shg;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<int> unit_latencies(const topo::Topology& topo) {
  return std::vector<int>(static_cast<std::size_t>(topo.graph().num_edges()),
                          1);
}

struct Row {
  std::string fabric;
  std::string workload;
  double seconds = 0.0;
  long long flits = 0;  ///< measured flits
  bool drained = false;
  bool route_table = false;  ///< the simulator built a route table

  double flits_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(flits) / seconds : 0.0;
  }
};

void print_row(const Row& r) {
  std::printf("%-14s %-22s  %8.3f s  %10.0f flits/s  %-5s  %s\n",
              r.fabric.c_str(), r.workload.c_str(), r.seconds,
              r.flits_per_sec(), r.route_table ? "table" : "live",
              r.drained ? "drained" : "UNDRAINED");
}

struct Tier {
  std::string fabric;
  topo::Topology topo;
  double rate;
  int reps;        ///< timing reps (min-of-reps)
};

Row run_tier(const Tier& tier, const std::string& workload, bool smoke) {
  const sim::TrafficSpec spec = sim::TrafficSpec::parse(workload);
  const auto pattern =
      spec.make_pattern(tier.topo.rows(), tier.topo.cols(),
                        tier.topo.concentration());
  const std::vector<int> latencies = unit_latencies(tier.topo);

  sim::SimConfig config;
  config.num_vcs = 2;
  config.buffer_depth_flits = 4;
  config.injection_rate = tier.rate;
  config.warmup_cycles = smoke ? 200 : 500;
  config.measure_cycles = smoke ? 600 : 2000;

  Row row;
  row.fabric = tier.fabric;
  row.workload = workload;

  sim::SimResult result;
  row.seconds = std::numeric_limits<double>::infinity();
  for (int r = 0; r < tier.reps; ++r) {
    // Construction (route-table build included) happens outside the timer:
    // the table is a per-topology artifact sweeps amortize, the run loop is
    // what this benchmark tracks.
    sim::Simulator sim(tier.topo, latencies, config, pattern.get(), 1, nullptr,
                       spec.injection());
    row.route_table = sim.route_table() != nullptr;
    const auto t0 = Clock::now();
    result = sim.run();
    row.seconds = std::min(row.seconds, seconds_since(t0));
  }
  row.flits = result.measured_packets *
              static_cast<long long>(config.packet_size_flits);
  row.drained = result.drained;
  return row;
}

// --- Routing-policy saturation comparison (the v3 section) ---------------

struct SatRow {
  std::string fabric;
  std::string workload;
  double minimal_accepted = 0.0;  ///< flits / cycle / endpoint port
  double ugal_accepted = 0.0;
  double ratio() const {
    return minimal_accepted > 0.0 ? ugal_accepted / minimal_accepted : 0.0;
  }
};

/// One saturated run; returns the accepted load (flits/cycle/port)
/// measured past the saturation point. Both policies get identical VC and
/// buffer resources (the UGAL floor of 4 VCs), so the comparison isolates
/// the routing decision. At 32x32 and 4 VCs both fabrics are above the
/// route-table row budget, so both sides route live.
double run_saturated(const topo::Topology& topo, sim::RoutingPolicy policy,
                     const std::string& workload, double rate, bool smoke) {
  const sim::TrafficSpec spec = sim::TrafficSpec::parse(workload);
  const auto pattern =
      spec.make_pattern(topo.rows(), topo.cols(), topo.concentration());
  const std::vector<int> latencies = unit_latencies(topo);

  sim::SimConfig config;
  config.num_vcs = 4;
  config.buffer_depth_flits = 4;
  config.injection_rate = rate;
  config.warmup_cycles = smoke ? 300 : 1000;
  config.measure_cycles = smoke ? 600 : 2000;
  config.drain_cycles = smoke ? 500 : 2000;  // saturated runs rarely drain;
                                             // cap the tail, it is not gated
  config.routing_policy = policy;

  sim::Simulator s(topo, latencies, config, pattern.get(), 1, nullptr,
                   spec.injection());
  return s.run().accepted_rate;
}

void append_json(std::string& json, const Row& r) {
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                "    {\"fabric\": \"%s\", \"workload\": \"%s\", "
                "\"seconds\": %.6f, \"flits_per_sec\": %.0f, "
                "\"flits\": %lld, \"drained\": %s, \"route_table\": %s}",
                r.fabric.c_str(), r.workload.c_str(), r.seconds,
                r.flits_per_sec(), r.flits, r.drained ? "true" : "false",
                r.route_table ? "true" : "false");
  if (!json.empty()) json += ",\n";
  json += buf;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_sim.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::printf("usage: bench_sim_scale [--smoke] [--out file.json]\n");
      return 2;
    }
  }

  std::printf("=== bench_sim_scale (%s mode) ===\n",
              smoke ? "smoke" : "full");

  // Hotspot ids scale with the fabric (two hot tiles, one corner-ish and
  // one central); onoff keeps the same burst shape everywhere.
  auto workloads = [](int num_terminals) {
    return std::vector<std::string>{
        "uniform",
        "hotspot:0," + std::to_string(num_terminals / 2) + ":0.3",
        "uniform/onoff:0.05,0.2",
    };
  };

  std::vector<Tier> tiers;
  tiers.push_back({"mesh-10x10", topo::make_mesh(10, 10), /*rate=*/0.05,
                   /*reps=*/smoke ? 1 : 3});
  tiers.push_back({"mesh-32x32", topo::make_mesh(32, 32), /*rate=*/0.02,
                   /*reps=*/smoke ? 2 : 3});
  tiers.push_back({"cmesh-16x16x4", topo::make_concentrated_mesh(16, 16, 4),
                   /*rate=*/0.01, /*reps=*/smoke ? 1 : 2});
  tiers.push_back({"mesh-64x64", topo::make_mesh(64, 64), /*rate=*/0.01,
                   /*reps=*/1});

  std::vector<Row> rows;
  bool scale_drained = true;
  for (const Tier& tier : tiers) {
    for (const std::string& workload :
         workloads(tier.topo.num_tiles() * tier.topo.concentration())) {
      rows.push_back(run_tier(tier, workload, smoke));
      print_row(rows.back());
      if (tier.fabric == "mesh-64x64") {
        scale_drained = scale_drained && rows.back().drained;
      }
    }
  }

  // Routing-policy saturation section: minimal vs UGAL accepted load past
  // saturation, adversarial workloads only (uniform is minimal routing's
  // best case and not what adaptivity is for). Both 32x32 fabrics run both
  // workloads: the torus pairs transpose with single-path DOR (UGAL's win
  // case), the mesh pairs hotspot with O1TURN congestion trees.
  std::printf("--- routing policy at saturation (32x32, 4 VCs) ---\n");
  const std::vector<std::pair<std::string, topo::Topology>> sat_fabrics = [] {
    std::vector<std::pair<std::string, topo::Topology>> fabrics;
    fabrics.emplace_back("mesh-32x32", topo::make_mesh(32, 32));
    fabrics.emplace_back("torus-32x32", topo::make_torus(32, 32));
    return fabrics;
  }();
  const std::vector<std::pair<std::string, double>> sat_workloads = {
      {"hotspot:0,528:0.3", 0.30},
      {"transpose", 0.30},
  };
  std::vector<SatRow> sat_rows;
  double best_ratio = 0.0;
  for (const auto& [fabric, sat_topo] : sat_fabrics) {
    for (const auto& [workload, rate] : sat_workloads) {
      SatRow sat;
      sat.fabric = fabric;
      sat.workload = workload;
      sat.minimal_accepted = run_saturated(
          sat_topo, sim::RoutingPolicy::kMinimal, workload, rate, smoke);
      sat.ugal_accepted = run_saturated(
          sat_topo, sim::RoutingPolicy::kUgal, workload, rate, smoke);
      best_ratio = std::max(best_ratio, sat.ratio());
      std::printf("%-12s %-22s  minimal %.4f  ugal %.4f  (%.2fx)\n",
                  sat.fabric.c_str(), sat.workload.c_str(),
                  sat.minimal_accepted, sat.ugal_accepted, sat.ratio());
      sat_rows.push_back(sat);
    }
  }
  std::printf("best ugal-over-minimal accepted load: %.2fx (gate: 1.5x)\n",
              best_ratio);
  const double rss_mb = peak_rss_mb();
  std::printf("peak resident set: %.1f MB (trend, not gated)\n", rss_mb);

  std::string entries;
  for (const Row& r : rows) append_json(entries, r);
  std::string sat_entries;
  for (const SatRow& sat : sat_rows) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"fabric\": \"%s\", \"workload\": \"%s\", "
                  "\"minimal_accepted\": %.6f, "
                  "\"ugal_accepted\": %.6f, \"ratio\": %.3f}",
                  sat.fabric.c_str(), sat.workload.c_str(),
                  sat.minimal_accepted, sat.ugal_accepted, sat.ratio());
    if (!sat_entries.empty()) sat_entries += ",\n";
    sat_entries += buf;
  }
  std::ofstream out(out_path);
  out << "{\n  \"schema\": \"shg.bench_sim_scale.v6\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"scale_64x64_drained\": " << (scale_drained ? "true" : "false")
      << ",\n"
      << "  \"ugal_best_ratio\": " << best_ratio << ",\n"
      << "  \"peak_rss_mb\": " << rss_mb << ",\n"
      << "  \"rows\": [\n"
      << entries << "\n  ],\n"
      << "  \"routing_saturation\": [\n"
      << sat_entries << "\n  ]\n}\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "error: could not write %s\n", out_path.c_str());
    return 2;
  }
  std::printf("wrote %s\n", out_path.c_str());

  if (!scale_drained) {
    std::fprintf(stderr, "FAIL: a 64x64 run did not drain\n");
    return 1;
  }
  if (best_ratio < 1.5) {
    std::fprintf(stderr,
                 "FAIL: UGAL best accepted-load ratio %.2fx below the 1.5x "
                 "acceptance bar (adaptivity is not paying off)\n",
                 best_ratio);
    return 1;
  }
  return 0;
}
