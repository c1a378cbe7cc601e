// Trace-replay benchmark + determinism gates.
//
// Records a multi-family trace campaign (trace_from_spec), replays it
// through the experiment engine via `trace:<path>` traffic specs, and
// gates the replay determinism contract — the process exits non-zero on
// any violation so CI can gate on the smoke run:
//
//  1. differential replay — for each recorded family, the trace replayed
//     through sim::Injection::trace is bit-identical to the live synthetic
//     run;
//  2. worker counts — the trace campaign report is byte-identical with
//     one worker and the default worker count;
//  3. warm campaign — a warm re-run against a session performs ZERO
//     simulations and its reports are byte-identical to the session-free
//     run (the trace content hash keys the cells, so replays hit);
//  4. shard merge — the campaign split across two run_experiment_shard
//     workers exchanging shard files, then merged: zero simulations,
//     byte-identical reports.
//
// Timings compare live synthetic generation against trace replay (the
// replay schedule is precomputed, so replay skips every RNG draw).
//
// Output: a table on stdout + machine-readable JSON (schema
// "shg.bench_trace.v1", default BENCH_trace.json; see --out). `--smoke`
// shrinks the simulated cycle counts for CI.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "shg/common/parallel.hpp"
#include "shg/customize/session.hpp"
#include "shg/eval/experiment.hpp"
#include "shg/sim/simulator.hpp"
#include "shg/sim/trace.hpp"
#include "shg/sim/traffic_spec.hpp"
#include "shg/topo/generators.hpp"

namespace {

using namespace shg;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Family {
  const char* spec;
  const char* slug;  // file-name-safe label
};

constexpr Family kFamilies[] = {
    {"uniform", "uniform"},
    {"hotspot:0,7:0.25", "hotspot"},
    {"transpose/onoff:0.05,0.2", "transpose-onoff"},
};

bool results_identical(const sim::SimResult& a, const sim::SimResult& b) {
  return a.offered_rate == b.offered_rate &&
         a.accepted_rate == b.accepted_rate &&
         a.avg_packet_latency == b.avg_packet_latency &&
         a.p99_packet_latency == b.p99_packet_latency &&
         a.avg_hops == b.avg_hops && a.measured_packets == b.measured_packets &&
         a.drained == b.drained;
}

bool reports_identical(const eval::ExperimentReport& a,
                       const eval::ExperimentReport& b) {
  return eval::experiment_to_json(a) == eval::experiment_to_json(b) &&
         eval::experiment_to_csv(a) == eval::experiment_to_csv(b);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_trace.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::printf("usage: bench_trace [--smoke] [--out file.json]\n");
      return 2;
    }
  }

  const int rows = 8;
  const int cols = 8;
  sim::TraceRecordOptions rec;
  rec.rows = rows;
  rec.cols = cols;
  rec.injection_rate = 0.10;
  rec.seed = 1;

  eval::PerfConfig config;
  config.sim.num_vcs = 2;
  config.sim.buffer_depth_flits = 4;
  config.sim.injection_rate = rec.injection_rate;
  config.sim.warmup_cycles = smoke ? 150 : 500;
  config.sim.measure_cycles = smoke ? 400 : 1500;
  // Record exactly the live generation window (warmup + measure) with the
  // live packet size so the replayed schedule matches the synthetic run
  // packet for packet.
  rec.cycles = config.sim.warmup_cycles + config.sim.measure_cycles;
  rec.packet_size_flits = config.sim.packet_size_flits;
  config.sim.drain_cycles = smoke ? 6000 : 15000;
  config.sim.seed = rec.seed;

  std::printf("=== bench_trace (%s mode, %dx%d grid) ===\n",
              smoke ? "smoke" : "full", rows, cols);

  // -- Gate 1: differential replay identity. -----------------------------
  const auto topology = topo::make_mesh(rows, cols);
  const std::vector<int> latencies(
      static_cast<std::size_t>(topology.graph().num_edges()), 1);
  bool differential_ok = true;
  double live_seconds = 0.0;
  double replay_seconds = 0.0;
  std::vector<std::string> trace_paths;
  for (const Family& family : kFamilies) {
    const sim::TrafficSpec spec = sim::TrafficSpec::parse(family.spec);
    const sim::Trace trace = sim::trace_from_spec(spec, rec);
    const std::string path =
        out_path + "." + family.slug + ".trace";
    sim::save_trace(trace, path);
    trace_paths.push_back(path);
    const auto shared = std::make_shared<const sim::Trace>(trace);

    // Live: the synthetic pattern and injection the trace was recorded
    // from, running its own RNG draws.
    const auto pattern = spec.make_pattern(rows, cols);
    auto t0 = Clock::now();
    sim::Simulator live(topology, latencies, config.sim, pattern.get(), 1,
                        nullptr, spec.injection());
    const sim::SimResult live_result = live.run();
    live_seconds += seconds_since(t0);

    // Replay: pure function of the trace bytes, zero RNG draws.
    t0 = Clock::now();
    sim::Simulator replay(topology, latencies, config.sim, nullptr, 1,
                          nullptr, sim::Injection::trace(shared));
    const sim::SimResult replay_result = replay.run();
    replay_seconds += seconds_since(t0);

    if (!results_identical(live_result, replay_result) ||
        live_result.measured_packets <= 0) {
      std::fprintf(stderr, "FAIL: %s replay diverged from the live run\n",
                   family.spec);
      differential_ok = false;
    }
  }
  std::printf("live_synthetic  %8.3f s  (%zu families)\n", live_seconds,
              std::size(kFamilies));
  std::printf("trace_replay    %8.3f s  (precomputed schedules)\n",
              replay_seconds);
  std::printf("replay == live: %s\n",
              differential_ok ? "yes" : "NO — BUG");

  // -- Trace campaign: every family as a trace: spec through the engine.
  eval::ExperimentSpec spec;
  spec.name = "bench-trace-campaign";
  spec.topologies.push_back(eval::TopologyCase{topology, {}, ""});
  spec.topologies.push_back(
      eval::TopologyCase{topo::make_torus(rows, cols), {}, ""});
  for (const std::string& path : trace_paths) {
    spec.traffic.push_back(eval::TrafficCase{"trace:" + path, ""});
  }
  spec.rates = {rec.injection_rate};
  spec.seeds = {1, 2};
  spec.config = config;

  set_max_threads(1);
  auto t0 = Clock::now();
  const eval::ExperimentReport serial_report = eval::run_experiment(spec);
  const double serial_seconds = seconds_since(t0);
  set_max_threads(0);
  t0 = Clock::now();
  const eval::ExperimentReport batched_report = eval::run_experiment(spec);
  const double batched_seconds = seconds_since(t0);
  const bool workers_identical =
      reports_identical(serial_report, batched_report);
  std::printf("campaign_serial %8.3f s / campaign_batched %8.3f s\n",
              serial_seconds, batched_seconds);
  std::printf("serial == batched trace reports: %s\n",
              workers_identical ? "yes" : "NO — BUG");

  // -- Gate 3: warm trace campaign performs zero simulations. ------------
  customize::Session session;
  eval::ExperimentSpec warm_spec = spec;
  warm_spec.session = &session;
  const eval::ExperimentReport cold_report = eval::run_experiment(warm_spec);
  const eval::ExperimentReport warm_report = eval::run_experiment(warm_spec);
  const bool warm_ok = warm_report.sim_simulated == 0 &&
                       reports_identical(batched_report, cold_report) &&
                       reports_identical(batched_report, warm_report);
  std::printf("warm trace campaign: %zu simulated (want 0), identical: %s\n",
              warm_report.sim_simulated, warm_ok ? "yes" : "NO — BUG");

  // -- Gate 4: shard/merge over trace cells. -----------------------------
  const std::string shard_paths[2] = {out_path + ".shard0.cache",
                                      out_path + ".shard1.cache"};
  for (int s = 0; s < 2; ++s) {
    customize::Session worker;
    eval::ExperimentSpec worker_spec = spec;
    worker_spec.session = &worker;
    eval::run_experiment_shard(worker_spec, s, 2);
    worker.sim_cache().save_file(shard_paths[s]);
  }
  customize::Session merge_session;
  for (const std::string& path : shard_paths) {
    merge_session.sim_cache().load_file(path);
  }
  eval::ExperimentSpec merge_spec = spec;
  merge_spec.session = &merge_session;
  const eval::ExperimentReport merge_report = eval::run_experiment(merge_spec);
  const bool merge_ok = merge_report.sim_simulated == 0 &&
                        reports_identical(batched_report, merge_report);
  std::printf("2-shard trace merge: %zu simulated (want 0), identical: %s\n",
              merge_report.sim_simulated, merge_ok ? "yes" : "NO — BUG");

  for (const std::string& path : shard_paths) std::remove(path.c_str());
  for (const std::string& path : trace_paths) std::remove(path.c_str());

  std::ofstream out(out_path);
  out << "{\n  \"schema\": \"shg.bench_trace.v1\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"live_seconds\": " << live_seconds << ",\n"
      << "  \"replay_seconds\": " << replay_seconds << ",\n"
      << "  \"campaign_serial_seconds\": " << serial_seconds << ",\n"
      << "  \"campaign_batched_seconds\": " << batched_seconds << ",\n"
      << "  \"differential_identical\": "
      << (differential_ok ? "true" : "false") << ",\n"
      << "  \"workers_identical\": " << (workers_identical ? "true" : "false")
      << ",\n"
      << "  \"warm_simulated\": " << warm_report.sim_simulated << ",\n"
      << "  \"warm_identical\": " << (warm_ok ? "true" : "false") << ",\n"
      << "  \"shard_merge_simulated\": " << merge_report.sim_simulated
      << ",\n"
      << "  \"shard_merge_identical\": " << (merge_ok ? "true" : "false")
      << "\n}\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "error: could not write %s\n", out_path.c_str());
    return 2;
  }
  std::printf("wrote %s\n", out_path.c_str());

  if (!differential_ok || !workers_identical || !warm_ok || !merge_ok) {
    return 1;
  }
  return 0;
}
