// Workload-engine benchmark: batched vs serial experiment throughput.
//
// Runs one Figure-6-class experiment — 4 topologies x 3 traffic specs x
// 5 rates x 3 seeds = 180 simulations on an 8x8 KNC-class fabric — two
// ways:
//
//  1. engine_serial — the experiment engine pinned to one worker
//     (set_max_threads(1));
//  2. engine_batched — the engine at the default worker count: adds the
//     parallel_for fan-out win.
//
// The engine_serial and engine_batched reports must be identical — the
// engine's determinism contract — and the process exits non-zero if they
// are not, so CI can gate on the smoke run. The acceptance target for
// the workload-engine PR is >= 2x engine_serial / engine_batched
// wall-clock on a 4-core runner.
//
// Two more sections exercise the session simulation-result tier:
//
//  3. warm campaign — the same campaign run cold into a fresh session,
//     then re-run warm against it. Gates: the warm run performs ZERO
//     simulations and adds ZERO session artifact misses (every route table
//     is a hit), and its JSON and CSV reports are byte-identical to the
//     session-free run's. The cold/warm speedup is printed and kept in the
//     JSON, but not gated: a wall-clock ratio depends on the machine and
//     shrinks whenever the simulator gets faster;
//  4. shard merge — the campaign split across two `run_experiment_shard`
//     workers exchanging `shg.cache.v1` shard files, then merged into one
//     session. Gates: the merge run performs zero simulations and its
//     reports are byte-identical to the single-process run's.
//
// Output: a table on stdout + machine-readable JSON (schema
// "shg.bench_workloads.v4", default BENCH_workloads.json; see --out).
// `--smoke` shrinks the simulated cycle counts for CI; ratios stay
// meaningful.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "shg/common/parallel.hpp"
#include "shg/customize/session.hpp"
#include "shg/eval/experiment.hpp"
#include "shg/topo/generators.hpp"
#include "shg/topo/registry.hpp"

namespace {

using namespace shg;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

eval::ExperimentSpec make_spec(bool smoke) {
  eval::ExperimentSpec spec;
  spec.name = "bench-workloads-8x8";
  const int rows = 8;
  const int cols = 8;
  spec.topologies.push_back(
      eval::TopologyCase{topo::make_mesh(rows, cols), {}, ""});
  spec.topologies.push_back(
      eval::TopologyCase{topo::make_torus(rows, cols), {}, ""});
  spec.topologies.push_back(eval::TopologyCase{
      topo::make_flattened_butterfly(rows, cols), {}, ""});
  spec.topologies.push_back(eval::TopologyCase{
      topo::make_sparse_hamming(rows, cols, {4}, {2, 5}), {}, ""});
  for (const char* workload :
       {"uniform", "transpose", "hotspot:0,7:0.2/onoff:0.05,0.15"}) {
    spec.traffic.push_back(eval::TrafficCase{workload, ""});
  }
  spec.rates = {0.02, 0.05, 0.10, 0.15, 0.20};
  spec.seeds = {1, 2, 3};
  spec.config.sim.warmup_cycles = smoke ? 150 : 500;
  spec.config.sim.measure_cycles = smoke ? 400 : 1500;
  spec.config.sim.drain_cycles = smoke ? 6000 : 15000;
  return spec;
}

bool reports_identical(const eval::ExperimentReport& a,
                       const eval::ExperimentReport& b) {
  return eval::experiment_to_json(a) == eval::experiment_to_json(b) &&
         eval::experiment_to_csv(a) == eval::experiment_to_csv(b);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_workloads.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::printf("usage: bench_workloads [--smoke] [--out file.json]\n");
      return 2;
    }
  }

  const eval::ExperimentSpec spec = make_spec(smoke);
  const std::size_t sims = spec.topologies.size() * spec.traffic.size() *
                           spec.rates.size() * spec.seeds.size();
  const int threads = max_threads();
  std::printf("=== bench_workloads (%s mode, %zu sims, %d threads) ===\n",
              smoke ? "smoke" : "full", sims, threads);

  set_max_threads(1);
  auto t0 = Clock::now();
  const eval::ExperimentReport serial_report = eval::run_experiment(spec);
  const double serial_seconds = seconds_since(t0);
  std::printf("engine_serial   %8.3f s  (shared tables, 1 worker)\n",
              serial_seconds);

  set_max_threads(0);
  t0 = Clock::now();
  const eval::ExperimentReport batched_report = eval::run_experiment(spec);
  const double batched_seconds = seconds_since(t0);
  std::printf("engine_batched  %8.3f s  (shared tables, %d workers)\n",
              batched_seconds, threads);

  const bool identical = reports_identical(serial_report, batched_report);
  const double batching_speedup =
      batched_seconds > 0.0 ? serial_seconds / batched_seconds : 0.0;
  std::printf("serial == batched reports: %s\n", identical ? "yes"
                                                           : "NO — BUG");
  std::printf("batching speedup (engine serial/batched): %.2fx\n",
              batching_speedup);

  // -- Warm campaign: cold fill of a fresh session, then a warm re-run. --
  eval::ExperimentSpec warm_spec = spec;
  customize::Session session;
  warm_spec.session = &session;

  t0 = Clock::now();
  const eval::ExperimentReport cold_report = eval::run_experiment(warm_spec);
  const double cold_seconds = seconds_since(t0);
  std::printf("campaign_cold   %8.3f s  (fresh session, %zu simulated)\n",
              cold_seconds, cold_report.sim_simulated);

  const std::uint64_t misses_before_warm = session.artifact_misses();
  t0 = Clock::now();
  const eval::ExperimentReport warm_report = eval::run_experiment(warm_spec);
  const double warm_seconds = seconds_since(t0);
  const std::uint64_t warm_misses =
      session.artifact_misses() - misses_before_warm;
  std::printf(
      "campaign_warm   %8.3f s  (result tier, %zu simulated, %llu artifact "
      "misses)\n",
      warm_seconds, warm_report.sim_simulated,
      static_cast<unsigned long long>(warm_misses));

  const bool warm_zero_sims = warm_report.sim_simulated == 0;
  // The session-attached reports (cold AND warm) must match the
  // session-free run byte for byte — hits return exact cold bits and the
  // tier never leaks into the rendered report.
  const bool warm_identical = reports_identical(batched_report, cold_report) &&
                              reports_identical(batched_report, warm_report);
  const double warm_speedup =
      warm_seconds > 0.0 ? cold_seconds / warm_seconds : 0.0;
  std::printf("warm == cold == session-free reports: %s\n",
              warm_identical ? "yes" : "NO — BUG");
  std::printf("warm-campaign speedup (cold/warm):        %.2fx (not gated)\n",
              warm_speedup);

  // -- Shard merge: two workers exchanging shard files, then a merge. --
  const std::string shard_paths[2] = {out_path + ".shard0.cache",
                                      out_path + ".shard1.cache"};
  std::size_t shard_simulated = 0;
  for (int s = 0; s < 2; ++s) {
    customize::Session worker;
    eval::ExperimentSpec worker_spec = spec;
    worker_spec.session = &worker;
    const eval::ShardRunStats stats =
        eval::run_experiment_shard(worker_spec, s, 2);
    shard_simulated += stats.simulated;
    worker.sim_cache().save_file(shard_paths[s]);
  }
  customize::Session merge_session;
  for (const std::string& path : shard_paths) {
    merge_session.sim_cache().load_file(path);
  }
  eval::ExperimentSpec merge_spec = spec;
  merge_spec.session = &merge_session;
  const eval::ExperimentReport merge_report = eval::run_experiment(merge_spec);
  for (const std::string& path : shard_paths) std::remove(path.c_str());

  const bool merge_zero_sims = merge_report.sim_simulated == 0;
  const bool merge_identical = reports_identical(batched_report, merge_report);
  std::printf(
      "2-shard merge: workers simulated %zu cells, merge simulated %zu, "
      "report identical to single-process: %s\n",
      shard_simulated, merge_report.sim_simulated,
      merge_identical ? "yes" : "NO — BUG");

  std::ofstream out(out_path);
  out << "{\n  \"schema\": \"shg.bench_workloads.v4\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"threads\": " << threads << ",\n"
      << "  \"sims\": " << sims << ",\n"
      << "  \"engine_serial_seconds\": " << serial_seconds << ",\n"
      << "  \"engine_batched_seconds\": " << batched_seconds << ",\n"
      << "  \"batching_speedup\": " << batching_speedup << ",\n"
      << "  \"reports_identical\": " << (identical ? "true" : "false")
      << ",\n"
      << "  \"campaign_cold_seconds\": " << cold_seconds << ",\n"
      << "  \"campaign_warm_seconds\": " << warm_seconds << ",\n"
      << "  \"warm_speedup\": " << warm_speedup << ",\n"
      << "  \"warm_simulated\": " << warm_report.sim_simulated << ",\n"
      << "  \"warm_artifact_misses\": " << warm_misses << ",\n"
      << "  \"warm_identical\": " << (warm_identical ? "true" : "false")
      << ",\n"
      << "  \"shard_merge_simulated\": " << merge_report.sim_simulated
      << ",\n"
      << "  \"shard_merge_identical\": "
      << (merge_identical ? "true" : "false") << "\n}\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "error: could not write %s\n", out_path.c_str());
    return 2;
  }
  std::printf("wrote %s\n", out_path.c_str());

  // Exit non-zero when any invariant is violated so CI can gate on the
  // smoke run.
  if (!identical) return 1;
  if (!warm_zero_sims || warm_misses != 0 || !warm_identical) {
    std::fprintf(stderr,
                 "FAIL: warm campaign simulated %zu cells and missed %llu "
                 "session artifacts (want 0 and 0) or diverged from the cold "
                 "report\n",
                 warm_report.sim_simulated,
                 static_cast<unsigned long long>(warm_misses));
    return 1;
  }
  if (!merge_zero_sims || !merge_identical) {
    std::fprintf(stderr,
                 "FAIL: 2-shard merge simulated %zu cells (want 0) or "
                 "diverged from the single-process report\n",
                 merge_report.sim_simulated);
    return 1;
  }
  return 0;
}
