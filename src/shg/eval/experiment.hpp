// Batched experiment engine: the one place that owns simulation fan-out.
//
// An ExperimentSpec declares a cartesian product — topologies x traffic
// specs x injection rates x seeds — and run_experiment() executes it:
// each topology's route table is built once and shared by every run on
// it, all points fan out through parallel_for, multi-seed replicas are
// aggregated (mean/stddev/min/max per metric), and the report renders as
// JSON or CSV. Callers that used to own their own simulate-loops (the
// load-latency sweeps, the Figure 6 drivers, the examples) build a spec
// and run it here.
//
// Determinism: every run is an independent Simulator with a private PRNG
// seeded from its (rate, seed) cell, results land in index-addressed
// slots, and aggregation is a serial reduction in seed order — so the
// report is identical under set_max_threads(1) and the default worker
// count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "shg/eval/perf.hpp"
#include "shg/eval/scenario.hpp"
#include "shg/sim/traffic_spec.hpp"

namespace shg::customize {
class Session;  // customize/session.hpp: cross-invocation reuse state
}  // namespace shg::customize

namespace shg::eval {

/// One topology under test: the graph plus its physical link latencies.
struct TopologyCase {
  topo::Topology topology;
  /// Cycles per link (cost-model output); empty = 1 cycle everywhere.
  std::vector<int> link_latencies;
  /// Report label; empty = topology.name().
  std::string label;
};

/// One workload under test: a TrafficSpec string (sim/traffic_spec.hpp).
struct TrafficCase {
  std::string spec;
  /// Report label; empty = canonical spec.
  std::string label;
};

/// The declarative experiment: topologies x traffic x rates x seeds.
struct ExperimentSpec {
  std::string name = "experiment";
  std::vector<TopologyCase> topologies;
  std::vector<TrafficCase> traffic;
  std::vector<double> rates;               ///< flits/cycle/port, in (0, 1]
  std::vector<std::uint64_t> seeds;        ///< empty = {config.sim.seed}
  int endpoints_per_tile = 1;
  PerfConfig config;                       ///< sim knobs; rate/seed overridden
  /// Persistent DSE session (default off). Two tiers engage:
  ///  * route tables are looked up in / stored into the artifact tier,
  ///    keyed by (topology edge list, family kind, VC count), so repeated
  ///    experiments over overlapping topology sets build each table once
  ///    per session instead of once per run_experiment call;
  ///  * completed cells are looked up in / stored into the
  ///    simulation-result tier, keyed by fingerprint_sim_cell over
  ///    (topology + latencies + endpoints, canonical traffic spec, full
  ///    per-cell SimConfig), so an overlapping re-invocation — added
  ///    seeds, widened rate grids, a refined sweep, or a fully warm
  ///    re-run — only simulates the cells it has never seen.
  /// Reports are byte-identical with or without a session: the cached
  /// table is the same deduplicated CSR, and a result-tier hit returns the
  /// exact SimResult bits the cold simulation produced (the warm-campaign
  /// bench gate and tests/experiment_test.cpp enforce it). Not owned; must
  /// outlive the call. The engine touches the session from the calling
  /// thread only; every session's tiers are locked, so one session may be
  /// shared by concurrent calls (the serve layer's pool workers run
  /// experiments on its one session).
  customize::Session* session = nullptr;

  /// Throws on an invalid spec; returns the parsed traffic cases, one per
  /// `traffic` entry, so callers do not parse them again.
  [[nodiscard]] std::vector<sim::TrafficSpec> validate() const;
};

/// mean/stddev/min/max of one metric over the seed replicas of a point.
struct Aggregate {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// One (topology, traffic, rate) cell with its seed replicas aggregated.
struct ExperimentPoint {
  std::string topology;
  std::string traffic;
  double offered_rate = 0.0;
  int replicas = 0;
  bool all_drained = true;
  Aggregate accepted_rate;
  Aggregate avg_latency;
  Aggregate p50_latency;
  Aggregate p95_latency;
  Aggregate p99_latency;
  Aggregate max_latency;
  Aggregate avg_hops;
  Aggregate fairness;
  /// Raw per-seed results in seed order, for callers that need more than
  /// the aggregates (tests, plots of replica spread).
  std::vector<sim::SimResult> runs;
};

/// Footprint of one topology's shared route table — every cell of that
/// topology reuses the same deduplicated CSR, so the dedupe win scales
/// with the number of cells sharing it.
struct TableFootprint {
  std::string topology;
  std::size_t rows = 0;
  std::size_t unique_rows = 0;       ///< after in_vc-class row dedup
  std::size_t bytes = 0;             ///< deduplicated CSR footprint
  std::size_t bytes_undeduped = 0;   ///< one-range-per-row layout it replaced
};

/// The rendered experiment: points in topology-major, then traffic, then
/// rate order (seeds folded into each point).
struct ExperimentReport {
  std::string name;
  std::vector<ExperimentPoint> points;
  /// One entry per topology with a shared route table, in spec order. A
  /// topology above sim::kMaxSharedRouteTableRows simulates with live
  /// routing and gets no entry, so the rendered section depends on the
  /// grid size (the serve protocol's 64x64 limit lists none).
  std::vector<TableFootprint> route_tables;
  /// Result-tier accounting of this invocation (all zero without a
  /// session). Deliberately NOT rendered into the JSON/CSV reports: the
  /// rendered bytes must be identical between a cold and a warm run, and
  /// these counters are the one thing that legitimately differs. Drivers
  /// print them separately.
  std::size_t sim_cells = 0;       ///< cells in the (t, w, r, s) grid
  std::size_t sim_cache_hits = 0;  ///< served from the session result tier
  std::size_t sim_simulated = 0;   ///< actually simulated by this call
};

/// Executes the spec: shared route table per topology, one parallel_for
/// over every (topology, traffic, rate, seed) cell — minus the cells the
/// session result tier already holds — and serial aggregation.
ExperimentReport run_experiment(const ExperimentSpec& spec);

/// Result of one worker's shard of a campaign (see run_experiment_shard).
struct ShardRunStats {
  std::size_t cells_total = 0;  ///< full campaign grid size
  std::size_t shard_cells = 0;  ///< cells owned by this shard
  std::size_t cache_hits = 0;   ///< shard cells already in the result tier
  std::size_t simulated = 0;    ///< shard cells simulated by this call
};

/// One worker of a sharded campaign: simulates only the cells whose flat
/// grid index i (seed-fastest, topology-slowest — the run_experiment
/// order) satisfies i % shard_count == shard_index, filling the REQUIRED
/// `spec.session`'s result tier and producing no report. The partition is
/// a pure function of (spec, shard_index, shard_count), so a coordinator
/// can hand out `--shard i/n` assignments without further communication.
/// Workers persist their tier via SessionOptions::sim_cache_path (or
/// Session::sim_cache().save_file); a merge step loads every shard file
/// into one session and calls run_experiment, which then simulates
/// nothing and emits a report byte-identical to a single-process run —
/// cells a lost or corrupt shard failed to deliver are simulated by the
/// merge itself, so the merged report is correct either way.
ShardRunStats run_experiment_shard(const ExperimentSpec& spec,
                                   int shard_index, int shard_count);

/// Long-format CSV, one row per point; labels are csv_field-escaped.
std::string experiment_to_csv(const ExperimentReport& report);

/// Machine-readable JSON (schema "shg.experiment.v1").
std::string experiment_to_json(const ExperimentReport& report);

/// The Figure 6 evaluation of one Section V-b scenario as an
/// ExperimentSpec: every applicable topology (with its cost-model link
/// latencies) under uniform Bernoulli traffic at the given rates. Extra
/// traffic specs / seeds extend the paper's single-workload setup.
ExperimentSpec figure6_experiment(
    const Scenario& scenario, std::vector<double> rates,
    std::vector<std::string> traffic = {"uniform"},
    std::vector<std::uint64_t> seeds = {});

}  // namespace shg::eval
