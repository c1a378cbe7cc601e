#include "shg/eval/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "shg/common/parallel.hpp"
#include "shg/common/strings.hpp"
#include "shg/customize/session.hpp"
#include "shg/eval/toolchain.hpp"

namespace shg::eval {

namespace {

/// Artifact-tier key of one topology's shared route table. The routing
/// function is a pure function of (family kind, edge set, num_vcs,
/// effective policy, via seed) — `make_policy_routing` switches on
/// `topo.kind()` and the config's routing policy, so both MUST be part of
/// this key even though the screening fingerprints deliberately exclude
/// the kind (screening metrics depend on edges alone; the routing function
/// does not). The EFFECTIVE policy is keyed, not the raw field: an ugal
/// config under the always-minimal bias sentinel builds the minimal table
/// and must share its cache line. The via seed only matters under ugal, so
/// it is zeroed out of minimal keys for the same reason. The domain tag
/// keeps route-table keys disjoint from every other artifact kind by
/// construction; v2 adds the policy axis.
customize::Fingerprint route_table_key(const topo::Topology& topo,
                                       const sim::SimConfig& config) {
  const sim::RoutingPolicy policy = sim::effective_routing_policy(config);
  const bool ugal = policy == sim::RoutingPolicy::kUgal;
  customize::FingerprintBuilder b;
  b.tag("shg.artifact.route_table.v2");
  b.fp(customize::fingerprint_topology(topo));
  b.i64(static_cast<long long>(topo.kind()));
  b.i64(config.num_vcs);
  b.i64(static_cast<long long>(policy));
  b.u64(ugal ? sim::kUgalViaSeed : 0);
  return b.done();
}

Aggregate aggregate(const std::vector<sim::SimResult>& runs,
                    double (*metric)(const sim::SimResult&)) {
  Aggregate agg;
  agg.min = metric(runs.front());
  agg.max = agg.min;
  double total = 0.0;
  for (const sim::SimResult& run : runs) {
    const double value = metric(run);
    total += value;
    agg.min = std::min(agg.min, value);
    agg.max = std::max(agg.max, value);
  }
  agg.mean = total / static_cast<double>(runs.size());
  double sq = 0.0;
  for (const sim::SimResult& run : runs) {
    const double d = metric(run) - agg.mean;
    sq += d * d;
  }
  agg.stddev = std::sqrt(sq / static_cast<double>(runs.size()));
  return agg;
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

void append_aggregate_json(std::ostringstream& os, const char* key,
                           const Aggregate& agg, bool first) {
  if (!first) os << ", ";
  os << '"' << key << "\": {\"mean\": " << agg.mean
     << ", \"stddev\": " << agg.stddev << ", \"min\": " << agg.min
     << ", \"max\": " << agg.max << '}';
}

struct MetricColumn {
  const char* name;
  double (*metric)(const sim::SimResult&);
  Aggregate ExperimentPoint::* slot;
};

const MetricColumn kMetrics[] = {
    {"accepted_rate", [](const sim::SimResult& r) { return r.accepted_rate; },
     &ExperimentPoint::accepted_rate},
    {"avg_latency",
     [](const sim::SimResult& r) { return r.avg_packet_latency; },
     &ExperimentPoint::avg_latency},
    {"p50_latency",
     [](const sim::SimResult& r) { return r.p50_packet_latency; },
     &ExperimentPoint::p50_latency},
    {"p95_latency",
     [](const sim::SimResult& r) { return r.p95_packet_latency; },
     &ExperimentPoint::p95_latency},
    {"p99_latency",
     [](const sim::SimResult& r) { return r.p99_packet_latency; },
     &ExperimentPoint::p99_latency},
    {"max_latency",
     [](const sim::SimResult& r) { return r.max_packet_latency; },
     &ExperimentPoint::max_latency},
    {"avg_hops", [](const sim::SimResult& r) { return r.avg_hops; },
     &ExperimentPoint::avg_hops},
    {"fairness", [](const sim::SimResult& r) { return r.fairness; },
     &ExperimentPoint::fairness},
};

}  // namespace

std::vector<sim::TrafficSpec> ExperimentSpec::validate() const {
  SHG_REQUIRE(!topologies.empty(), "experiment needs at least one topology");
  SHG_REQUIRE(!traffic.empty(), "experiment needs at least one workload");
  SHG_REQUIRE(!rates.empty(), "experiment needs at least one rate");
  for (double rate : rates) {
    SHG_REQUIRE(rate > 0.0 && rate <= 1.0, "rates must be in (0, 1]");
  }
  SHG_REQUIRE(endpoints_per_tile >= 1, "need at least one endpoint port");
  for (const TopologyCase& tc : topologies) {
    SHG_REQUIRE(tc.link_latencies.empty() ||
                    tc.link_latencies.size() ==
                        static_cast<std::size_t>(
                            tc.topology.graph().num_edges()),
                "link latencies must be empty or one per edge");
    // Concentrated topologies define their endpoint count themselves.
    SHG_REQUIRE(tc.topology.concentration() == 1 || endpoints_per_tile == 1,
                "concentrated topologies require endpoints_per_tile = 1");
  }
  std::vector<sim::TrafficSpec> parsed;
  parsed.reserve(traffic.size());
  for (const TrafficCase& wc : traffic) {
    parsed.push_back(sim::TrafficSpec::parse(wc.spec));  // throws if malformed
  }
  return parsed;
}

namespace {

/// Shared prep of one campaign: everything run_experiment and
/// run_experiment_shard both need before any cell can simulate — resolved
/// seeds, materialized link latencies, shared route tables (artifact-tier
/// reuse when a session is attached), per-(topology, traffic) patterns,
/// per-traffic injections and — with a session — the result-tier key of
/// every cell.
/// Tables are built for every topology even on a fully warm run: the
/// report's route-table footprint section must be byte-identical between
/// cold and warm invocations, and the artifact tier makes the warm build
/// a lookup in-process.
struct CellEngine {
  const ExperimentSpec& spec;
  std::vector<std::uint64_t> seeds;
  std::size_t num_topos;
  std::size_t num_traffic;
  std::size_t num_rates;
  std::size_t num_seeds;
  std::vector<std::vector<int>> latencies;
  std::vector<std::shared_ptr<const sim::RouteTable>> tables;
  std::vector<sim::TrafficSpec> parsed;
  /// Per (topology, traffic); null for trace workloads.
  std::vector<std::unique_ptr<sim::TrafficPattern>> patterns;
  /// Per traffic; immutable, so every cell shares it.
  std::vector<sim::Injection> injections;
  /// One key per cell, filled only when a session is attached.
  std::vector<customize::Fingerprint> cell_keys;

  explicit CellEngine(const ExperimentSpec& experiment_spec)
      : spec(experiment_spec), parsed(spec.validate()) {
    seeds = spec.seeds.empty()
                ? std::vector<std::uint64_t>{spec.config.sim.seed}
                : spec.seeds;
    num_topos = spec.topologies.size();
    num_traffic = spec.traffic.size();
    num_rates = spec.rates.size();
    num_seeds = seeds.size();

    // Per-topology setup: unit link latencies where unspecified, and one
    // shared route table per topology within sim::kMaxSharedRouteTableRows
    // (null above it: those cells route live) — built in parallel, each
    // used read-only by every run on that topology afterwards.
    latencies.resize(num_topos);
    tables.resize(num_topos);
    for (std::size_t t = 0; t < num_topos; ++t) {
      const TopologyCase& tc = spec.topologies[t];
      latencies[t] = tc.link_latencies.empty()
                         ? std::vector<int>(
                               static_cast<std::size_t>(
                                   tc.topology.graph().num_edges()),
                               1)
                         : tc.link_latencies;
    }
    // With a session attached, tables hit its artifact tier across
    // run_experiment calls; only the misses are built (in parallel, as
    // before) and stored back. Session traffic stays on this thread.
    std::vector<std::size_t> to_build;
    std::vector<customize::Fingerprint> table_keys(num_topos);
    const bool use_session_tables = spec.session != nullptr;
    for (std::size_t t = 0; t < num_topos; ++t) {
      if (use_session_tables) {
        table_keys[t] =
            route_table_key(spec.topologies[t].topology, spec.config.sim);
        if (const auto artifact =
                spec.session->find_artifact(table_keys[t])) {
          tables[t] =
              std::static_pointer_cast<const sim::RouteTable>(artifact);
          continue;
        }
      }
      to_build.push_back(t);
    }
    parallel_for(to_build.size(), [&](std::size_t i) {
      const std::size_t t = to_build[i];
      tables[t] =
          make_shared_route_table(spec.topologies[t].topology, spec.config);
    });
    if (use_session_tables) {
      for (std::size_t t : to_build) {
        if (tables[t] != nullptr) {
          spec.session->store_artifact(table_keys[t], tables[t]);
        }
      }
    }

    // Per (topology, traffic) patterns and per-traffic injections. Both
    // are stateless (all state lives in the per-run PRNG and schedule),
    // so sharing one across runs is safe.
    for (sim::TrafficSpec& traffic : parsed) {
      // Trace files are loaded (and fully validated) once per traffic
      // case; every cell on every topology shares the in-memory trace.
      traffic.resolve_trace();
      injections.push_back(traffic.injection());
    }
    patterns.resize(num_topos * num_traffic);
    for (std::size_t t = 0; t < num_topos; ++t) {
      for (std::size_t w = 0; w < num_traffic; ++w) {
        if (parsed[w].is_trace()) continue;
        patterns[t * num_traffic + w] = parsed[w].make_pattern(
            spec.topologies[t].topology.rows(),
            spec.topologies[t].topology.cols(),
            spec.topologies[t].topology.concentration());
      }
    }

    if (spec.session != nullptr) {
      // The result-tier keys: one per cell, composed from a
      // per-topology prefix so the topology is hashed once, not per cell.
      std::vector<customize::Fingerprint> topo_fps(num_topos);
      for (std::size_t t = 0; t < num_topos; ++t) {
        topo_fps[t] = customize::fingerprint_sim_topology(
            spec.topologies[t].topology, latencies[t],
            spec.endpoints_per_tile);
      }
      cell_keys.resize(total());
      for (std::size_t i = 0; i < total(); ++i) {
        std::size_t t, w, r, s;
        decompose(i, t, w, r, s);
        cell_keys[i] = customize::fingerprint_sim_cell(
            topo_fps[t], parsed[w].canonical(), cell_config(r, s),
            parsed[w].trace_content_hash());
      }
    }
  }

  std::size_t total() const {
    return num_topos * num_traffic * num_rates * num_seeds;
  }

  /// Inverts the flat cell index (seed fastest, topology slowest).
  void decompose(std::size_t i, std::size_t& t, std::size_t& w,
                 std::size_t& r, std::size_t& s) const {
    s = i % num_seeds;
    r = (i / num_seeds) % num_rates;
    w = (i / (num_seeds * num_rates)) % num_traffic;
    t = i / (num_seeds * num_rates * num_traffic);
  }

  sim::SimConfig cell_config(std::size_t r, std::size_t s) const {
    sim::SimConfig config = spec.config.sim;
    config.injection_rate = spec.rates[r];
    config.seed = seeds[s];
    return config;
  }

  /// One independent simulation; safe to call from worker threads (all
  /// shared state is read-only, all mutable state is cell-private).
  sim::SimResult simulate(std::size_t i) const {
    std::size_t t, w, r, s;
    decompose(i, t, w, r, s);
    sim::Simulator simulator(spec.topologies[t].topology, latencies[t],
                             cell_config(r, s),
                             patterns[t * num_traffic + w].get(),
                             spec.endpoints_per_tile, tables[t],
                             injections[w]);
    return simulator.run();
  }
};

}  // namespace

ExperimentReport run_experiment(const ExperimentSpec& spec) {
  const CellEngine engine(spec);
  const std::size_t num_topos = engine.num_topos;
  const std::size_t num_traffic = engine.num_traffic;
  const std::size_t num_rates = engine.num_rates;
  const std::size_t num_seeds = engine.num_seeds;
  const std::vector<std::shared_ptr<const sim::RouteTable>>& tables =
      engine.tables;
  const std::vector<sim::TrafficSpec>& parsed = engine.parsed;

  // Result-tier lookups happen serially on this thread (see the threading
  // contract on ExperimentSpec::session); only the misses fan out below. Hits
  // restore the exact SimResult bits the cold simulation produced, so the
  // aggregated report is byte-identical either way.
  const std::size_t total = engine.total();
  std::vector<sim::SimResult> runs(total);
  std::vector<std::size_t> to_sim;
  std::size_t hits = 0;
  if (spec.session != nullptr) {
    to_sim.reserve(total);
    for (std::size_t i = 0; i < total; ++i) {
      if (const auto hit = spec.session->lookup_sim(engine.cell_keys[i])) {
        runs[i] = *hit;
        ++hits;
        continue;
      }
      to_sim.push_back(i);
    }
  } else {
    to_sim.resize(total);
    for (std::size_t i = 0; i < total; ++i) to_sim[i] = i;
  }

  // The flat fan-out: every remaining (topology, traffic, rate, seed)
  // cell is an independent simulation writing into its own slot.
  parallel_for(to_sim.size(), [&](std::size_t k) {
    runs[to_sim[k]] = engine.simulate(to_sim[k]);
  });
  if (spec.session != nullptr) {
    // Store in ascending cell order so the result tier's LRU order — and
    // therefore any later eviction — is deterministic.
    for (std::size_t i : to_sim) {
      spec.session->store_sim(engine.cell_keys[i], runs[i]);
    }
  }

  // Serial aggregation in index order keeps the report deterministic.
  ExperimentReport report;
  report.name = spec.name;
  report.sim_cells = total;
  report.sim_cache_hits = hits;
  report.sim_simulated = to_sim.size();
  report.points.reserve(num_topos * num_traffic * num_rates);
  for (std::size_t t = 0; t < num_topos; ++t) {
    const TopologyCase& tc = spec.topologies[t];
    const std::string topo_label =
        tc.label.empty() ? tc.topology.name() : tc.label;
    if (tables[t] != nullptr) {
      report.route_tables.push_back(
          TableFootprint{topo_label, tables[t]->num_rows(),
                         tables[t]->num_unique_rows(),
                         tables[t]->memory_bytes(),
                         tables[t]->undeduped_memory_bytes()});
    }
    for (std::size_t w = 0; w < num_traffic; ++w) {
      const std::string traffic_label = spec.traffic[w].label.empty()
                                            ? parsed[w].canonical()
                                            : spec.traffic[w].label;
      for (std::size_t r = 0; r < num_rates; ++r) {
        ExperimentPoint point;
        point.topology = topo_label;
        point.traffic = traffic_label;
        point.offered_rate = spec.rates[r];
        point.replicas = static_cast<int>(num_seeds);
        point.runs.reserve(num_seeds);
        for (std::size_t s = 0; s < num_seeds; ++s) {
          const std::size_t i =
              ((t * num_traffic + w) * num_rates + r) * num_seeds + s;
          point.runs.push_back(runs[i]);
          point.all_drained = point.all_drained && runs[i].drained;
        }
        for (const MetricColumn& column : kMetrics) {
          point.*(column.slot) = aggregate(point.runs, column.metric);
        }
        report.points.push_back(std::move(point));
      }
    }
  }
  return report;
}

ShardRunStats run_experiment_shard(const ExperimentSpec& spec,
                                   int shard_index, int shard_count) {
  SHG_REQUIRE(spec.session != nullptr,
              "sharded campaigns need a session: its result tier is the "
              "worker's only output");
  SHG_REQUIRE(shard_count >= 1 && shard_index >= 0 &&
                  shard_index < shard_count,
              "shard index must be in [0, shard_count)");
  const CellEngine engine(spec);

  ShardRunStats stats;
  stats.cells_total = engine.total();
  std::vector<std::size_t> to_sim;
  for (std::size_t i = static_cast<std::size_t>(shard_index);
       i < engine.total(); i += static_cast<std::size_t>(shard_count)) {
    ++stats.shard_cells;
    if (spec.session->lookup_sim(engine.cell_keys[i]).has_value()) {
      ++stats.cache_hits;
      continue;
    }
    to_sim.push_back(i);
  }

  std::vector<sim::SimResult> results(to_sim.size());
  parallel_for(to_sim.size(), [&](std::size_t k) {
    results[k] = engine.simulate(to_sim[k]);
  });
  // Ascending cell order keeps the tier's LRU order a pure function of the
  // spec and shard assignment (shard files are sorted by fingerprint).
  for (std::size_t k = 0; k < to_sim.size(); ++k) {
    spec.session->store_sim(engine.cell_keys[to_sim[k]], results[k]);
  }
  stats.simulated = to_sim.size();
  return stats;
}

std::string experiment_to_csv(const ExperimentReport& report) {
  std::ostringstream os;
  os << "topology,traffic,offered,replicas,all_drained";
  for (const MetricColumn& column : kMetrics) {
    os << ',' << column.name << "_mean," << column.name << "_stddev,"
       << column.name << "_min," << column.name << "_max";
  }
  os << '\n';
  for (const ExperimentPoint& point : report.points) {
    os << csv_field(point.topology) << ',' << csv_field(point.traffic) << ','
       << fmt_double(point.offered_rate, 4) << ',' << point.replicas << ','
       << (point.all_drained ? 1 : 0);
    for (const MetricColumn& column : kMetrics) {
      const Aggregate& agg = point.*(column.slot);
      os << ',' << fmt_double(agg.mean, 4) << ',' << fmt_double(agg.stddev, 4)
         << ',' << fmt_double(agg.min, 4) << ',' << fmt_double(agg.max, 4);
    }
    os << '\n';
  }
  return os.str();
}

std::string experiment_to_json(const ExperimentReport& report) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"shg.experiment.v1\",\n  \"name\": \""
     << json_escape(report.name) << "\",\n  \"points\": [\n";
  for (std::size_t i = 0; i < report.points.size(); ++i) {
    const ExperimentPoint& point = report.points[i];
    os << "    {\"topology\": \"" << json_escape(point.topology)
       << "\", \"traffic\": \"" << json_escape(point.traffic)
       << "\", \"offered\": " << point.offered_rate
       << ", \"replicas\": " << point.replicas << ", \"all_drained\": "
       << (point.all_drained ? "true" : "false") << ", \"metrics\": {";
    bool first = true;
    for (const MetricColumn& column : kMetrics) {
      append_aggregate_json(os, column.name, point.*(column.slot), first);
      first = false;
    }
    os << "}}" << (i + 1 < report.points.size() ? "," : "") << '\n';
  }
  os << "  ],\n  \"route_tables\": [\n";
  for (std::size_t i = 0; i < report.route_tables.size(); ++i) {
    const TableFootprint& table = report.route_tables[i];
    os << "    {\"topology\": \"" << json_escape(table.topology)
       << "\", \"rows\": " << table.rows
       << ", \"unique_rows\": " << table.unique_rows
       << ", \"bytes\": " << table.bytes
       << ", \"bytes_undeduped\": " << table.bytes_undeduped << "}"
       << (i + 1 < report.route_tables.size() ? "," : "") << '\n';
  }
  os << "  ]\n}\n";
  return os.str();
}

ExperimentSpec figure6_experiment(const Scenario& scenario,
                                  std::vector<double> rates,
                                  std::vector<std::string> traffic,
                                  std::vector<std::uint64_t> seeds) {
  ExperimentSpec spec;
  spec.name = "figure6-" + scenario.label;
  spec.config = default_perf_config(scenario.arch);
  spec.endpoints_per_tile = scenario.arch.endpoints_per_tile;
  spec.rates = std::move(rates);
  spec.seeds = std::move(seeds);
  for (topo::Topology& topology : scenario_topologies(scenario)) {
    std::vector<int> link_latencies =
        predict_cost(scenario.arch, topology).link_latencies();
    spec.topologies.push_back(
        TopologyCase{std::move(topology), std::move(link_latencies), ""});
  }
  for (std::string& workload : traffic) {
    spec.traffic.push_back(TrafficCase{std::move(workload), ""});
  }
  return spec;
}

}  // namespace shg::eval
