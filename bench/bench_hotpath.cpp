// Hot-path benchmark: tracks the performance layer introduced with the
// route-table / fused-BFS / parallel-DSE overhaul, and guards the perf
// trajectory from that PR onward.
//
// Measurements on a 10x10 KNC-class fabric:
//  1. route_lookup — precomputed RouteTable::lookup vs a live virtual
//     RoutingFunction::route() call (which allocates a vector per call);
//  2. fused_bfs    — absolute time of graph::distance_summary (average
//     hops + diameter + connectivity in one all-pairs sweep, reused
//     workspace); tracked, not gated;
//  3. dse_screen   — absolute time of customize::screen_candidate over the
//     first greedy neighborhood (area-only cost fast path + fused sweep);
//     tracked, not gated;
//  4. sim_cycle    — full simulation cycle loop with live routing (the
//     engine driven without a table) vs the simulator's route table,
//     asserting bit-identical SimResults;
//  5. dse_greedy_incremental — the whole greedy customization: a
//     bench-local reference loop (every neighbor screened with
//     screen_candidate in a parallel_for, the winner picked by
//     select_greedy_candidate) vs customize_greedy's product-form
//     screening (one routed profile per row-skip and column-skip set,
//     memoized for the search), asserting bit-identical winners, per-step
//     metrics and final report areas and running the product-vs-full
//     screening comparison. Acceptance bar: >= 1.5x;
//  6. route_table_dedup — bytes of the deduplicated route-table CSR vs the
//     one-range-per-row layout it replaced (sim equivalence is covered by
//     the sim_cycle gate, which runs with the deduplicated table);
//  7. screening gates, untimed (section 5 times the screening path) and
//     all deterministic: the product-form hop totals equal
//     all_pairs_totals on the materialized graph over seeded random shapes
//     and skip sets; the channel-router differential oracle (the h and v
//     profiles phys::axis_route_loads routes from the row and column skips
//     alone bit-identical to global_route_loads on the materialized graph
//     over 8 seeded random skip sets); the product-vs-full screening
//     comparison on a mixed batch.
//  8. dse_session_warm — the full greedy customization against a fresh
//     persistent session (cold: every candidate is a cache miss and gets
//     screened + stored) vs re-invoking it against the now-populated
//     session (warm: every candidate hits the cache, no BFS sweep and no
//     channel routing runs, and the final cost report comes from the
//     artifact tier). Asserts the cold-with-session, warm and
//     session-free searches are bit-identical (winners, metric bits,
//     history notes, final report areas) and that the warm run actually
//     hit the cache. Acceptance bar: >= 3x.
//
// Output: a human-readable table on stdout and machine-readable JSON
// (default BENCH_hotpath.json; see --out). `--smoke` shrinks repetition
// counts for CI smoke runs — speedup ratios stay meaningful, absolute
// numbers get noisier. Sections 2 and 3 have no reference side, so their
// JSON entries carry "new_seconds" without "old_seconds" / "speedup".
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "shg/common/parallel.hpp"
#include "shg/common/prng.hpp"
#include "shg/customize/incremental.hpp"
#include "shg/customize/search.hpp"
#include "shg/customize/session.hpp"
#include "shg/eval/perf.hpp"
#include "shg/graph/shortest_paths.hpp"
#include "shg/model/cost_model.hpp"
#include "shg/phys/global_route.hpp"
#include "shg/sim/route_table.hpp"
#include "shg/sim/simulator.hpp"
#include "shg/sim/soa_network.hpp"
#include "shg/tech/presets.hpp"
#include "shg/topo/generators.hpp"

namespace {

using namespace shg;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Sink defeating dead-code elimination without a benchmark-library
// dependency.
volatile long long g_sink = 0;

// ---------------------------------------------------------------------------
// Benchmark plumbing
// ---------------------------------------------------------------------------

struct BenchResult {
  std::string name;
  double old_seconds = 0.0;  ///< reference side; 0 = absolute-only section
  double new_seconds = 0.0;
  long long ops = 0;  ///< operations per timed side
  std::string note;

  double speedup() const {
    return new_seconds > 0.0 ? old_seconds / new_seconds : 0.0;
  }
};

void print_result(const BenchResult& r) {
  if (r.old_seconds == 0.0) {
    std::printf("%-12s  %16s  new %10.4f s  %15s  %s\n", r.name.c_str(), "",
                r.new_seconds, "", r.note.c_str());
    return;
  }
  std::printf("%-12s  old %10.4f s  new %10.4f s  speedup %6.2fx  %s\n",
              r.name.c_str(), r.old_seconds, r.new_seconds, r.speedup(),
              r.note.c_str());
}

tech::ArchParams fabric_10x10() {
  tech::ArchParams arch = tech::knc_scenario(tech::KncScenario::kA);
  arch.name = "knc-like-10x10";
  arch.rows = 10;
  arch.cols = 10;
  return arch;
}

// 1. Route-table lookup vs live routing call.
BenchResult bench_route_lookup(bool smoke) {
  const topo::Topology topo =
      topo::make_sparse_hamming(10, 10, {3, 6}, {3, 6});
  const int num_vcs = 8;
  const auto routing = sim::make_default_routing(topo, num_vcs);
  const sim::RouteTable table(topo, *routing, num_vcs);

  // The state sample: every injection state plus every first-network-hop
  // state reachable from it (the two shapes the router actually queries).
  struct State {
    int node, in_port, in_vc, dest;
  };
  std::vector<State> states;
  for (int node = 0; node < topo.num_tiles(); ++node) {
    for (int dest = 0; dest < topo.num_tiles(); ++dest) {
      if (dest == node) continue;
      states.push_back({node, -1, -1, dest});
      const auto cands = routing->route(node, -1, -1, dest);
      const auto& cand = cands.front();
      const int next = topo.graph()
                           .neighbors(node)[static_cast<std::size_t>(
                               cand.out_port)]
                           .node;
      if (next == dest) continue;
      // Arrival port at `next` coming from `node`.
      const auto& nbrs = topo.graph().neighbors(next);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (nbrs[i].node == node) {
          states.push_back({next, static_cast<int>(i), cand.vc_begin, dest});
          break;
        }
      }
    }
  }

  const int reps = smoke ? 20 : 200;
  BenchResult result;
  result.name = "route_lookup";
  result.ops = static_cast<long long>(states.size()) * reps;
  result.note = std::to_string(states.size()) + " states x " +
                std::to_string(reps) + " reps";

  auto t0 = Clock::now();
  long long sink = 0;
  for (int r = 0; r < reps; ++r) {
    for (const State& s : states) {
      const auto cands = routing->route(s.node, s.in_port, s.in_vc, s.dest);
      sink += cands.front().out_port;
    }
  }
  result.old_seconds = seconds_since(t0);

  t0 = Clock::now();
  for (int r = 0; r < reps; ++r) {
    for (const State& s : states) {
      const auto cands = table.lookup(s.node, s.in_port, s.in_vc, s.dest);
      sink += cands.front().out_port;
    }
  }
  result.new_seconds = seconds_since(t0);
  g_sink = g_sink + sink;
  return result;
}

// 2. Fused distance summary, absolute.
BenchResult bench_fused_bfs(bool smoke) {
  const topo::Topology topo =
      topo::make_sparse_hamming(10, 10, {3, 6}, {3, 6});
  const graph::Graph& g = topo.graph();
  const int reps = smoke ? 50 : 500;

  BenchResult result;
  result.name = "fused_bfs";
  result.ops = reps;
  result.note = "avg_hops+diameter on " + std::to_string(g.num_nodes()) +
                " nodes";

  double acc = 0.0;
  graph::BfsWorkspace ws;
  const auto t0 = Clock::now();
  for (int r = 0; r < reps; ++r) {
    const graph::DistanceSummary summary = graph::distance_summary(g, ws);
    acc += summary.avg_hops + summary.diameter;
  }
  result.new_seconds = seconds_since(t0);
  g_sink = g_sink + static_cast<long long>(acc);
  return result;
}

// 3. Greedy-DSE candidate screening, absolute.
BenchResult bench_dse_screen(bool smoke) {
  const tech::ArchParams arch = fabric_10x10();
  // The first greedy neighborhood: the mesh plus every single-skip
  // candidate — exactly what customize_greedy screens per iteration.
  std::vector<topo::ShgParams> batch;
  batch.push_back(topo::ShgParams{});
  for (int x = 2; x < arch.cols; ++x) {
    batch.push_back(topo::ShgParams{{x}, {}});
  }
  for (int x = 2; x < arch.rows; ++x) {
    batch.push_back(topo::ShgParams{{}, {x}});
  }
  const int reps = smoke ? 2 : 10;

  BenchResult result;
  result.name = "dse_screen";
  result.ops = static_cast<long long>(batch.size()) * reps;
  result.note = std::to_string(batch.size()) + " candidates x " +
                std::to_string(reps) + " reps";

  double acc = 0.0;
  const auto t0 = Clock::now();
  for (int r = 0; r < reps; ++r) {
    for (const auto& params : batch) {
      acc += customize::screen_candidate(arch, params).throughput_bound;
    }
  }
  result.new_seconds = seconds_since(t0);
  g_sink = g_sink + static_cast<long long>(acc * 1000.0);
  return result;
}

// 4. Full simulation cycle loop: live routing vs route table, identical
// results.
BenchResult bench_sim_cycle(bool smoke, bool* results_identical) {
  const topo::Topology topo =
      topo::make_sparse_hamming(10, 10, {3, 6}, {3, 6});
  const std::vector<int> latencies(
      static_cast<std::size_t>(topo.graph().num_edges()), 1);
  const auto pattern = sim::make_uniform(topo.num_tiles());

  sim::SimConfig config;
  config.injection_rate = 0.10;
  config.warmup_cycles = smoke ? 200 : 1000;
  config.measure_cycles = smoke ? 600 : 3000;

  BenchResult result;
  result.name = "sim_cycle";
  // Both sides include the allocator fast paths of this PR; the old/new
  // delta isolates the route table. The absolute seconds (and ops =
  // simulated cycles) are what tracks the inner-loop trajectory over PRs.
  result.note = "10x10 SHG, uniform, rate 0.10; delta isolates route table";

  // The live side drives the engine without a table, with the routing and
  // Bernoulli process the simulator would build; the table side is the
  // simulator, which builds its table (10x10 is within the row budget).
  const auto routing = sim::make_policy_routing(topo, config);
  const auto process = sim::make_bernoulli(
      config.injection_rate / static_cast<double>(config.packet_size_flits));
  auto t0 = Clock::now();
  sim::SoaEngine live(topo, latencies, config, *pattern, 1, routing.get(),
                      nullptr, process.get());
  const sim::SimResult live_result = live.run();
  result.old_seconds = seconds_since(t0);

  sim::Simulator tabled(topo, latencies, config, *pattern, 1);
  t0 = Clock::now();
  const sim::SimResult table_result = tabled.run();
  result.new_seconds = seconds_since(t0);
  result.ops = live_result.cycles_run;

  *results_identical =
      live_result.offered_rate == table_result.offered_rate &&
      live_result.accepted_rate == table_result.accepted_rate &&
      live_result.avg_packet_latency == table_result.avg_packet_latency &&
      live_result.max_packet_latency == table_result.max_packet_latency &&
      live_result.p50_packet_latency == table_result.p50_packet_latency &&
      live_result.p95_packet_latency == table_result.p95_packet_latency &&
      live_result.p99_packet_latency == table_result.p99_packet_latency &&
      live_result.avg_hops == table_result.avg_hops &&
      live_result.fairness == table_result.fairness &&
      live_result.measured_packets == table_result.measured_packets &&
      live_result.drained == table_result.drained &&
      live_result.cycles_run == table_result.cycles_run;
  return result;
}

/// Field-exact comparison of two search outcomes (params, metric bits,
/// every history step; rendered notes too when `notes` is set).
bool same_search_result(const customize::SearchResult& a,
                        const customize::SearchResult& b, bool notes = true) {
  if (!(a.params == b.params) || a.metrics != b.metrics ||
      a.history.size() != b.history.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    if (!(a.history[i].params == b.history[i].params) ||
        a.history[i].metrics != b.history[i].metrics ||
        (notes && a.history[i].note != b.history[i].note)) {
      return false;
    }
  }
  return true;
}

/// Screens `batch` in product form and candidate by candidate with
/// screen_candidate; true when every metric is bit-identical, otherwise
/// prints the first mismatch (tagged with `what`) and returns false.
bool product_screening_matches(const tech::ArchParams& arch,
                               const std::vector<topo::ShgParams>& batch,
                               const char* what) {
  const std::vector<customize::CandidateMetrics> product =
      customize::screen_batch_incremental(arch, batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const customize::CandidateMetrics full =
        customize::screen_candidate(arch, batch[i]);
    if (product[i] != full) {
      std::fprintf(stderr,
                   "%s: product-form screening of %s differs from "
                   "screen_candidate (area %.17g vs %.17g, hops %.17g vs "
                   "%.17g)\n",
                   what, customize::fmt_skip_sets(batch[i]).c_str(),
                   product[i].area_overhead, full.area_overhead,
                   product[i].avg_hops, full.avg_hops);
      return false;
    }
  }
  return true;
}

/// Reference greedy search: every neighborhood screened candidate by
/// candidate with screen_candidate (in parallel), the winner picked by
/// select_greedy_candidate, the final report from the full cost model —
/// customize_greedy's contract without product-form screening. History
/// notes are left empty.
customize::SearchResult reference_greedy(const tech::ArchParams& arch,
                                         const customize::Goal& goal) {
  customize::SearchResult result;
  result.metrics = customize::screen_candidate(arch, result.params);
  result.history.push_back({result.params, result.metrics, ""});
  while (true) {
    std::vector<topo::ShgParams> batch;
    for (int x = 2; x < arch.cols; ++x) {
      if (result.params.row_skips.count(x) != 0) continue;
      batch.push_back(result.params);
      batch.back().row_skips.insert(x);
    }
    for (int x = 2; x < arch.rows; ++x) {
      if (result.params.col_skips.count(x) != 0) continue;
      batch.push_back(result.params);
      batch.back().col_skips.insert(x);
    }
    std::vector<customize::CandidateMetrics> screened(batch.size());
    parallel_for(batch.size(), [&](std::size_t i) {
      screened[i] = customize::screen_candidate(arch, batch[i]);
    });
    const std::size_t pick =
        customize::select_greedy_candidate(result.metrics, screened, goal);
    if (pick == customize::kNoCandidate) break;
    result.params = batch[pick];
    result.metrics = screened[pick];
    result.history.push_back({result.params, result.metrics, ""});
  }
  result.cost = model::evaluate_cost(
      arch, topo::make_sparse_hamming(arch.rows, arch.cols,
                                      result.params.row_skips,
                                      result.params.col_skips));
  return result;
}

// 5. Greedy DSE end to end: the reference per-candidate loop vs
// customize_greedy's context reuse, plus the screening equivalence oracle
// on a mixed batch.
BenchResult bench_dse_greedy_incremental(bool* equivalent) {
  const tech::ArchParams arch = fabric_10x10();
  const customize::Goal goal{0.40};
  // This section gates CI on a 1.5x bar (typically ~3.5-4.5x on a 4-vCPU
  // Xeon VM), so the ratio uses the min over several timed reps per side —
  // min-of-k rejects co-tenant noise spikes on shared CI runners that a
  // single (or summed) measurement would absorb.
  const int reps = 3;

  // Oracle: the first greedy neighborhood (mesh + every single skip) plus a
  // few multi-skip candidates, screened in product form and fully; any
  // non-bit-identical metric fails the section.
  std::vector<topo::ShgParams> oracle_batch;
  oracle_batch.push_back(topo::ShgParams{});
  for (int x = 2; x < arch.cols; ++x) {
    oracle_batch.push_back(topo::ShgParams{{x}, {}});
  }
  for (int x = 2; x < arch.rows; ++x) {
    oracle_batch.push_back(topo::ShgParams{{}, {x}});
  }
  oracle_batch.push_back(topo::ShgParams{{3, 6}, {}});
  oracle_batch.push_back(topo::ShgParams{{3, 6}, {4}});
  oracle_batch.push_back(topo::ShgParams{{2}, {2, 5}});
  const bool oracle_ok =
      product_screening_matches(arch, oracle_batch, "screening oracle");

  BenchResult result;
  result.name = "dse_greedy_incremental";
  result.ops = 1;  // seconds are min-of-reps for ONE full search
  result.note = "full customize_greedy vs reference loop, 10x10, budget "
                "40%, min of " + std::to_string(reps) + "; oracle " +
                std::string(oracle_ok ? "ok" : "MISMATCH");

  customize::SearchResult full_result =
      reference_greedy(arch, goal);  // warm-up + reference
  result.old_seconds = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    full_result = reference_greedy(arch, goal);
    result.old_seconds = std::min(result.old_seconds, seconds_since(t0));
  }

  customize::SearchResult inc_result;
  result.new_seconds = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    inc_result = customize::customize_greedy(arch, goal);
    result.new_seconds = std::min(result.new_seconds, seconds_since(t0));
  }

  const bool cost_identical =
      full_result.cost.area_overhead == inc_result.cost.area_overhead &&
      full_result.cost.total_area_mm2 == inc_result.cost.total_area_mm2;
  *equivalent = oracle_ok && cost_identical &&
                same_search_result(full_result, inc_result, false);
  return result;
}

/// Product-form gate: topo::shg_hop_totals must equal the bit-parallel
/// all-pairs sweep over the materialized make_sparse_hamming graph, over
/// seeded random grid shapes and skip sets.
bool shg_hop_totals_match_sweep() {
  Prng rng(0x5b0d7u);
  graph::BitSweepWorkspace ws;
  for (int trial = 0; trial < 24; ++trial) {
    const int rows = 1 + static_cast<int>(rng() % 16);
    const int cols = 1 + static_cast<int>(rng() % 16);
    std::set<int> row_skips, col_skips;
    for (int x = 2; x < cols; ++x) {
      if (rng() % 3 == 0) row_skips.insert(x);
    }
    for (int x = 2; x < rows; ++x) {
      if (rng() % 3 == 0) col_skips.insert(x);
    }
    const graph::AllPairsTotals product =
        topo::shg_hop_totals(rows, cols, row_skips, col_skips);
    const graph::AllPairsTotals swept = graph::all_pairs_totals(
        topo::make_sparse_hamming(rows, cols, row_skips, col_skips).graph(),
        nullptr, ws);
    if (product.sum != swept.sum ||
        product.reachable_pairs != swept.reachable_pairs ||
        product.diameter != swept.diameter) {
      std::fprintf(stderr,
                   "shg_hop_totals: %dx%d trial %d diverged from the "
                   "all-pairs sweep\n",
                   rows, cols, trial);
      return false;
    }
  }
  return true;
}

// 7. Deterministic screening gates: the routing-load differential oracle
// and the screening equivalence oracle (returned), plus the product-form
// hop-total gate (`hop_totals_match`).
bool screening_gates(bool* hop_totals_match) {
  const tech::ArchParams arch = fabric_10x10();
  *hop_totals_match = shg_hop_totals_match_sweep();

  // Channel-router differential oracle: over seeded random SHG skip sets,
  // the h and v profiles routed per axis must be bit-identical to
  // global_route_loads on the materialized graph. The sets are the child
  // sets of the skip-insertion trajectories this oracle has always drawn
  // (same seed, same draws).
  bool oracle_ok = true;
  Prng rng(0x70410u);
  for (int trial = 0; trial < 8 && oracle_ok; ++trial) {
    std::set<int> row_skips, col_skips;
    for (int x = 2; x < 10; ++x) {
      if (rng() % 4 <= 1) row_skips.insert(x);
      if (rng() % 4 <= 1) col_skips.insert(x);
    }
    const phys::GlobalRoutingResult full = phys::global_route_loads(
        topo::make_sparse_hamming(10, 10, row_skips, col_skips));
    if (phys::axis_route_loads(10, 10, true, row_skips) != full.h_loads ||
        phys::axis_route_loads(10, 10, false, col_skips) != full.v_loads) {
      oracle_ok = false;
      std::fprintf(stderr, "routing oracle: loads diverged on trial %d\n",
                   trial);
    }
  }

  // Screening equivalence oracle.
  std::vector<topo::ShgParams> oracle_batch;
  oracle_batch.push_back(topo::ShgParams{});
  for (int x = 2; x < arch.cols; ++x) {
    oracle_batch.push_back(topo::ShgParams{{x}, {}});
  }
  oracle_batch.push_back(topo::ShgParams{{3, 6}, {4}});
  oracle_batch.push_back(topo::ShgParams{{2}, {2, 5}});
  return product_screening_matches(arch, oracle_batch, "screening oracle") &&
         oracle_ok;
}

// 8. Persistent-session warm re-invocation: the full greedy search against
// a fresh (cold, populating) session vs against the already-populated one.
BenchResult bench_dse_session_warm(bool* equivalent) {
  const tech::ArchParams arch = fabric_10x10();
  const customize::Goal goal{0.40};
  // Min-of-5 like the other gated greedy sections: both sides are short
  // and the 3x bar must not be lost to co-tenant noise on CI runners.
  const int reps = 5;

  // Session-free reference: the warm result must be bit-identical not just
  // to the populating run but to a search that never saw a session.
  const customize::SearchResult reference =
      customize::customize_greedy(arch, goal, customize::SearchOptions{});

  BenchResult result;
  result.name = "dse_session_warm";
  result.ops = 1;  // seconds are min-of-reps for ONE full search
  result.note = "greedy 10x10, fresh-session cold vs warm re-invocation, "
                "min of " + std::to_string(reps);

  // Cold side: a fresh memory-only session per rep — every candidate
  // misses, is screened and stored (the first invocation a designer pays).
  customize::SearchResult cold_result;
  result.old_seconds = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    customize::Session session;
    customize::SearchOptions opts;
    opts.session = &session;
    const auto t0 = Clock::now();
    cold_result = customize::customize_greedy(arch, goal, opts);
    result.old_seconds = std::min(result.old_seconds, seconds_since(t0));
  }

  // Warm side: one session, populated once untimed, then re-invoked — the
  // cross-invocation reuse the session exists for.
  customize::Session session;
  customize::SearchOptions opts;
  opts.session = &session;
  customize::SearchResult warm_result =
      customize::customize_greedy(arch, goal, opts);  // populate
  const std::uint64_t hits_before = session.stats().hits;
  result.new_seconds = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    warm_result = customize::customize_greedy(arch, goal, opts);
    result.new_seconds = std::min(result.new_seconds, seconds_since(t0));
  }

  const bool warm_hit_cache = session.stats().hits > hits_before;
  // same_search_result covers params/metrics/history; the final report is
  // served from the artifact tier on warm runs, so pin its area fields
  // against the session-free evaluation too.
  const bool cost_identical =
      warm_result.cost.area_overhead == reference.cost.area_overhead &&
      warm_result.cost.total_area_mm2 == reference.cost.total_area_mm2 &&
      cold_result.cost.area_overhead == reference.cost.area_overhead;
  *equivalent = same_search_result(reference, cold_result) &&
                same_search_result(reference, warm_result) &&
                warm_hit_cache && cost_identical;
  if (!warm_hit_cache) {
    std::fprintf(stderr, "session bench: warm run never hit the cache\n");
  }
  return result;
}

// 6. Route-table dedup: byte footprint of the shared-row CSR vs the
// one-range-per-row layout.
struct DedupStats {
  std::size_t rows = 0;
  std::size_t unique_rows = 0;
  std::size_t bytes_undeduped = 0;
  std::size_t bytes_deduped = 0;

  double ratio() const {
    return bytes_deduped > 0
               ? static_cast<double>(bytes_undeduped) /
                     static_cast<double>(bytes_deduped)
               : 0.0;
  }
};

DedupStats bench_route_table_dedup() {
  const topo::Topology topo =
      topo::make_sparse_hamming(10, 10, {3, 6}, {3, 6});
  const int num_vcs = 8;
  const auto routing = sim::make_default_routing(topo, num_vcs);
  const sim::RouteTable table(topo, *routing, num_vcs);
  DedupStats stats;
  stats.rows = table.num_rows();
  stats.unique_rows = table.num_unique_rows();
  stats.bytes_undeduped = table.undeduped_memory_bytes();
  stats.bytes_deduped = table.memory_bytes();
  return stats;
}

void append_json(std::string& json, const BenchResult& r) {
  char buf[512];
  if (r.old_seconds == 0.0) {
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"new_seconds\": %.6f, "
                  "\"ops\": %lld, \"note\": \"%s\"}",
                  r.name.c_str(), r.new_seconds, r.ops, r.note.c_str());
  } else {
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"old_seconds\": %.6f, "
                  "\"new_seconds\": %.6f, \"speedup\": %.3f, "
                  "\"ops\": %lld, \"note\": \"%s\"}",
                  r.name.c_str(), r.old_seconds, r.new_seconds, r.speedup(),
                  r.ops, r.note.c_str());
  }
  if (!json.empty()) json += ",\n";
  json += buf;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_hotpath.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::printf("usage: bench_hotpath [--smoke] [--out file.json]\n");
      return 2;
    }
  }

  std::printf("=== bench_hotpath (%s mode) ===\n", smoke ? "smoke" : "full");

  bool results_identical = false;
  bool incremental_identical = false;
  bool hop_totals_match = false;
  bool session_identical = false;
  std::vector<BenchResult> results;
  results.push_back(bench_route_lookup(smoke));
  print_result(results.back());
  results.push_back(bench_fused_bfs(smoke));
  print_result(results.back());
  results.push_back(bench_dse_screen(smoke));
  print_result(results.back());
  results.push_back(bench_sim_cycle(smoke, &results_identical));
  print_result(results.back());
  results.push_back(bench_dse_greedy_incremental(&incremental_identical));
  print_result(results.back());
  const bool routing_incremental_identical =
      screening_gates(&hop_totals_match);
  results.push_back(bench_dse_session_warm(&session_identical));
  print_result(results.back());
  const DedupStats dedup = bench_route_table_dedup();

  std::printf("sim results identical (live routing vs table): %s\n",
              results_identical ? "yes" : "NO — BUG");
  std::printf(
      "incremental DSE identical (reference loop + oracle): %s\n",
      incremental_identical ? "yes" : "NO — BUG");
  std::printf(
      "per-axis routing identical (loads + screening oracle): %s\n",
      routing_incremental_identical ? "yes" : "NO — BUG");
  std::printf("shg_hop_totals equals the all-pairs sweep: %s\n",
              hop_totals_match ? "yes" : "NO — BUG");
  std::printf(
      "session warm re-invocation identical (history + final report): %s\n",
      session_identical ? "yes" : "NO — BUG");
  std::printf(
      "route_table_dedup  rows %zu -> unique %zu, bytes %zu -> %zu "
      "(%.2fx smaller)\n",
      dedup.rows, dedup.unique_rows, dedup.bytes_undeduped,
      dedup.bytes_deduped, dedup.ratio());

  double greedy_speedup = 0.0;
  double session_speedup = 0.0;
  std::string entries;
  for (const BenchResult& r : results) {
    append_json(entries, r);
    if (r.name == "dse_greedy_incremental") greedy_speedup = r.speedup();
    if (r.name == "dse_session_warm") session_speedup = r.speedup();
  }
  std::ofstream out(out_path);
  out << "{\n  \"schema\": \"shg.bench_hotpath.v7\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"fabric\": \"knc-like-10x10\",\n"
      << "  \"sim_results_identical\": "
      << (results_identical ? "true" : "false") << ",\n"
      << "  \"dse_greedy_incremental_speedup\": " << greedy_speedup << ",\n"
      << "  \"incremental_identical\": "
      << (incremental_identical ? "true" : "false") << ",\n"
      << "  \"routing_incremental_identical\": "
      << (routing_incremental_identical ? "true" : "false") << ",\n"
      << "  \"shg_hop_totals_identical\": "
      << (hop_totals_match ? "true" : "false") << ",\n"
      << "  \"dse_session_warm_speedup\": " << session_speedup << ",\n"
      << "  \"session_identical\": "
      << (session_identical ? "true" : "false") << ",\n"
      << "  \"route_table_dedup\": {\"rows\": " << dedup.rows
      << ", \"unique_rows\": " << dedup.unique_rows
      << ", \"bytes_undeduped\": " << dedup.bytes_undeduped
      << ", \"bytes_deduped\": " << dedup.bytes_deduped
      << ", \"ratio\": " << dedup.ratio() << "},\n"
      << "  \"benchmarks\": [\n"
      << entries << "\n  ]\n}\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "error: could not write %s\n", out_path.c_str());
    return 2;
  }
  std::printf("wrote %s\n", out_path.c_str());

  // Exit non-zero when the acceptance invariants are violated so CI can
  // gate on the smoke run.
  if (!results_identical) return 1;
  if (!incremental_identical) {
    std::fprintf(stderr,
                 "FAIL: incremental screening diverged from full screening\n");
    return 1;
  }
  if (greedy_speedup < 1.5) {
    std::fprintf(stderr,
                 "FAIL: dse_greedy_incremental speedup %.2fx below the 1.5x "
                 "acceptance bar\n",
                 greedy_speedup);
    return 1;
  }
  if (!routing_incremental_identical) {
    std::fprintf(stderr,
                 "FAIL: per-axis routing diverged (loads or screening "
                 "oracle)\n");
    return 1;
  }
  if (!hop_totals_match) {
    std::fprintf(stderr,
                 "FAIL: shg_hop_totals diverged from all_pairs_totals on the "
                 "materialized graph\n");
    return 1;
  }
  if (!session_identical) {
    std::fprintf(stderr,
                 "FAIL: warm session re-invocation diverged from the cold "
                 "search (history, final report, or no cache hits)\n");
    return 1;
  }
  if (session_speedup < 3.0) {
    std::fprintf(stderr,
                 "FAIL: dse_session_warm speedup %.2fx below the 3x "
                 "acceptance bar\n",
                 session_speedup);
    return 1;
  }
  if (dedup.bytes_deduped >= dedup.bytes_undeduped) {
    std::fprintf(stderr,
                 "FAIL: route-table dedup did not shrink the table (%zu >= "
                 "%zu bytes)\n",
                 dedup.bytes_deduped, dedup.bytes_undeduped);
    return 1;
  }
  return 0;
}
