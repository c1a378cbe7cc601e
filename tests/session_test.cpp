// DSE sessions (customize/session.hpp + customize/cache.hpp):
//
//  * fingerprint semantics (stability, sensitivity to every key component);
//  * LRU cache behavior (hits refresh recency, eviction order);
//  * the result tier's on-disk form: round trip, shard merges, a silent
//    cold start on an absent file, and kind-0 (retired candidate-metrics)
//    files discarded by the payload-kind check. The corruption matrix
//    lives in tests/experiment_test.cpp (ShardCorruptionTest);
//  * the end-to-end warm-session oracle: randomized greedy trajectories
//    where cold (session-free), populating and warm re-invocation searches
//    must be bit-identical in winners, metric bits and history notes;
//  * experiment-engine route-table reuse through the session artifact
//    tier, with byte-identical reports.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "shg/common/prng.hpp"
#include "shg/customize/explore.hpp"
#include "shg/customize/search.hpp"
#include "shg/customize/session.hpp"
#include "shg/eval/experiment.hpp"
#include "shg/tech/presets.hpp"
#include "shg/topo/generators.hpp"
#include "cache_file.hpp"
#include "exhaustive_search.hpp"

namespace shg::customize {
namespace {

tech::ArchParams small_arch(int rows, int cols) {
  tech::ArchParams arch = tech::knc_scenario(tech::KncScenario::kA);
  arch.rows = rows;
  arch.cols = cols;
  return arch;
}

/// Field-exact search comparison: params, metric bits, every history step
/// including the rendered notes.
void expect_same_search(const SearchResult& a, const SearchResult& b,
                        const std::string& context) {
  EXPECT_EQ(a.params, b.params) << context;
  EXPECT_EQ(a.metrics, b.metrics) << context;
  ASSERT_EQ(a.history.size(), b.history.size()) << context;
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].params, b.history[i].params) << context;
    EXPECT_EQ(a.history[i].metrics, b.history[i].metrics) << context;
    EXPECT_EQ(a.history[i].note, b.history[i].note) << context;
  }
  // The final report's headline fields too — warm runs serve it from the
  // artifact tier.
  EXPECT_EQ(a.cost.area_overhead, b.cost.area_overhead) << context;
  EXPECT_EQ(a.cost.total_area_mm2, b.cost.total_area_mm2) << context;
  EXPECT_EQ(a.cost.avg_link_latency_cycles, b.cost.avg_link_latency_cycles)
      << context;
}

std::string temp_cache_path(const char* name) {
  return testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

TEST(Fingerprint, StableAndSensitive) {
  const tech::ArchParams arch = small_arch(6, 6);
  const Fingerprint base = fingerprint_arch(arch);
  EXPECT_EQ(base, fingerprint_arch(arch));  // deterministic

  tech::ArchParams other = arch;
  other.link_bandwidth_bits *= 2.0;
  EXPECT_FALSE(base == fingerprint_arch(other));
  other = arch;
  other.router_arch.num_vcs += 1;
  EXPECT_FALSE(base == fingerprint_arch(other));
  other = arch;
  other.rows += 1;
  EXPECT_FALSE(base == fingerprint_arch(other));
  // Pure labels are deliberately excluded from the key.
  other = arch;
  other.name = "renamed";
  EXPECT_EQ(base, fingerprint_arch(other));
}

TEST(Fingerprint, CandidateKeysDistinguishSkipSets) {
  const Fingerprint arch_fp = fingerprint_arch(small_arch(8, 8));
  const Fingerprint mesh = fingerprint_shg_candidate(arch_fp, {});
  EXPECT_EQ(mesh, fingerprint_shg_candidate(arch_fp, {}));
  EXPECT_FALSE(mesh == fingerprint_shg_candidate(arch_fp, {{3}, {}}));
  // Row skip 3 vs column skip 3 must not alias.
  EXPECT_FALSE(fingerprint_shg_candidate(arch_fp, {{3}, {}}) ==
               fingerprint_shg_candidate(arch_fp, {{}, {3}}));
}

TEST(Fingerprint, TopologyKeysTrackEdgesNotLabels) {
  const topo::Topology mesh = topo::make_mesh(4, 5);
  const topo::Topology shg = topo::make_sparse_hamming(4, 5, {}, {});
  // An SHG with empty skip sets has the mesh's edge set: same key even
  // though family labels differ (labels affect no metric).
  EXPECT_EQ(fingerprint_topology(mesh), fingerprint_topology(shg));
  EXPECT_FALSE(fingerprint_topology(mesh) ==
               fingerprint_topology(topo::make_torus(4, 5)));
}

// ---------------------------------------------------------------------------
// Candidate cache
// ---------------------------------------------------------------------------

CandidateMetrics metrics_of(double v) {
  CandidateMetrics m;
  m.area_overhead = v;
  m.avg_hops = v + 1.0;
  m.diameter = v + 2.0;
  m.throughput_bound = v + 3.0;
  return m;
}

Fingerprint key_of(std::uint64_t i) {
  return FingerprintBuilder().tag("test.key").u64(i).done();
}

TEST(CandidateCache, LruEvictsLeastRecentlyUsed) {
  CandidateCache cache(2);
  cache.insert(key_of(1), metrics_of(1.0));
  cache.insert(key_of(2), metrics_of(2.0));
  // Touch 1 so 2 becomes the LRU victim.
  EXPECT_TRUE(cache.lookup(key_of(1)).has_value());
  cache.insert(key_of(3), metrics_of(3.0));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.lookup(key_of(1)).has_value());
  EXPECT_FALSE(cache.lookup(key_of(2)).has_value());
  EXPECT_TRUE(cache.lookup(key_of(3)).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  // Re-inserting an existing key updates in place, no eviction.
  cache.insert(key_of(3), metrics_of(30.0));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.lookup(key_of(3))->area_overhead, 30.0);
}

// ---------------------------------------------------------------------------
// Simulation-result cache
// ---------------------------------------------------------------------------

sim::SimResult result_of(double v) {
  sim::SimResult r;
  r.offered_rate = v;
  r.accepted_rate = v + 0.5;
  r.avg_packet_latency = v + 1.0;
  r.max_packet_latency = v + 2.0;
  r.p50_packet_latency = v + 3.0;
  r.p95_packet_latency = v + 4.0;
  r.p99_packet_latency = v + 5.0;
  r.avg_hops = v + 6.0;
  r.fairness = v + 7.0;
  r.measured_packets = static_cast<long long>(v) + 8;
  r.drained = static_cast<long long>(v) % 2 == 0;
  r.cycles_run = static_cast<long long>(v) + 9;
  return r;
}

TEST(SimResultCache, LruEvictsLeastRecentlyUsed) {
  SimResultCache cache(2);
  cache.insert(key_of(1), result_of(1.0));
  cache.insert(key_of(2), result_of(2.0));
  EXPECT_TRUE(cache.lookup(key_of(1)).has_value());  // 2 becomes the victim
  cache.insert(key_of(3), result_of(3.0));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.lookup(key_of(1)).has_value());
  EXPECT_FALSE(cache.lookup(key_of(2)).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(SimResultCache, DiskRoundTripPreservesEveryField) {
  const std::string path = temp_cache_path("sim-roundtrip.cache");
  SimResultCache cache(16);
  for (std::uint64_t i = 0; i < 5; ++i) {
    cache.insert(key_of(i), result_of(static_cast<double>(i)));
  }
  EXPECT_EQ(cache.save_file(path), 5u);

  SimResultCache loaded(16);
  EXPECT_EQ(loaded.load_file(path), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    const auto hit = loaded.lookup(key_of(i));
    ASSERT_TRUE(hit.has_value()) << i;
    EXPECT_EQ(*hit, result_of(static_cast<double>(i))) << i;
  }
  std::remove(path.c_str());
}

TEST(SimResultCache, AbsentFileIsASilentColdStart) {
  SimResultCache cache(4);
  EXPECT_EQ(cache.load_file(temp_cache_path("does-not-exist.cache")), 0u);
  EXPECT_EQ(cache.stats().disk_discarded, 0u);
}

TEST(SimResultCache, PayloadKindsNeverCrossLoad) {
  // The payload-kind field keeps retired kind-0 (candidate-metrics) files
  // out of the result tier: a checksum-valid kind-0 file must be
  // discarded, not reinterpreted — even when its payload has the result
  // tier's entry size. The same payload under kind 1 loads, so the kind
  // field alone decides.
  using testing_cache::cache_file_bytes;
  const std::string path = temp_cache_path("kind-cross.cache");
  SimResultCache sims(4);
  sims.insert(key_of(2), result_of(2.0));
  ASSERT_EQ(sims.save_file(path), 1u);
  const std::string payload = testing_cache::read_bytes(path).substr(32);
  ASSERT_EQ(cache_file_bytes(1, payload, 1), testing_cache::read_bytes(path));

  SimResultCache reloaded(4);
  testing_cache::write_bytes(
      path, cache_file_bytes(0, testing_cache::candidate_entry_bytes(), 1));
  EXPECT_EQ(reloaded.load_file(path), 0u);
  testing_cache::write_bytes(path, cache_file_bytes(0, payload, 1));
  EXPECT_EQ(reloaded.load_file(path), 0u);
  EXPECT_EQ(reloaded.stats().disk_discarded, 2u);
  EXPECT_EQ(reloaded.size(), 0u);

  testing_cache::write_bytes(path, cache_file_bytes(1, payload, 1));
  EXPECT_EQ(reloaded.load_file(path), 1u);
  EXPECT_EQ(reloaded.lookup(key_of(2)), result_of(2.0));
  std::remove(path.c_str());
}

TEST(SimResultCache, RepeatedLoadsMergeShards) {
  // The merge step of a sharded campaign: one session adopting several
  // shard files accumulates their union.
  const std::string a = temp_cache_path("sim-shard-a.cache");
  const std::string b = temp_cache_path("sim-shard-b.cache");
  {
    SimResultCache shard(8);
    shard.insert(key_of(1), result_of(1.0));
    shard.insert(key_of(2), result_of(2.0));
    ASSERT_EQ(shard.save_file(a), 2u);
  }
  {
    SimResultCache shard(8);
    shard.insert(key_of(3), result_of(3.0));
    ASSERT_EQ(shard.save_file(b), 1u);
  }
  Session session;
  EXPECT_EQ(session.sim_cache().load_file(a), 2u);
  EXPECT_EQ(session.sim_cache().load_file(b), 1u);
  EXPECT_EQ(session.sim_cache().size(), 3u);
  for (std::uint64_t i = 1; i <= 3; ++i) {
    const auto hit = session.lookup_sim(key_of(i));
    ASSERT_TRUE(hit.has_value()) << i;
    EXPECT_EQ(*hit, result_of(static_cast<double>(i))) << i;
  }
  std::remove(a.c_str());
  std::remove(b.c_str());
}

// ---------------------------------------------------------------------------
// Warm-session oracles
// ---------------------------------------------------------------------------

TEST(Session, GreedyWarmReinvocationBitIdenticalRandomized) {
  Prng prng(0x5e55u);
  for (int trial = 0; trial < 6; ++trial) {
    const int rows = prng.range(4, 9);
    const int cols = prng.range(4, 9);
    const tech::ArchParams arch = small_arch(rows, cols);
    const Goal goal{0.30 + 0.05 * static_cast<double>(prng.range(0, 3))};
    const std::string context = "trial " + std::to_string(trial) + " " +
                                std::to_string(rows) + "x" +
                                std::to_string(cols);

    const SearchResult reference = customize_greedy(arch, goal);
    Session session;
    SearchOptions options;
    options.session = &session;
    const SearchResult populating = customize_greedy(arch, goal, options);
    const std::uint64_t hits_before = session.stats().hits;
    const SearchResult warm = customize_greedy(arch, goal, options);
    expect_same_search(populating, reference, "populating " + context);
    expect_same_search(warm, reference, "warm " + context);
    EXPECT_GT(session.stats().hits, hits_before) << context;
  }
}

TEST(Session, ExhaustiveAndExploreHitAcrossInvocations) {
  const tech::ArchParams arch = small_arch(5, 5);
  const Goal goal{0.45};
  const std::vector<int> rows{2, 3};
  const std::vector<int> cols{3};

  const SearchResult reference =
      customize_exhaustive(arch, goal, rows, cols);
  Session session;
  SearchOptions options;
  options.session = &session;
  expect_same_search(customize_exhaustive(arch, goal, rows, cols, options),
                     reference, "exhaustive populating");
  const std::uint64_t misses_before = session.stats().misses;
  expect_same_search(customize_exhaustive(arch, goal, rows, cols, options),
                     reference, "exhaustive warm");
  EXPECT_EQ(session.stats().misses, misses_before) << "warm pass re-screened";

  // explore_shg shares the same candidate space keying: configurations the
  // exhaustive pass screened are warm here too.
  ExploreOptions explore;
  explore.max_row_skips = 2;
  explore.max_col_skips = 2;
  ExploreOptions explore_with_session = explore;
  explore_with_session.session = &session;
  const auto cold_points = explore_shg(arch, explore);
  const auto warm_points = explore_shg(arch, explore_with_session);
  ASSERT_EQ(cold_points.size(), warm_points.size());
  for (std::size_t i = 0; i < cold_points.size(); ++i) {
    EXPECT_EQ(cold_points[i].params, warm_points[i].params) << i;
    EXPECT_EQ(cold_points[i].metrics, warm_points[i].metrics) << i;
    EXPECT_EQ(cold_points[i].label, warm_points[i].label) << i;
  }
}

// ---------------------------------------------------------------------------
// Experiment-engine route-table reuse
// ---------------------------------------------------------------------------

TEST(Session, ExperimentReusesRouteTablesAcrossRuns) {
  eval::ExperimentSpec spec;
  spec.name = "session-tables";
  spec.topologies.push_back(
      eval::TopologyCase{topo::make_mesh(4, 4), {}, "mesh"});
  spec.topologies.push_back(
      eval::TopologyCase{topo::make_torus(4, 4), {}, "torus"});
  spec.traffic.push_back(eval::TrafficCase{"uniform", ""});
  spec.rates = {0.05};
  spec.seeds = {1, 2};
  spec.config.sim.warmup_cycles = 50;
  spec.config.sim.measure_cycles = 150;

  const std::string baseline = experiment_to_json(eval::run_experiment(spec));

  Session session;
  spec.session = &session;
  const std::string first = experiment_to_json(eval::run_experiment(spec));
  EXPECT_EQ(session.artifact_hits(), 0u);
  EXPECT_EQ(session.artifact_misses(), 2u);  // one per topology
  const std::string second = experiment_to_json(eval::run_experiment(spec));
  EXPECT_EQ(session.artifact_hits(), 2u);  // both tables reused

  EXPECT_EQ(first, baseline);
  EXPECT_EQ(second, baseline);
}

TEST(Session, RouteTableKeysDistinguishFamilyKinds) {
  // Regression: the default routing function switches on topo.kind()
  // (mesh -> xy-hamming, custom -> table-escape), so two topologies with
  // IDENTICAL edge sets but different kinds must not share a cached route
  // table — a kind-blind key served the mesh's xy-routed table to the
  // custom topology and changed its report.
  const topo::Topology mesh = topo::make_mesh(4, 4);
  topo::Topology custom(topo::Kind::kCustom, "mesh-edges-custom", 4, 4);
  for (const graph::Edge& e : mesh.graph().edges()) {
    custom.add_link(e.u, e.v);
  }
  ASSERT_EQ(fingerprint_topology(mesh), fingerprint_topology(custom));

  eval::ExperimentSpec spec;
  spec.name = "kind-keying";
  spec.traffic.push_back(eval::TrafficCase{"uniform", ""});
  spec.rates = {0.05};
  spec.config.sim.warmup_cycles = 50;
  spec.config.sim.measure_cycles = 150;

  auto run_json = [&](const topo::Topology& t, Session* session) {
    eval::ExperimentSpec s = spec;
    s.topologies.push_back(eval::TopologyCase{t, {}, "t"});
    s.session = session;
    return experiment_to_json(eval::run_experiment(s));
  };
  const std::string mesh_ref = run_json(mesh, nullptr);
  const std::string custom_ref = run_json(custom, nullptr);

  Session session;
  EXPECT_EQ(run_json(mesh, &session), mesh_ref);
  EXPECT_EQ(run_json(custom, &session), custom_ref);
  EXPECT_EQ(session.artifact_hits(), 0u)
      << "different kinds must not share a table";
  // Same-kind, same-edges re-run still reuses its table.
  EXPECT_EQ(run_json(mesh, &session), mesh_ref);
  EXPECT_EQ(session.artifact_hits(), 1u);
}

}  // namespace
}  // namespace shg::customize
