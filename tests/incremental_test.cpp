// Incremental-vs-full screening equivalence (customize/incremental.hpp):
// context and batch screening must match per-candidate screening
// bit-for-bit, and every search surface (greedy, exhaustive, explore) must
// return identical results with the incremental context on and off.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "shg/common/prng.hpp"
#include "shg/customize/explore.hpp"
#include "shg/customize/incremental.hpp"
#include "shg/customize/search.hpp"
#include "shg/tech/presets.hpp"
#include "shg/topo/generators.hpp"

namespace shg::customize {
namespace {

using tech::ArchParams;
using tech::KncScenario;
using tech::knc_scenario;

void expect_same_metrics(const CandidateMetrics& a, const CandidateMetrics& b) {
  // Bit-identical, not approximately equal: the repair reproduces the same
  // integer distance matrix, and the area side runs the same arithmetic.
  EXPECT_EQ(a.area_overhead, b.area_overhead);
  EXPECT_EQ(a.avg_hops, b.avg_hops);
  EXPECT_EQ(a.diameter, b.diameter);
  EXPECT_EQ(a.throughput_bound, b.throughput_bound);
}

void expect_same_search_result(const SearchResult& a, const SearchResult& b) {
  EXPECT_EQ(a.params, b.params);
  expect_same_metrics(a.metrics, b.metrics);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].params, b.history[i].params);
    expect_same_metrics(a.history[i].metrics, b.history[i].metrics);
    EXPECT_EQ(a.history[i].note, b.history[i].note);
  }
  EXPECT_EQ(a.cost.area_overhead, b.cost.area_overhead);
  EXPECT_EQ(a.cost.total_area_mm2, b.cost.total_area_mm2);
}

/// Subsets of {2..limit-1} with at most two elements, in explore_shg's
/// enumeration order.
std::vector<std::set<int>> skip_subsets_up_to_two(int limit) {
  std::vector<std::set<int>> subsets = {{}};
  for (int x = 2; x < limit; ++x) {
    subsets.push_back({x});
    for (int y = x + 1; y < limit; ++y) subsets.push_back({x, y});
  }
  return subsets;
}

/// A seeded 200-candidate sample of the 16x16 explore_shg space (up to two
/// skips per dimension) screened through the prefix forest must match the
/// per-candidate oracle bit for bit, with routing reuse on and off.
TEST(ScreeningBatch, ExploreShgSampleMatchesOracle) {
  ArchParams arch = knc_scenario(KncScenario::kA);
  arch.rows = 16;
  arch.cols = 16;
  const std::vector<std::set<int>> rows = skip_subsets_up_to_two(arch.cols);
  const std::vector<std::set<int>> cols = skip_subsets_up_to_two(arch.rows);
  Prng prng(20261017);
  std::set<std::pair<std::size_t, std::size_t>> picked;
  std::vector<topo::ShgParams> sample;
  int two_plus_two = 0;
  while (sample.size() < 200) {
    const std::size_t r = prng.below(rows.size());
    const std::size_t c = prng.below(cols.size());
    if (!picked.emplace(r, c).second) continue;
    sample.push_back(topo::ShgParams{rows[r], cols[c]});
    if (rows[r].size() == 2 && cols[c].size() == 2) ++two_plus_two;
  }
  ASSERT_GT(two_plus_two, 0);
  EXPECT_NO_THROW(verify_incremental_equivalence(arch, sample));
  EXPECT_NO_THROW(
      verify_incremental_equivalence(arch, sample, ScreeningOptions{false}));
}

TEST(ScreeningContext, ChildMatchesScreenCandidate) {
  const ArchParams arch = knc_scenario(KncScenario::kA);
  const ScreeningContext mesh_ctx(arch, topo::ShgParams{});
  expect_same_metrics(mesh_ctx.metrics(),
                      screen_candidate(arch, topo::ShgParams{}));
  for (const topo::ShgParams& child :
       {topo::ShgParams{{2}, {}}, topo::ShgParams{{5}, {}},
        topo::ShgParams{{}, {3}}, topo::ShgParams{{3, 4}, {2, 6}}}) {
    expect_same_metrics(mesh_ctx.screen_child(child),
                        screen_candidate(arch, child));
  }
  // Non-mesh parent, including derive() and rebase() chains.
  const topo::ShgParams parent{{3}, {2}};
  ScreeningContext ctx(arch, parent);
  const topo::ShgParams step1{{3}, {2, 5}};
  const topo::ShgParams step2{{3, 6}, {2, 5}};
  const ScreeningContext derived = ctx.derive(step1);
  expect_same_metrics(derived.metrics(), screen_candidate(arch, step1));
  expect_same_metrics(derived.screen_child(step2),
                      screen_candidate(arch, step2));
  ctx.rebase(step1);
  expect_same_metrics(ctx.metrics(), screen_candidate(arch, step1));
  expect_same_metrics(ctx.screen_child(step2),
                      screen_candidate(arch, step2));
}

TEST(ScreeningContext, RejectsNonSupersetChildren) {
  const ArchParams arch = knc_scenario(KncScenario::kA);
  const ScreeningContext ctx(arch, topo::ShgParams{{3}, {}});
  // Removing a skip distance deletes edges, which the added-links routing
  // replay cannot express — the context must refuse.
  EXPECT_THROW(ctx.screen_child(topo::ShgParams{}), Error);
  EXPECT_THROW(ctx.screen_child(topo::ShgParams{{4}, {}}), Error);
}

TEST(ScreeningBatch, RandomBatchesMatchFullScreening) {
  const ArchParams arch = knc_scenario(KncScenario::kA);
  Prng prng(42);
  std::vector<topo::ShgParams> batch;
  batch.push_back(topo::ShgParams{});  // the mesh
  for (int i = 0; i < 24; ++i) {
    topo::ShgParams params;
    for (int x = 2; x < arch.cols; ++x) {
      if (prng.chance(0.3)) params.row_skips.insert(x);
    }
    for (int x = 2; x < arch.rows; ++x) {
      if (prng.chance(0.3)) params.col_skips.insert(x);
    }
    batch.push_back(std::move(params));
  }
  batch.push_back(batch[3]);  // duplicates must screen consistently

  const std::vector<CandidateMetrics> incremental =
      screen_batch_incremental(arch, batch);
  ASSERT_EQ(incremental.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    expect_same_metrics(incremental[i], screen_candidate(arch, batch[i]));
  }
  // The oracle wraps exactly this comparison and must agree.
  EXPECT_NO_THROW(verify_incremental_equivalence(arch, batch));
}

TEST(ScreeningContext, RoutingReuseBitIdenticalToMaterializedPath) {
  // The topology-free fast path (routing context + product-form hop
  // totals) and the materialize-and-route path must produce the same bits
  // candidate by candidate, and both must match screen_candidate.
  const ArchParams arch = knc_scenario(KncScenario::kA);
  const topo::ShgParams parent{{3}, {2}};
  const ScreeningContext with_routing(arch, parent, ScreeningOptions{true});
  const ScreeningContext without_routing(arch, parent,
                                         ScreeningOptions{false});
  expect_same_metrics(with_routing.metrics(), without_routing.metrics());
  ScreeningContext::Workspace ws;
  model::TileGeometryCache tile_cache;
  for (const topo::ShgParams& child :
       {topo::ShgParams{{3, 4}, {2}}, topo::ShgParams{{3}, {2, 6}},
        topo::ShgParams{{3, 5, 7}, {2, 4}}, parent}) {
    const CandidateMetrics fast =
        with_routing.screen_child(child, &tile_cache, &ws);
    expect_same_metrics(fast, without_routing.screen_child(child));
    expect_same_metrics(fast, screen_candidate(arch, child));
  }
  // Non-superset children are rejected on both paths.
  EXPECT_THROW(with_routing.screen_child(topo::ShgParams{}), Error);
  // Rebase keeps the routing context keyed to the new parent.
  ScreeningContext rebased(arch, parent, ScreeningOptions{true});
  rebased.rebase(topo::ShgParams{{3, 4}, {2}});
  expect_same_metrics(
      rebased.screen_child(topo::ShgParams{{3, 4}, {2, 6}}),
      screen_candidate(arch, topo::ShgParams{{3, 4}, {2, 6}}));
}

TEST(ScreeningBatch, RoutingReuseTogglesBitIdentical) {
  const ArchParams arch = knc_scenario(KncScenario::kA);
  Prng prng(7);
  std::vector<topo::ShgParams> batch;
  batch.push_back(topo::ShgParams{});
  for (int i = 0; i < 16; ++i) {
    topo::ShgParams params;
    for (int x = 2; x < arch.cols; ++x) {
      if (prng.chance(0.3)) params.row_skips.insert(x);
    }
    for (int x = 2; x < arch.rows; ++x) {
      if (prng.chance(0.3)) params.col_skips.insert(x);
    }
    batch.push_back(std::move(params));
  }
  const auto with_routing =
      screen_batch_incremental(arch, batch, ScreeningOptions{true});
  const auto without_routing =
      screen_batch_incremental(arch, batch, ScreeningOptions{false});
  ASSERT_EQ(with_routing.size(), without_routing.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    expect_same_metrics(with_routing[i], without_routing[i]);
    expect_same_metrics(with_routing[i], screen_candidate(arch, batch[i]));
  }
  EXPECT_NO_THROW(
      verify_incremental_equivalence(arch, batch, ScreeningOptions{true}));
  EXPECT_NO_THROW(
      verify_incremental_equivalence(arch, batch, ScreeningOptions{false}));
}

TEST(Greedy, RoutingReuseIdenticalOnAndOff) {
  const ArchParams arch = knc_scenario(KncScenario::kA);
  SearchOptions routing_off;
  routing_off.incremental = true;
  routing_off.incremental_routing = false;
  SearchOptions routing_on;
  routing_on.incremental = true;
  routing_on.incremental_routing = true;
  for (double budget : {0.15, 0.40}) {
    expect_same_search_result(
        customize_greedy(arch, Goal{budget}, routing_off),
        customize_greedy(arch, Goal{budget}, routing_on));
  }
}

TEST(Exhaustive, RoutingReuseIdenticalOnAndOff) {
  const ArchParams arch = knc_scenario(KncScenario::kA);
  SearchOptions routing_off;
  routing_off.incremental_routing = false;
  SearchOptions routing_on;
  expect_same_search_result(
      customize_exhaustive(arch, Goal{0.30}, {2, 3, 4}, {2, 3}, routing_off),
      customize_exhaustive(arch, Goal{0.30}, {2, 3, 4}, {2, 3}, routing_on));
}

TEST(Explore, RoutingReuseIdenticalOnAndOff) {
  const ArchParams arch = knc_scenario(KncScenario::kA);
  ExploreOptions routing_off;
  routing_off.incremental_routing = false;
  ExploreOptions routing_on;
  for (auto explore : {explore_shg, explore_ruche}) {
    const auto a = explore(arch, routing_off);
    const auto b = explore(arch, routing_on);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].params, b[i].params);
      EXPECT_EQ(a[i].label, b[i].label);
      expect_same_metrics(a[i].metrics, b[i].metrics);
    }
  }
}

TEST(Greedy, IncrementalIdenticalToFull) {
  const ArchParams arch = knc_scenario(KncScenario::kA);
  SearchOptions full;
  full.incremental = false;
  SearchOptions incremental;
  incremental.incremental = true;
  for (double budget : {0.15, 0.40}) {
    expect_same_search_result(
        customize_greedy(arch, Goal{budget}, full),
        customize_greedy(arch, Goal{budget}, incremental));
  }
}

TEST(Exhaustive, IncrementalIdenticalToFull) {
  const ArchParams arch = knc_scenario(KncScenario::kA);
  SearchOptions full;
  full.incremental = false;
  SearchOptions incremental;
  incremental.incremental = true;
  expect_same_search_result(
      customize_exhaustive(arch, Goal{0.30}, {2, 3, 4}, {2, 3}, full),
      customize_exhaustive(arch, Goal{0.30}, {2, 3, 4}, {2, 3}, incremental));
  // Unsorted candidate lists exercise the canonical element ordering.
  expect_same_search_result(
      customize_exhaustive(arch, Goal{0.35}, {5, 2}, {4, 3}, full),
      customize_exhaustive(arch, Goal{0.35}, {5, 2}, {4, 3}, incremental));
}

TEST(Explore, IncrementalIdenticalToFull) {
  const ArchParams arch = knc_scenario(KncScenario::kA);
  ExploreOptions full;
  full.incremental = false;
  ExploreOptions incremental;
  incremental.incremental = true;
  for (auto explore : {explore_shg, explore_ruche}) {
    const auto a = explore(arch, full);
    const auto b = explore(arch, incremental);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].params, b[i].params);
      EXPECT_EQ(a[i].label, b[i].label);
      expect_same_metrics(a[i].metrics, b[i].metrics);
    }
  }
}

}  // namespace
}  // namespace shg::customize
