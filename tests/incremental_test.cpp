// Incremental-vs-full screening equivalence (customize/incremental.hpp):
// context and batch screening must match per-candidate screening
// bit-for-bit, and every search surface (greedy, exhaustive, explore) must
// return what a reference loop over `screen_candidate` returns.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "shg/common/prng.hpp"
#include "shg/customize/explore.hpp"
#include "shg/customize/incremental.hpp"
#include "shg/customize/search.hpp"
#include "shg/model/cost_model.hpp"
#include "shg/tech/presets.hpp"
#include "shg/topo/generators.hpp"

namespace shg::customize {
namespace {

using tech::ArchParams;
using tech::KncScenario;
using tech::knc_scenario;

void expect_same_metrics(const CandidateMetrics& a, const CandidateMetrics& b) {
  // Bit-identical, not approximately equal: the product-form hop totals are
  // the same integers as the all-pairs sweep, and the area side runs the
  // same arithmetic.
  EXPECT_EQ(a.area_overhead, b.area_overhead);
  EXPECT_EQ(a.avg_hops, b.avg_hops);
  EXPECT_EQ(a.diameter, b.diameter);
  EXPECT_EQ(a.throughput_bound, b.throughput_bound);
}

/// Compares a search result against a reference one: per-step params and
/// metric bits, the winner, and the final report's areas (reference notes
/// are not rendered).
void expect_same_search_result(const SearchResult& a, const SearchResult& b) {
  EXPECT_EQ(a.params, b.params);
  expect_same_metrics(a.metrics, b.metrics);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].params, b.history[i].params);
    expect_same_metrics(a.history[i].metrics, b.history[i].metrics);
  }
  EXPECT_EQ(a.cost.area_overhead, b.cost.area_overhead);
  EXPECT_EQ(a.cost.total_area_mm2, b.cost.total_area_mm2);
}

model::CostReport full_cost(const ArchParams& arch,
                            const topo::ShgParams& params) {
  return model::evaluate_cost(
      arch, topo::make_sparse_hamming(arch.rows, arch.cols, params.row_skips,
                                      params.col_skips));
}

/// Reference greedy search: every neighborhood is screened candidate by
/// candidate with `screen_candidate` and the winner is picked by
/// `select_greedy_candidate` — customize_greedy's contract without its
/// screening context.
SearchResult reference_greedy(const ArchParams& arch, const Goal& goal) {
  SearchResult result;
  result.metrics = screen_candidate(arch, result.params);
  result.history.push_back(SearchStep{result.params, result.metrics, ""});
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
    std::vector<CandidateMetrics> screened;
    for (const topo::ShgParams& params : batch) {
      screened.push_back(screen_candidate(arch, params));
    }
    const std::size_t pick =
        select_greedy_candidate(result.metrics, screened, goal);
    if (pick == kNoCandidate) break;
    result.params = batch[pick];
    result.metrics = screened[pick];
    result.history.push_back(SearchStep{result.params, result.metrics, ""});
  }
  result.cost = full_cost(arch, result.params);
  return result;
}

/// Reference exhaustive search: every subset of the candidates, in
/// customize_exhaustive's enumeration order, screened with
/// `screen_candidate`; the first best (throughput bound, then avg hops)
/// within budget wins.
SearchResult reference_exhaustive(const ArchParams& arch, const Goal& goal,
                                  const std::vector<int>& row_candidates,
                                  const std::vector<int>& col_candidates) {
  SearchResult best;
  bool have_best = false;
  for (std::size_t rm = 0; rm < (std::size_t{1} << row_candidates.size());
       ++rm) {
    for (std::size_t cm = 0; cm < (std::size_t{1} << col_candidates.size());
         ++cm) {
      topo::ShgParams params;
      for (std::size_t i = 0; i < row_candidates.size(); ++i) {
        if ((rm >> i) & 1) params.row_skips.insert(row_candidates[i]);
      }
      for (std::size_t i = 0; i < col_candidates.size(); ++i) {
        if ((cm >> i) & 1) params.col_skips.insert(col_candidates[i]);
      }
      const CandidateMetrics metrics = screen_candidate(arch, params);
      if (metrics.area_overhead > goal.max_area_overhead) continue;
      const bool better =
          metrics.throughput_bound != best.metrics.throughput_bound
              ? metrics.throughput_bound > best.metrics.throughput_bound
              : metrics.avg_hops < best.metrics.avg_hops;
      if (!have_best || better) {
        have_best = true;
        best.params = params;
        best.metrics = metrics;
      }
    }
  }
  best.cost = full_cost(arch, best.params);
  best.history.push_back(SearchStep{best.params, best.metrics, ""});
  return best;
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
/// per-candidate oracle bit for bit.
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
  // The topology-free path (routing context + product-form hop totals)
  // must match screen_candidate on the materialized child, candidate by
  // candidate.
  const ArchParams arch = knc_scenario(KncScenario::kA);
  const topo::ShgParams parent{{3}, {2}};
  const ScreeningContext ctx(arch, parent);
  expect_same_metrics(ctx.metrics(), screen_candidate(arch, parent));
  ScreeningContext::Workspace ws;
  model::TileGeometryCache tile_cache;
  for (const topo::ShgParams& child :
       {topo::ShgParams{{3, 4}, {2}}, topo::ShgParams{{3}, {2, 6}},
        topo::ShgParams{{3, 5, 7}, {2, 4}}, parent}) {
    expect_same_metrics(ctx.screen_child(child, &tile_cache, &ws),
                        screen_candidate(arch, child));
  }
  EXPECT_THROW(ctx.screen_child(topo::ShgParams{}), Error);
  // Rebase keeps the routing context keyed to the new parent.
  ScreeningContext rebased(arch, parent);
  rebased.rebase(topo::ShgParams{{3, 4}, {2}});
  expect_same_metrics(
      rebased.screen_child(topo::ShgParams{{3, 4}, {2, 6}}),
      screen_candidate(arch, topo::ShgParams{{3, 4}, {2, 6}}));
}

TEST(Greedy, MatchesReferenceLoop) {
  const ArchParams arch = knc_scenario(KncScenario::kA);
  for (double budget : {0.15, 0.40}) {
    SCOPED_TRACE(budget);
    expect_same_search_result(customize_greedy(arch, Goal{budget}),
                              reference_greedy(arch, Goal{budget}));
  }
}

TEST(Exhaustive, MatchesBruteForce) {
  const ArchParams arch = knc_scenario(KncScenario::kA);
  expect_same_search_result(
      customize_exhaustive(arch, Goal{0.30}, {2, 3, 4}, {2, 3}),
      reference_exhaustive(arch, Goal{0.30}, {2, 3, 4}, {2, 3}));
  // Unsorted candidate lists exercise the canonical element ordering.
  expect_same_search_result(
      customize_exhaustive(arch, Goal{0.35}, {5, 2}, {4, 3}),
      reference_exhaustive(arch, Goal{0.35}, {5, 2}, {4, 3}));
}

TEST(Explore, PointsMatchScreenCandidate) {
  const ArchParams arch = knc_scenario(KncScenario::kA);
  const ExploreOptions options;
  // Expected enumerations: explore_shg nests SC subsets (up to two skips)
  // inside SR subsets; explore_ruche nests one-or-no column skips inside
  // one-or-no row skips.
  std::vector<topo::ShgParams> shg;
  for (const std::set<int>& rows : skip_subsets_up_to_two(arch.cols)) {
    for (const std::set<int>& cols : skip_subsets_up_to_two(arch.rows)) {
      shg.push_back(topo::ShgParams{rows, cols});
    }
  }
  std::vector<topo::ShgParams> ruche;
  for (int rx = 0; rx < arch.cols; ++rx) {
    if (rx == 1) continue;
    for (int ry = 0; ry < arch.rows; ++ry) {
      if (ry == 1) continue;
      topo::ShgParams params;
      if (rx >= 2) params.row_skips.insert(rx);
      if (ry >= 2) params.col_skips.insert(ry);
      ruche.push_back(std::move(params));
    }
  }
  const struct {
    std::vector<ExploredPoint> points;
    const std::vector<topo::ShgParams>* expected;
    const char* family;
  } cases[] = {{explore_shg(arch, options), &shg, "shg"},
               {explore_ruche(arch, options), &ruche, "ruche"}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.family);
    ASSERT_EQ(c.points.size(), c.expected->size());
    for (std::size_t i = 0; i < c.points.size(); ++i) {
      const topo::ShgParams& params = (*c.expected)[i];
      const ExploredPoint& point = c.points[i];
      EXPECT_EQ(point.params, params);
      EXPECT_EQ(point.label,
                std::string(c.family) + " " + fmt_skip_sets(params));
      expect_same_metrics(point.metrics, screen_candidate(arch, params));
    }
  }
}

}  // namespace
}  // namespace shg::customize
