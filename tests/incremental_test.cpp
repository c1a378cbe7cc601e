// Product-form vs full screening equivalence (customize/incremental.hpp):
// batch screening must match per-candidate screening bit-for-bit on square
// and non-square grids, and every search surface (greedy, exhaustive,
// explore) must return what a reference loop over `screen_candidate`
// returns.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "shg/common/prng.hpp"
#include "shg/customize/explore.hpp"
#include "shg/customize/incremental.hpp"
#include "shg/customize/search.hpp"
#include "shg/customize/session.hpp"
#include "shg/model/cost_model.hpp"
#include "shg/tech/presets.hpp"
#include "shg/topo/generators.hpp"
#include "exhaustive_search.hpp"
#include "screening_oracle.hpp"

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
/// `select_greedy_candidate` — customize_greedy's contract without
/// product-form screening.
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
/// skips per dimension) screened in product form must match the
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

/// KNC scenario (a) parameters on a rows x cols grid.
ArchParams grid_arch(int rows, int cols) {
  ArchParams arch = knc_scenario(KncScenario::kA);
  arch.rows = rows;
  arch.cols = cols;
  return arch;
}

/// Random skip sets on `arch`, each distance present with probability p.
topo::ShgParams random_params(const ArchParams& arch, Prng& prng, double p) {
  topo::ShgParams params;
  for (int x = 2; x < arch.cols; ++x) {
    if (prng.chance(p)) params.row_skips.insert(x);
  }
  for (int x = 2; x < arch.rows; ++x) {
    if (prng.chance(p)) params.col_skips.insert(x);
  }
  return params;
}

TEST(ScreeningBatch, RandomBatchesMatchFullScreening) {
  // Non-square and single-line grids: an h/v axis swap anywhere in the
  // product form changes the peaks, the radix or the hop totals there.
  for (const ArchParams& arch :
       {knc_scenario(KncScenario::kA), grid_arch(7, 13), grid_arch(13, 5),
        grid_arch(1, 12), grid_arch(12, 1)}) {
    SCOPED_TRACE(std::to_string(arch.rows) + "x" + std::to_string(arch.cols));
    Prng prng(42);
    std::vector<topo::ShgParams> batch;
    batch.push_back(topo::ShgParams{});  // the mesh
    for (int i = 0; i < 24; ++i) batch.push_back(random_params(arch, prng, 0.3));
    batch.push_back(batch[3]);  // duplicates must screen consistently
    // A greedy-style neighborhood: every candidate shares one axis with
    // batch[1], so most summaries serve several candidates.
    for (int x = 2; x < arch.cols; ++x) {
      topo::ShgParams neighbor = batch[1];
      if (neighbor.row_skips.insert(x).second) batch.push_back(neighbor);
    }
    for (int x = 2; x < arch.rows; ++x) {
      topo::ShgParams neighbor = batch[1];
      if (neighbor.col_skips.insert(x).second) batch.push_back(neighbor);
    }

    const std::vector<CandidateMetrics> product =
        screen_batch_incremental(arch, batch);
    ASSERT_EQ(product.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      expect_same_metrics(product[i], screen_candidate(arch, batch[i]));
    }
    // The oracle wraps exactly this comparison and must agree.
    EXPECT_NO_THROW(verify_incremental_equivalence(arch, batch));
    EXPECT_TRUE(screen_batch_incremental(arch, {}).empty());
    // Skips must lie in {2..C-1} for rows and {2..R-1} for columns.
    EXPECT_THROW(screen_batch_incremental(
                     arch, {batch[1], topo::ShgParams{{arch.cols}, {}}}),
                 Error);
    EXPECT_THROW(screen_batch_incremental(
                     arch, {batch[1], topo::ShgParams{{}, {arch.rows}}}),
                 Error);
  }
}

/// `count` seeded skip sets of {2..limit-1} with up to three elements, the
/// empty set first.
std::vector<std::set<int>> random_skip_sets(int limit, std::size_t count,
                                            Prng& prng) {
  std::vector<std::set<int>> sets = {{}};
  while (sets.size() < count) {
    std::set<int> skips;
    for (int k = prng.range(1, 3); k > 0; --k) {
      skips.insert(prng.range(2, limit - 1));
    }
    sets.push_back(std::move(skips));
  }
  return sets;
}

TEST(ScreeningGrid, MatchesBatchEntryAndOracle) {
  // 8x16 and unequal set counts: a swapped row/column axis or a transposed
  // product index changes the spacings, the radix or the entry order.
  const ArchParams arch = grid_arch(8, 16);
  Prng prng(20261020);
  const std::vector<std::set<int>> row_sets =
      random_skip_sets(arch.cols, 11, prng);
  const std::vector<std::set<int>> col_sets =
      random_skip_sets(arch.rows, 7, prng);
  std::vector<topo::ShgParams> batch;
  for (const std::set<int>& row : row_sets) {
    for (const std::set<int>& col : col_sets) batch.push_back({row, col});
  }
  const std::vector<CandidateMetrics> grid =
      screen_grid_incremental(arch, row_sets, col_sets);
  const std::vector<CandidateMetrics> explicit_batch =
      screen_batch_incremental(arch, batch);
  ASSERT_EQ(grid.size(), batch.size());
  ASSERT_EQ(explicit_batch.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(grid[i], explicit_batch[i]) << fmt_skip_sets(batch[i]);
  }
  EXPECT_NO_THROW(verify_grid_equivalence(arch, row_sets, col_sets));

  EXPECT_TRUE(screen_grid_incremental(arch, {}, col_sets).empty());
  EXPECT_TRUE(screen_grid_incremental(arch, row_sets, {}).empty());
  // Skips must lie in {2..C-1} for rows and {2..R-1} for columns.
  EXPECT_THROW(screen_grid_incremental(arch, {{arch.cols}}, {{}}), Error);
  EXPECT_THROW(screen_grid_incremental(arch, {{}}, {{arch.rows}}), Error);
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

/// explore_shg and explore_ruche on `arch` must enumerate in the expected
/// order, label each point, and match screen_candidate on every point.
void expect_explore_matches(const ArchParams& arch) {
  SCOPED_TRACE(std::to_string(arch.rows) + "x" + std::to_string(arch.cols));
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

TEST(Explore, PointsMatchScreenCandidate) {
  expect_explore_matches(knc_scenario(KncScenario::kA));
  // Non-square, so an h/v axis swap in the product form cannot go unseen.
  expect_explore_matches(grid_arch(7, 13));
}

TEST(Explore, RucheWithSessionMatchesWithout) {
  // explore_ruche screens through the session's batch when one is attached
  // and through the grid entry otherwise; cold and warm sessions must give
  // the points of the sessionless run.
  const ArchParams arch = grid_arch(8, 16);
  const std::vector<ExploredPoint> reference = explore_ruche(arch, {});
  Session session;
  ExploreOptions options;
  options.session = &session;
  for (const char* pass : {"cold", "warm"}) {
    SCOPED_TRACE(pass);
    const std::vector<ExploredPoint> points = explore_ruche(arch, options);
    ASSERT_EQ(points.size(), reference.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(points[i].params, reference[i].params) << i;
      EXPECT_EQ(points[i].metrics, reference[i].metrics) << i;
      EXPECT_EQ(points[i].label, reference[i].label) << i;
    }
  }
  EXPECT_EQ(session.stats().misses, reference.size());
  EXPECT_EQ(session.stats().hits, reference.size());
}

}  // namespace
}  // namespace shg::customize
