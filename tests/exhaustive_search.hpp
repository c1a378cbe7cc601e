// Exhaustive SHG customization for tests: every subset of the given
// candidate skip distances, screened in one product-form batch (through the
// session's candidate tier when one is attached). Exponential, so it suits
// small grids only; the suites use it to validate the greedy strategy and
// the session's warm re-invocation contract.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "shg/common/error.hpp"
#include "shg/customize/incremental.hpp"
#include "shg/customize/search.hpp"
#include "shg/customize/session.hpp"
#include "shg/model/cost_model.hpp"
#include "shg/topo/generators.hpp"

namespace shg::customize {

/// Lexicographic objective: higher throughput bound first, then lower
/// average hop count (throughput priority 1, latency priority 2).
inline bool better(const CandidateMetrics& a, const CandidateMetrics& b) {
  if (a.throughput_bound != b.throughput_bound) {
    return a.throughput_bound > b.throughput_bound;
  }
  return a.avg_hops < b.avg_hops;
}

/// The first best parameterization within the area budget, in row-mask-
/// major enumeration order over the candidate subsets.
inline SearchResult customize_exhaustive(
    const tech::ArchParams& arch, const Goal& goal,
    const std::vector<int>& row_candidates,
    const std::vector<int>& col_candidates, const SearchOptions& options = {}) {
  SHG_REQUIRE(row_candidates.size() + col_candidates.size() <= 20,
              "exhaustive search is exponential; use fewer candidates");
  const std::size_t row_masks = std::size_t{1} << row_candidates.size();
  const std::size_t col_masks = std::size_t{1} << col_candidates.size();
  std::vector<topo::ShgParams> batch;
  batch.reserve(row_masks * col_masks);
  for (std::size_t rm = 0; rm < row_masks; ++rm) {
    for (std::size_t cm = 0; cm < col_masks; ++cm) {
      topo::ShgParams params;
      for (std::size_t i = 0; i < row_candidates.size(); ++i) {
        if ((rm >> i) & 1) params.row_skips.insert(row_candidates[i]);
      }
      for (std::size_t i = 0; i < col_candidates.size(); ++i) {
        if ((cm >> i) & 1) params.col_skips.insert(col_candidates[i]);
      }
      batch.push_back(std::move(params));
    }
  }
  const std::vector<CandidateMetrics> screened =
      options.session != nullptr
          ? screen_batch_cached(arch, batch, *options.session)
          : screen_batch_incremental(arch, batch);

  SearchResult best;
  bool have_best = false;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const CandidateMetrics& metrics = screened[i];
    if (metrics.area_overhead > goal.max_area_overhead) continue;
    if (!have_best || better(metrics, best.metrics)) {
      have_best = true;
      best.params = std::move(batch[i]);
      best.metrics = metrics;
    }
  }
  SHG_REQUIRE(have_best, "no parameterization fits the area budget");
  best.cost = model::evaluate_cost(
      arch, topo::make_sparse_hamming(arch.rows, arch.cols,
                                      best.params.row_skips,
                                      best.params.col_skips));
  best.history.push_back(SearchStep{best.params, best.metrics, "exhaustive"});
  return best;
}

}  // namespace shg::customize
