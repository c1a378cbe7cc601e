#include "shg/customize/incremental.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "shg/common/parallel.hpp"
#include "shg/model/cost_model.hpp"
#include "shg/phys/global_route.hpp"
#include "shg/topo/generators.hpp"

namespace shg::customize {

namespace {

/// Assembles CandidateMetrics from exact integer hop totals with the same
/// expressions screen_topology evaluates over distance_summary (same
/// operands, same order — bit-identical doubles).
CandidateMetrics make_metrics(const model::ScreeningCost& cost,
                              const graph::AllPairsTotals& totals,
                              int num_tiles, long long num_edges) {
  const long long n = num_tiles;
  SHG_REQUIRE(totals.reachable_pairs == n * n,
              "screening requires a connected topology");
  CandidateMetrics metrics;
  metrics.area_overhead = cost.area_overhead;
  const long long pairs = totals.reachable_pairs - n;  // exclude (u, u)
  if (pairs > 0) {
    metrics.avg_hops =
        static_cast<double>(totals.sum) / static_cast<double>(pairs);
  }
  metrics.diameter = static_cast<double>(totals.diameter);
  const double directed_links = 2.0 * static_cast<double>(num_edges);
  metrics.throughput_bound =
      directed_links / (static_cast<double>(num_tiles) * metrics.avg_hops);
  return metrics;
}

/// What screening needs from one axis: the line and the step-3 spacing of
/// each channel parallel to it.
struct AxisSummary {
  topo::ShgLine line;
  model::AxisSpacing spacing;
};

/// (skips, horizontal) of one axis to summarize.
using AxisTask = std::pair<const std::set<int>*, bool>;

/// One routed profile, one priced spacing and one line per task. Each task
/// fills its own slot.
std::vector<AxisSummary> summarize_axes(const tech::ArchParams& arch,
                                        const std::vector<AxisTask>& axes) {
  std::vector<AxisSummary> summaries(axes.size());
  parallel_for(axes.size(), [&](std::size_t k) {
    const auto [skips, horizontal] = axes[k];
    const std::vector<std::vector<int>> loads =
        phys::axis_route_loads(arch.rows, arch.cols, horizontal, *skips);
    std::vector<int> peaks;
    for (const std::vector<int>& channel : loads) {
      peaks.push_back(channel.empty() ? 0 : std::ranges::max(channel));
    }
    summaries[k].spacing = model::AxisSpacing(arch, horizontal, peaks);
    summaries[k].line =
        topo::shg_line(horizontal ? arch.cols : arch.rows, *skips);
  });
  return summaries;
}

/// One candidate from its row and column summaries, in constant time.
CandidateMetrics combine(const tech::ArchParams& arch, const AxisSummary& row,
                         const AxisSummary& col,
                         model::TileGeometryCache& tile_cache) {
  const model::ScreeningCost cost = model::evaluate_screening_cost(
      arch, row.line.max_degree + col.line.max_degree, row.spacing,
      col.spacing, &tile_cache);
  return make_metrics(
      cost, topo::product_hop_totals(arch.rows, arch.cols, row.line, col.line),
      arch.num_tiles(),
      arch.rows * row.line.num_links + arch.cols * col.line.num_links);
}

}  // namespace

std::vector<CandidateMetrics> screen_batch_incremental(
    const tech::ArchParams& arch, const std::vector<topo::ShgParams>& batch) {
  std::vector<CandidateMetrics> out(batch.size());
  if (batch.empty()) return out;

  // Step 1: the distinct row-skip and column-skip sets, numbered in order
  // of first appearance; summary k belongs to axis task k.
  std::map<std::set<int>, std::size_t> row_index;
  std::map<std::set<int>, std::size_t> col_index;
  std::vector<AxisTask> axes;
  std::vector<std::size_t> row_of(batch.size());
  std::vector<std::size_t> col_of(batch.size());
  auto summary_index = [&](std::map<std::set<int>, std::size_t>& index,
                           const std::set<int>& skips, bool horizontal) {
    const auto [it, inserted] = index.try_emplace(skips, axes.size());
    if (inserted) axes.emplace_back(&it->first, horizontal);
    return it->second;
  };
  for (std::size_t i = 0; i < batch.size(); ++i) {
    row_of[i] = summary_index(row_index, batch[i].row_skips, true);
    col_of[i] = summary_index(col_index, batch[i].col_skips, false);
  }

  // Steps 2 and 3: one summary per distinct set, then each candidate.
  const std::vector<AxisSummary> summaries = summarize_axes(arch, axes);
  model::TileGeometryCache tile_cache;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    out[i] = combine(arch, summaries[row_of[i]], summaries[col_of[i]],
                     tile_cache);
  }
  return out;
}

std::vector<CandidateMetrics> screen_grid_incremental(
    const tech::ArchParams& arch, const std::vector<std::set<int>>& row_sets,
    const std::vector<std::set<int>>& col_sets) {
  std::vector<AxisTask> axes;
  for (const std::set<int>& skips : row_sets) axes.emplace_back(&skips, true);
  for (const std::set<int>& skips : col_sets) axes.emplace_back(&skips, false);
  const std::vector<AxisSummary> summaries = summarize_axes(arch, axes);
  std::vector<CandidateMetrics> out;
  out.reserve(row_sets.size() * col_sets.size());
  model::TileGeometryCache tile_cache;
  for (std::size_t r = 0; r < row_sets.size(); ++r) {
    for (std::size_t c = 0; c < col_sets.size(); ++c) {
      out.push_back(combine(arch, summaries[r],
                            summaries[row_sets.size() + c], tile_cache));
    }
  }
  return out;
}

}  // namespace shg::customize
