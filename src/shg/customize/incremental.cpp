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

/// What screening needs from one axis: the line and the peak load of each
/// channel parallel to it.
struct AxisSummary {
  topo::ShgLine line;
  std::vector<int> peaks;
};

}  // namespace

std::vector<CandidateMetrics> screen_batch_incremental(
    const tech::ArchParams& arch, const std::vector<topo::ShgParams>& batch) {
  std::vector<CandidateMetrics> out(batch.size());
  if (batch.empty()) return out;

  // Step 1: the distinct row-skip and column-skip sets, numbered in order
  // of first appearance; summary k of `axes` belongs to axis task k.
  std::map<std::set<int>, std::size_t> row_index;
  std::map<std::set<int>, std::size_t> col_index;
  std::vector<std::pair<const std::set<int>*, bool>> axes;  // skips, horizontal
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

  // Step 2: one routed profile and one line per distinct skip set. Each
  // task fills its own slot.
  std::vector<AxisSummary> summaries(axes.size());
  parallel_for(axes.size(), [&](std::size_t k) {
    const auto [skips, horizontal] = axes[k];
    AxisSummary& summary = summaries[k];
    const std::vector<std::vector<int>> loads =
        phys::axis_route_loads(arch.rows, arch.cols, horizontal, *skips);
    summary.peaks.reserve(loads.size());
    for (const std::vector<int>& channel : loads) {
      summary.peaks.push_back(
          channel.empty() ? 0
                          : *std::max_element(channel.begin(), channel.end()));
    }
    summary.line = topo::shg_line(horizontal ? arch.cols : arch.rows, *skips);
  });

  // Step 3: each candidate from its two summaries.
  model::TileGeometryCache tile_cache;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const AxisSummary& row = summaries[row_of[i]];
    const AxisSummary& col = summaries[col_of[i]];
    const model::ScreeningCost cost = model::evaluate_screening_cost(
        arch, row.line.max_degree + col.line.max_degree, row.peaks,
        col.peaks, &tile_cache);
    out[i] = make_metrics(
        cost,
        topo::product_hop_totals(arch.rows, arch.cols, row.line, col.line),
        arch.num_tiles(),
        arch.rows * row.line.num_links + arch.cols * col.line.num_links);
  }
  return out;
}

}  // namespace shg::customize
