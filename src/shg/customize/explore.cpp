#include "shg/customize/explore.hpp"

#include <algorithm>
#include <functional>
#include <sstream>

#include "shg/common/strings.hpp"
#include "shg/customize/incremental.hpp"
#include "shg/customize/session.hpp"

namespace shg::customize {

namespace {

/// Enumerates subsets of {2..limit-1} with at most `max_size` elements.
void for_each_skip_subset(int limit, int max_size,
                          const std::function<void(const std::set<int>&)>& fn) {
  std::set<int> current;
  std::function<void(int, int)> rec = [&](int next, int remaining) {
    fn(current);
    if (remaining == 0) return;
    for (int x = next; x < limit; ++x) {
      current.insert(x);
      rec(x + 1, remaining - 1);
      current.erase(x);
    }
  };
  rec(2, max_size);
}

std::string label_for(const topo::ShgParams& params, const char* family) {
  std::ostringstream os;
  os << family << " SR=" << fmt_int_set(params.row_skips)
     << " SC=" << fmt_int_set(params.col_skips);
  return os.str();
}

/// Screens every enumerated parameterization in product form (through the
/// session's cache when one is attached), then labels in
/// enumeration order — each point's metrics are bit-identical to
/// `screen_candidate` on its parameterization.
std::vector<ExploredPoint> screen_all(const tech::ArchParams& arch,
                                      std::vector<topo::ShgParams> batch,
                                      const ExploreOptions& options,
                                      const char* family) {
  const std::vector<CandidateMetrics> metrics =
      options.session != nullptr
          ? screen_batch_cached(arch, batch, *options.session)
          : screen_batch_incremental(arch, batch);
  std::vector<ExploredPoint> points;
  points.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    std::string label = label_for(batch[i], family);
    points.push_back(
        ExploredPoint{std::move(batch[i]), metrics[i], std::move(label)});
  }
  return points;
}

}  // namespace

std::vector<ExploredPoint> explore_shg(const tech::ArchParams& arch,
                                       const ExploreOptions& options) {
  std::vector<topo::ShgParams> batch;
  for_each_skip_subset(arch.cols, options.max_row_skips,
                       [&](const std::set<int>& row_skips) {
    for_each_skip_subset(arch.rows, options.max_col_skips,
                         [&](const std::set<int>& col_skips) {
      batch.push_back(topo::ShgParams{row_skips, col_skips});
    });
  });
  return screen_all(arch, std::move(batch), options, "shg");
}

std::vector<ExploredPoint> explore_ruche(const tech::ArchParams& arch,
                                         const ExploreOptions& options) {
  // Ruche networks: exactly one skip distance (or none) per dimension.
  std::vector<topo::ShgParams> batch;
  for (int rx = 0; rx < arch.cols; ++rx) {
    if (rx == 1) continue;  // 0 = no skip; skips start at 2
    for (int ry = 0; ry < arch.rows; ++ry) {
      if (ry == 1) continue;
      topo::ShgParams params;
      if (rx >= 2) params.row_skips.insert(rx);
      if (ry >= 2) params.col_skips.insert(ry);
      batch.push_back(std::move(params));
    }
  }
  return screen_all(arch, std::move(batch), options, "ruche");
}

std::vector<ExploredPoint> trade_off_front(std::vector<ExploredPoint> points) {
  // Lexicographic order (area up, throughput down, hops up): every point
  // that dominates another sorts strictly before it, so one pass that
  // tests each point against the non-dominated points found so far finds
  // the same front as testing it against all points. The latest kept
  // points are the nearest in area, so they are tried first.
  auto dominates = [](const CandidateMetrics& a, const CandidateMetrics& b) {
    const bool no_worse = a.area_overhead <= b.area_overhead &&
                          a.throughput_bound >= b.throughput_bound &&
                          a.avg_hops <= b.avg_hops;
    const bool strictly_better = a.area_overhead < b.area_overhead ||
                                 a.throughput_bound > b.throughput_bound ||
                                 a.avg_hops < b.avg_hops;
    return no_worse && strictly_better;
  };
  std::vector<std::size_t> order(points.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
    const CandidateMetrics& a = points[i].metrics;
    const CandidateMetrics& b = points[j].metrics;
    if (a.area_overhead != b.area_overhead) {
      return a.area_overhead < b.area_overhead;
    }
    if (a.throughput_bound != b.throughput_bound) {
      return a.throughput_bound > b.throughput_bound;
    }
    return a.avg_hops < b.avg_hops;
  });
  std::vector<std::size_t> kept;
  for (const std::size_t i : order) {
    const bool dominated =
        std::any_of(kept.rbegin(), kept.rend(), [&](std::size_t k) {
          return dominates(points[k].metrics, points[i].metrics);
        });
    if (!dominated) kept.push_back(i);
  }
  // The front in input order, then the final sort: std::sort is not
  // stable, so feeding it the same sequence as the all-pairs scan did keeps
  // the output bytes unchanged.
  std::sort(kept.begin(), kept.end());
  std::vector<ExploredPoint> front;
  front.reserve(kept.size());
  for (const std::size_t i : kept) front.push_back(std::move(points[i]));
  std::sort(front.begin(), front.end(),
            [](const ExploredPoint& a, const ExploredPoint& b) {
              return a.metrics.area_overhead < b.metrics.area_overhead;
            });
  return front;
}

double front_coverage(const std::vector<ExploredPoint>& front,
                      double max_overhead) {
  SHG_REQUIRE(max_overhead > 0.0, "coverage bound must be positive");
  // Staircase integral of throughput_bound over [0, max_overhead]: at each
  // overhead level, the best bound achievable at or below it.
  std::vector<const ExploredPoint*> sorted;
  for (const auto& p : front) sorted.push_back(&p);
  std::sort(sorted.begin(), sorted.end(),
            [](const ExploredPoint* a, const ExploredPoint* b) {
              return a->metrics.area_overhead < b->metrics.area_overhead;
            });
  double coverage = 0.0;
  double best = 0.0;
  double prev_overhead = 0.0;
  for (const auto* p : sorted) {
    const double overhead = std::min(p->metrics.area_overhead, max_overhead);
    if (overhead > prev_overhead) {
      coverage += best * (overhead - prev_overhead);
      prev_overhead = overhead;
    }
    best = std::max(best, p->metrics.throughput_bound);
  }
  coverage += best * std::max(0.0, max_overhead - prev_overhead);
  return coverage;
}

}  // namespace shg::customize
