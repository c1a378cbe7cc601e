#include "shg/customize/search.hpp"

#include <memory>
#include <sstream>

#include "shg/common/strings.hpp"
#include "shg/customize/incremental.hpp"
#include "shg/customize/session.hpp"
#include "shg/graph/shortest_paths.hpp"
#include "shg/topo/generators.hpp"

namespace shg::customize {

namespace {

/// Final cost report of a search winner, through the session's artifact
/// tier when one is attached: the full five-step model is deterministic,
/// so the report cached under (arch, winner) is bit-identical to
/// re-evaluating it — a warm re-invocation skips even the final
/// evaluate_cost.
model::CostReport final_cost_report(const tech::ArchParams& arch,
                                    const topo::ShgParams& params,
                                    Session* session) {
  if (session == nullptr) {
    return model::evaluate_cost(
        arch, topo::make_sparse_hamming(arch.rows, arch.cols,
                                        params.row_skips, params.col_skips));
  }
  FingerprintBuilder b;
  b.tag("shg.artifact.cost_report.v1");
  b.fp(fingerprint_shg_candidate(fingerprint_arch(arch), params));
  const Fingerprint key = b.done();
  if (const auto artifact = session->find_artifact(key)) {
    return *std::static_pointer_cast<const model::CostReport>(artifact);
  }
  auto report = std::make_shared<const model::CostReport>(model::evaluate_cost(
      arch, topo::make_sparse_hamming(arch.rows, arch.cols, params.row_skips,
                                      params.col_skips)));
  session->store_artifact(key, report);
  return *report;
}

}  // namespace

std::string fmt_skip_sets(const topo::ShgParams& params) {
  return "SR=" + fmt_int_set(params.row_skips) +
         " SC=" + fmt_int_set(params.col_skips);
}

CandidateMetrics screen_candidate(const tech::ArchParams& arch,
                                  const topo::ShgParams& params) {
  return screen_topology(arch,
                         topo::make_sparse_hamming(arch.rows, arch.cols,
                                                   params.row_skips,
                                                   params.col_skips));
}

CandidateMetrics screen_topology(const tech::ArchParams& arch,
                                 const topo::Topology& topo) {
  SHG_REQUIRE(topo.rows() == arch.rows && topo.cols() == arch.cols,
              "topology grid does not match the architecture");
  // Screening needs only the area overhead, so the cost model's area-only
  // fast path (steps 1-4) replaces the full evaluation — detailed routing
  // only feeds power/latency numbers no screening decision reads.
  const model::ScreeningCost cost = model::evaluate_screening_cost(arch, topo);
  // One fused all-pairs sweep replaces the average_hops + diameter pair,
  // which ran two full sweeps plus two connectivity probes.
  const graph::DistanceSummary summary = graph::distance_summary(topo.graph());
  SHG_REQUIRE(summary.connected, "screening requires a connected topology");
  CandidateMetrics metrics;
  metrics.area_overhead = cost.area_overhead;
  metrics.avg_hops = summary.avg_hops;
  metrics.diameter = static_cast<double>(summary.diameter);
  const double directed_links = 2.0 * topo.graph().num_edges();
  metrics.throughput_bound =
      directed_links /
      (static_cast<double>(topo.num_tiles()) * metrics.avg_hops);
  return metrics;
}

std::size_t select_greedy_candidate(
    const CandidateMetrics& parent,
    const std::vector<CandidateMetrics>& candidates, const Goal& goal) {
  std::size_t best = kNoCandidate;
  bool best_free = false;
  double best_gain = 0.0;
  double best_score = 0.0;     // gain per extra area; paid tier only
  double best_overhead = 0.0;  // free-tier tie-break
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const CandidateMetrics& metrics = candidates[i];
    if (metrics.area_overhead > goal.max_area_overhead) continue;
    const double gain = metrics.throughput_bound - parent.throughput_bound;
    if (gain <= 0.0) continue;
    const double extra_area = metrics.area_overhead - parent.area_overhead;
    const bool free = extra_area <= 0.0;
    const double score = free ? 0.0 : gain / extra_area;
    bool take = false;
    if (best == kNoCandidate) {
      take = true;
    } else if (free != best_free) {
      // A free improvement consumes no budget, so it never loses to a paid
      // one — and never wins by an arbitrary 1e-9 clamp either.
      take = free;
    } else if (free) {
      take = gain > best_gain ||
             (gain == best_gain && metrics.area_overhead < best_overhead);
    } else {
      take = score > best_score || (score == best_score && gain > best_gain);
    }
    if (take) {
      best = i;
      best_free = free;
      best_gain = gain;
      best_score = score;
      best_overhead = metrics.area_overhead;
    }
  }
  return best;
}

SearchResult customize_greedy(const tech::ArchParams& arch, const Goal& goal,
                              const SearchOptions& options) {
  SHG_REQUIRE(goal.max_area_overhead > 0.0 && goal.max_area_overhead < 1.0,
              "area budget must be a fraction in (0, 1)");
  SearchResult result;
  result.params = topo::ShgParams{};
  // With a session attached, a candidate that hits the cache is never
  // screened, and a fully warm re-invocation therefore runs no BFS sweep
  // and no channel routing at all. Within one neighborhood the row
  // neighbors share the current SC and the column neighbors the current
  // SR, so each iteration routes every distinct skip set of its batch once.
  auto screen = [&](const std::vector<topo::ShgParams>& batch) {
    return options.session != nullptr
               ? screen_batch_cached(arch, batch, *options.session)
               : screen_batch_incremental(arch, batch);
  };

  result.metrics = screen({result.params}).front();
  SHG_REQUIRE(result.metrics.area_overhead <= goal.max_area_overhead,
              "even the mesh exceeds the area budget");
  result.history.push_back(SearchStep{
      result.params, result.metrics,
      "start: mesh (" + fmt_skip_sets(result.params) + ")"});

  while (true) {
    // Enumerate this iteration's neighborhood (one extra skip distance per
    // candidate), screen the whole batch in parallel, then reduce serially
    // in enumeration order — identical winner and tie-breaks to the old
    // one-candidate-at-a-time loop.
    std::vector<topo::ShgParams> batch;
    for (int x = 2; x < arch.cols; ++x) {
      if (result.params.row_skips.count(x) != 0) continue;
      topo::ShgParams candidate = result.params;
      candidate.row_skips.insert(x);
      batch.push_back(std::move(candidate));
    }
    for (int x = 2; x < arch.rows; ++x) {
      if (result.params.col_skips.count(x) != 0) continue;
      topo::ShgParams candidate = result.params;
      candidate.col_skips.insert(x);
      batch.push_back(std::move(candidate));
    }

    const std::vector<CandidateMetrics> screened = screen(batch);

    const std::size_t pick =
        select_greedy_candidate(result.metrics, screened, goal);
    if (pick == kNoCandidate) break;

    result.params = batch[pick];
    result.metrics = screened[pick];
    std::ostringstream note;
    note << "accepted " << fmt_skip_sets(result.params) << " (overhead "
         << fmt_double(100.0 * result.metrics.area_overhead, 1)
         << "%, throughput bound "
         << fmt_double(result.metrics.throughput_bound, 3) << ")";
    result.history.push_back(
        SearchStep{result.params, result.metrics, note.str()});
  }

  result.cost = final_cost_report(arch, result.params, options.session);
  return result;
}

}  // namespace shg::customize
