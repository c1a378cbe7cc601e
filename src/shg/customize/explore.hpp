// Design-space exploration: enumerate topology configurations, screen them
// with the fast cost model, and compare achievable trade-off curves.
//
// Backs the related-work claim of Section VI: sparse Hamming graphs are a
// superset of Ruche networks and "offer a more fine-grained adjustment of
// the cost-performance trade-off" — quantified here as the set of
// (area, throughput-bound) points each family can reach.
#pragma once

#include <string>
#include <vector>

#include "shg/customize/search.hpp"

namespace shg::customize {

/// One screened configuration.
struct ExploredPoint {
  topo::ShgParams params;
  CandidateMetrics metrics;
  std::string label;
};

/// Options bounding the enumeration (the full SHG space is 2^(R+C-4)).
struct ExploreOptions {
  int max_row_skips = 2;  ///< enumerate SR subsets up to this size
  int max_col_skips = 2;
  /// Persistent DSE session (customize/session.hpp, default off): screened
  /// candidates are served from the session's cache across explore / search
  /// invocations — a refined re-enumeration (e.g. max_*_skips bumped by
  /// one) re-screens only the configurations the previous pass never saw.
  /// Results are bit-identical with or without a session (not owned; must
  /// outlive the call).
  Session* session = nullptr;
};

/// Enumerates sparse Hamming graph configurations (all SR/SC subsets up to
/// the given sizes) and screens each with the cost model.
std::vector<ExploredPoint> explore_shg(const tech::ArchParams& arch,
                                       const ExploreOptions& options);

/// Enumerates all Ruche configurations (at most one skip distance per
/// dimension — the comparison baseline from related work [41]).
std::vector<ExploredPoint> explore_ruche(const tech::ArchParams& arch,
                                         const ExploreOptions& options);

/// Non-dominated subset under (area_overhead down, throughput_bound up,
/// avg_hops down).
std::vector<ExploredPoint> trade_off_front(std::vector<ExploredPoint> points);

/// Hypervolume-style coverage indicator: the area under the front in the
/// (area_overhead, throughput_bound) plane up to `max_overhead` — a scalar
/// measure of how much of the trade-off space a family covers.
double front_coverage(const std::vector<ExploredPoint>& front,
                      double max_overhead);

}  // namespace shg::customize
