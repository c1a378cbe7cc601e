// Incremental DSE screening.
//
// The customization flow (Section IV / V-a) screens neighborhoods of SHG
// parameterizations that differ from a parent by exactly one skip distance,
// yet `screen_candidate` re-runs a full all-pairs BFS sweep and cost-model
// steps 1-4 for every neighbor. This module exploits the structure of that
// neighborhood:
//
//  * Hop metrics in product form. An SHG is the Cartesian product of a row
//    line (C tiles, links at {1} u SR) and a column line (R tiles, links at
//    {1} u SC), so every hop distance splits into a row part plus a column
//    part. `topo::shg_hop_totals` sweeps the two lines and combines their
//    exact integer totals (sum, diameter, reachable pairs) in closed form;
//    no context caches distance rows and no child graph is swept. The
//    integers equal `distance_summary`'s fold over the materialized graph,
//    so the avg-hops / diameter / throughput-bound metrics are
//    bit-identical.
//
//  * Tile-geometry reuse. The cost model assumes identical tiles sized for
//    the worst-case radix, so step 1 is a pure function of the radix;
//    `model::TileGeometryCache` recomputes it only when a candidate's radix
//    actually changed.
//
//  * Routing reuse. A naive patch of cached channel loads would not be
//    bit-identical — the greedy router assigns channels longest-link-first
//    with congestion-dependent tie-breaks, so a new skip link can legally
//    re-route previously placed links. `phys::RoutingContext` instead
//    replays the divergent length-class suffix of the greedy order from a
//    recorded boundary snapshot, which IS bit-identical (see
//    phys/incremental_route.hpp), and unlocks a topology-free child
//    evaluation: hop metrics in product form, the radix from bumped parent
//    degrees, and the area from the repaired loads — no child Topology is
//    ever materialized on the screening hot path.
//
//  * Shared-prefix reuse. `screen_batch_incremental` organizes an arbitrary
//    candidate batch (greedy neighborhoods, exhaustive mask enumerations,
//    explore_* subset sweeps) into a prefix forest ordered by canonical
//    skip-element order, derives one context per interior node, and screens
//    each candidate from its longest cached ancestor — every candidate's
//    channel loads come from a suffix replay against its nearest interior
//    prefix rather than a from-scratch route.
//
// Cache invalidation is by construction: a context is keyed to one parent
// parameterization and one ArchParams; `screen_child` only accepts children
// whose skip sets are supersets of the parent's (checked), and `rebase`
// re-keys the context onto an accepted child. Removing a skip distance
// (edge deletion) is not an added-links replay — such children are
// rejected rather than screened wrongly.
//
// Equivalence oracle: `verify_incremental_equivalence` screens a batch
// through the prefix forest and with `screen_candidate`, and throws on the
// first metric that is not bit-identical; the bench and CI gate on it.
//
// == Exactness & concurrency ==============================================
//
//  * Exactness. Every screening API in this header is EXACT: metrics are
//    bit-identical to `screen_candidate` / `screen_topology` on the
//    materialized child (the oracle and the randomized trajectory tests
//    enforce it). Nothing here has a bounded-error mode.
//  * Concurrency. `ScreeningContext::screen_child` and `derive` are const
//    and safe to call concurrently on ONE shared context, provided each
//    caller passes its own `tile_cache` / `ws` (use
//    `parallel_for_with_worker` for worker-pinned scratch). `rebase`
//    mutates the context and requires exclusive access — no concurrent
//    `screen_child` or `derive` may be in flight.
//    `screen_batch_incremental` and `verify_incremental_equivalence`
//    parallelize internally; call them from one thread and let them own
//    the fan-out.
#pragma once

#include <vector>

#include "shg/customize/search.hpp"
#include "shg/phys/incremental_route.hpp"

namespace shg::customize {

/// Cached screening state of one parent parameterization.
class ScreeningContext {
 public:
  /// Full screen of `params`: product-form hop totals plus cost steps 1-4.
  /// The context keeps a pointer to `arch`, which must outlive it.
  ScreeningContext(const tech::ArchParams& arch,
                   const topo::ShgParams& params);

  const topo::ShgParams& params() const { return params_; }

  /// Per-caller scratch for screen_child; reusing one across children
  /// keeps its heap allocations warm. One per thread when screening
  /// concurrently (see parallel_for_with_worker).
  struct Workspace {
    std::vector<graph::Edge> new_edges;
    std::vector<int> degrees;
    phys::GlobalRoutingResult loads;
  };

  /// Screening metrics of the parent itself; bit-identical to
  /// `screen_candidate(arch, params())`.
  const CandidateMetrics& metrics() const { return metrics_; }

  /// Screens `child`, whose skip sets must be supersets of `params()`,
  /// without materializing it: product-form hop totals plus a channel-load
  /// repair of the parent's routing. Bit-identical to
  /// `screen_candidate(arch, child)`. Safe to call concurrently on one
  /// context; `tile_cache` and `ws` (both optional) must then be per-caller.
  CandidateMetrics screen_child(const topo::ShgParams& child,
                                model::TileGeometryCache* tile_cache =
                                    nullptr,
                                Workspace* ws = nullptr) const;

  /// Re-keys the context onto `child` (a superset of `params()`) — the
  /// greedy search uses this when it accepts a step. `known_metrics`, when
  /// given, must be the result of screening `child` (e.g. the screen_child
  /// return the caller just ranked); the re-keyed context then adopts it
  /// instead of re-running the cost model for a candidate whose metrics
  /// are already known.
  void rebase(const topo::ShgParams& child,
              const CandidateMetrics* known_metrics = nullptr);

  /// Derives an independent context for `child`; the shared-prefix forest
  /// walk uses this for interior nodes. With `need_metrics` false the cost
  /// model is skipped and the derived context's metrics() are unspecified —
  /// for stepping-stone prefixes that only exist to carry a routing context
  /// for their descendants, the cost model would be wasted work.
  ScreeningContext derive(const topo::ShgParams& child,
                          model::TileGeometryCache* tile_cache = nullptr,
                          bool need_metrics = true) const;

 private:
  struct ChildScreen;
  ChildScreen screen_impl(const topo::ShgParams& child,
                          model::TileGeometryCache* tile_cache,
                          const CandidateMetrics* known_metrics = nullptr,
                          bool need_metrics = true) const;
  ScreeningContext(const tech::ArchParams* arch, topo::ShgParams params,
                   topo::Topology topo, const CandidateMetrics& metrics);

  const tech::ArchParams* arch_;
  topo::ShgParams params_;
  topo::Topology topo_;
  /// Reuse state derived from topo_: the parent's incremental router and
  /// the per-node degrees screen_child bumps for child radices.
  phys::RoutingContext routing_;
  std::vector<int> degrees_;
  CandidateMetrics metrics_;
};

/// Screens every parameterization of `batch` (any order, duplicates
/// allowed) with shared-prefix reuse; the returned metrics are indexed like
/// the input and bit-identical to screening each entry with
/// `screen_candidate`. Interior prefixes missing from the batch are
/// screened as stepping stones. Parallelises over prefix subtrees via
/// `parallel_for`; the output is deterministic regardless of worker count.
std::vector<CandidateMetrics> screen_batch_incremental(
    const tech::ArchParams& arch, const std::vector<topo::ShgParams>& batch);

/// Equivalence oracle: screens `batch` incrementally and with the full
/// per-candidate path, and throws shg::Error naming the first candidate
/// whose metrics are not bit-identical. Returns the (verified) incremental
/// metrics.
std::vector<CandidateMetrics> verify_incremental_equivalence(
    const tech::ArchParams& arch, const std::vector<topo::ShgParams>& batch);

}  // namespace shg::customize
