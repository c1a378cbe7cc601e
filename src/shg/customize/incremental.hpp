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
//  * Routing reuse (ScreeningOptions::incremental_routing, default on). A
//    naive patch of cached channel loads would not be bit-identical — the
//    greedy router assigns channels longest-link-first with
//    congestion-dependent tie-breaks, so a new skip link can legally
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
//    each candidate from its longest cached ancestor — with routing reuse
//    on, every candidate's channel loads come from a suffix replay against
//    its nearest interior prefix rather than a from-scratch route.
//
// Cache invalidation is by construction: a context is keyed to one parent
// parameterization and one ArchParams; `screen_child` only accepts children
// whose skip sets are supersets of the parent's (checked), and `rebase`
// re-keys the context onto an accepted child. Removing a skip distance
// (edge deletion) is not an added-links replay — such children are
// rejected rather than screened wrongly.
//
// Equivalence oracle: `verify_incremental_equivalence` screens a batch both
// ways and throws on the first metric that is not bit-identical; the bench
// and CI gate on it.
//
// == Exactness & concurrency ==============================================
//
//  * Exactness. Every screening API in this header is EXACT: metrics are
//    bit-identical to `screen_candidate` / `screen_topology` on the
//    materialized child, for any combination of options (the oracle and
//    the randomized trajectory tests enforce it). Nothing here has a
//    bounded-error mode.
//  * Concurrency. `ScreeningContext::screen_child` and
//    `TopologyScreeningContext::screen_child` are const and safe to call
//    concurrently on ONE shared context, provided each caller passes its
//    own `tile_cache` / `ws` (use `parallel_for_with_worker` for
//    worker-pinned scratch). `rebase` and `derive` mutate / read-snapshot
//    the context and require exclusive access — no concurrent
//    `screen_child` may be in flight. `screen_batch_incremental` and
//    `verify_incremental_equivalence` parallelize internally; call them
//    from one thread and let them own the fan-out.
#pragma once

#include <optional>
#include <vector>

#include "shg/customize/search.hpp"
#include "shg/graph/shortest_paths.hpp"
#include "shg/phys/incremental_route.hpp"

namespace shg::customize {

/// Knobs of the incremental screening engine.
struct ScreeningOptions {
  /// Channel-router reuse (phys::RoutingContext) plus the topology-free
  /// child evaluation it unlocks: children are priced from product-form
  /// hop totals and repaired channel loads, never materializing a child
  /// Topology. Metrics are bit-identical either way (oracle-tested); off
  /// materializes each child and routes it from scratch, for equivalence
  /// tests and as the benchmark baseline.
  bool incremental_routing = true;
};

/// Cached screening state of one parent parameterization.
class ScreeningContext {
 public:
  /// Full screen of `params`: product-form hop totals plus cost steps 1-4.
  /// The context keeps a pointer to `arch`, which must outlive it.
  ScreeningContext(const tech::ArchParams& arch,
                   const topo::ShgParams& params,
                   const ScreeningOptions& options = {});

  const topo::ShgParams& params() const { return params_; }
  const ScreeningOptions& screening_options() const { return options_; }

  /// Per-caller scratch for screen_child's fast path; reusing one across
  /// children keeps its heap allocations warm. One per thread when
  /// screening concurrently (see parallel_for_with_worker).
  struct Workspace {
    std::vector<graph::Edge> new_edges;
    std::vector<int> degrees;
    phys::GlobalRoutingResult loads;
  };

  /// Screening metrics of the parent itself; bit-identical to
  /// `screen_candidate(arch, params())`.
  const CandidateMetrics& metrics() const { return metrics_; }

  /// Screens `child`, whose skip sets must be supersets of `params()`.
  /// With incremental routing on this runs the topology-free fast path
  /// (product-form hop totals + channel-load repair); otherwise it
  /// materializes the child and routes it from scratch. Either way
  /// the result is bit-identical to `screen_candidate(arch, child)`. Safe
  /// to call concurrently on one context; `tile_cache` and `ws` (both
  /// optional) must then be per-caller.
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
  CandidateMetrics screen_child_fast(const topo::ShgParams& child,
                                     model::TileGeometryCache* tile_cache,
                                     Workspace* ws) const;
  /// Rebuilds the reuse state derived from topo_ (the routing context and
  /// the per-node degrees the fast path bumps for child radices); called
  /// after every re-keying of the context.
  void refresh_reuse_state();

  ScreeningContext(const tech::ArchParams* arch,
                   const ScreeningOptions& options, topo::ShgParams params,
                   topo::Topology topo, const CandidateMetrics& metrics)
      : arch_(arch),
        options_(options),
        params_(std::move(params)),
        topo_(std::move(topo)),
        metrics_(metrics) {
    refresh_reuse_state();
  }

  const tech::ArchParams* arch_;
  ScreeningOptions options_;
  topo::ShgParams params_;
  topo::Topology topo_;
  /// Fast-path reuse state, rebuilt with topo_: the parent's incremental
  /// router (absent when incremental routing is off) and per-node degrees.
  std::optional<phys::RoutingContext> routing_;
  std::vector<int> degrees_;
  CandidateMetrics metrics_;
};

/// Incremental screening for non-SHG families: a parent topology of ANY
/// family (SlimNoC, torus, mesh, custom) plus added-edge children. Before
/// this existed, screening such children meant a fresh sweep and a
/// from-scratch channel route per child; now they flow through an
/// incremental stack like SHG candidates. They have no product form, so
/// the hop metrics come from `graph::EdgeOverlay` plus the bit-parallel
/// all-pairs sweep, the radix from bumped parent degrees, and the channel
/// loads from the `phys::RoutingContext` added-links suffix replay (which
/// handles diagonal links with a joint-orientation replay). No child
/// Topology is ever materialized.
///
/// Exactness: `screen_child` is bit-identical to `screen_topology` on the
/// parent-copy-plus-add_link child (randomized trajectory oracle in
/// tests/session_test.cpp over SHG, SlimNoC and torus parents).
/// Concurrency: `screen_child` is const and safe to share across threads
/// with per-caller `tile_cache` / `ws`.
class TopologyScreeningContext {
 public:
  /// Full screen of `parent` (one routing run + one all-pairs sweep); the
  /// context keeps a pointer to `arch`, which must outlive it.
  TopologyScreeningContext(const tech::ArchParams& arch,
                           topo::Topology parent);

  const topo::Topology& parent() const { return parent_; }

  /// Screening metrics of the parent itself; bit-identical to
  /// `screen_topology(arch, parent())`.
  const CandidateMetrics& metrics() const { return metrics_; }

  /// Per-caller scratch; one per thread when screening concurrently.
  struct Workspace {
    graph::EdgeOverlay overlay;
    graph::BitSweepWorkspace bitsweep;
    std::vector<int> degrees;
    std::vector<phys::GridLink> links;
    std::vector<long long> seen;  ///< delta-edge keys, duplicate check
    phys::GlobalRoutingResult loads;
  };

  /// Screens the child "parent plus `new_edges`" (node ids on the parent
  /// grid, edges absent from the parent — checked; append order matters,
  /// it is the order the links enter the router's greedy classes).
  /// Bit-identical to `screen_topology` on the materialized child.
  CandidateMetrics screen_child(const std::vector<graph::Edge>& new_edges,
                                model::TileGeometryCache* tile_cache = nullptr,
                                Workspace* ws = nullptr) const;

 private:
  const tech::ArchParams* arch_;
  topo::Topology parent_;
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
    const tech::ArchParams& arch, const std::vector<topo::ShgParams>& batch,
    const ScreeningOptions& options = {});

/// Equivalence oracle: screens `batch` incrementally (under `options`) and
/// with the full per-candidate path, and throws shg::Error naming the first
/// candidate whose metrics are not bit-identical. Returns the (verified)
/// incremental metrics.
std::vector<CandidateMetrics> verify_incremental_equivalence(
    const tech::ArchParams& arch, const std::vector<topo::ShgParams>& batch,
    const ScreeningOptions& options = {});

}  // namespace shg::customize
