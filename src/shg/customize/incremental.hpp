// Product-form DSE screening.
//
// The customization flow (Section IV / V-a) screens thousands of SHG
// parameterizations: greedy neighborhoods, exhaustive mask enumerations and
// explore_* subset sweeps. An SHG is the Cartesian product of a row line
// (C tiles, links at {1} u SR) and a column line (R tiles, links at
// {1} u SC), and every input of the screening metrics splits along that
// product:
//
//  * Hop metrics. Every hop distance is a row part plus a column part, so
//    `topo::product_hop_totals` combines the two lines' exact integer totals
//    (sum, diameter, reachable pairs) in closed form. The integers equal
//    `distance_summary`'s fold over the materialized graph, so the
//    avg-hops / diameter / throughput-bound metrics are bit-identical.
//  * Radix and link count. The radix is the row line's max degree plus the
//    column line's; the link count is R row lines plus C column lines.
//  * Channel loads. Same-row links occupy only horizontal channels and
//    same-column links only vertical ones, and the greedy router never
//    reads one orientation's profile while routing the other's links. A
//    horizontal length-x class holds exactly the row-skip-x links, in one
//    fixed for_each_skip_link order. So the horizontal profile is a
//    function of SR alone and the vertical one of SC alone, and
//    `phys::axis_route_loads` routes one axis bit-identically to that axis
//    of `phys::global_route_loads` on the whole graph.
//  * Area. Cost-model steps 1, 3 and 4 read the radix and the per-channel
//    peaks only (`model::evaluate_screening_cost`'s peaks overload).
//
// So a batch is screened in three steps: collect its distinct row-skip and
// column-skip sets, build one axis summary per set (line hop totals, max
// line degree, line link count, per-channel peaks; fanned out with
// parallel_for), then combine each candidate from its two summaries in
// O(R + C). No candidate materializes a Topology or routes a link. The
// combine step runs on the calling thread: at about a microsecond per
// candidate, a second fan-out would cost the greedy search's small batches
// more in thread start-up than it saves.
//
// == Exactness & concurrency ==============================================
//
//  * Exactness. Every metric is bit-identical to `screen_candidate` on the
//    materialized graph: same integers for the hop totals, radix and link
//    count, same peaks, same cost-model arithmetic. Nothing here has a
//    bounded-error mode. tests/screening_oracle.hpp checks it per batch.
//  * Concurrency. All state lives in one call, so concurrent calls are
//    safe. Results do not depend on the worker count: each routing task
//    fills its own summary slot, and the candidates are combined serially.
#pragma once

#include <vector>

#include "shg/customize/search.hpp"

namespace shg::customize {

/// Screens every parameterization of `batch` in product form: any order,
/// duplicates allowed, indexed like the input, bit-identical to
/// `screen_candidate` per entry and deterministic at any worker count.
/// Each distinct skip set of the batch is routed once; nothing is kept
/// between calls. Invalid skip sets throw shg::Error.
std::vector<CandidateMetrics> screen_batch_incremental(
    const tech::ArchParams& arch, const std::vector<topo::ShgParams>& batch);

}  // namespace shg::customize
