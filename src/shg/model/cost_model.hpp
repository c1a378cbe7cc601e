// The NoC cost model of Section IV-B (Fig. 4): area overhead, power
// consumption and per-link latency prediction via approximate floorplanning
// and link routing.
//
// Five steps, implemented 1:1:
//  1. tile area estimate (A_T = A_E + A_R) and placement in the R x C grid;
//  2. global routing in the grid of tiles (shg::phys::global_route);
//  3. spacing between rows/columns: S = f_wires->mm(NL * f_bw->wires(B));
//  4. discretization into unit cells (H_C x W_C holds one link per
//     direction);
//  5. detailed routing in the grid of unit cells
//     (shg::phys::detailed_route).
//
// DSE screening needs only the area, i.e. steps 1-4, and of step 2 only
// the peak load of each channel. For a sparse Hamming graph those inputs
// come in product form: the radix is the row line's degree plus the column
// line's, the horizontal channel peaks depend on the row skips alone and
// the vertical ones on the column skips alone. The peaks overload of
// evaluate_screening_cost takes exactly those inputs, so a screening sweep
// routes each distinct skip set once and prices every candidate from two
// per-axis summaries.
#pragma once

#include <vector>

#include "shg/phys/detailed_route.hpp"
#include "shg/phys/floorplan.hpp"
#include "shg/phys/global_route.hpp"
#include "shg/tech/arch_params.hpp"
#include "shg/topo/topology.hpp"

namespace shg::model {

/// Physical cost of one link.
struct LinkCost {
  double length_mm = 0.0;          ///< detailed-route length (router to router)
  double latency_cycles_exact = 0.0;  ///< f_mm->s(length) * F
  int latency_cycles = 1;          ///< ceil, at least one cycle (Section II-A)
};

/// Complete output of the cost model.
struct CostReport {
  // Step 1.
  double router_area_ge = 0.0;  ///< A_R = f_AR(m, s, B)
  double tile_area_ge = 0.0;    ///< A_T = A_E + A_R
  double tile_w_mm = 0.0;       ///< W_T
  double tile_h_mm = 0.0;       ///< H_T

  // Steps 2-4.
  int peak_h_channel_load = 0;  ///< max NL over horizontal channels
  int peak_v_channel_load = 0;
  double cell_w_mm = 0.0;  ///< W_C
  double cell_h_mm = 0.0;  ///< H_C
  double chip_width_mm = 0.0;
  double chip_height_mm = 0.0;

  // Area estimate (Section IV-B2b).
  double total_area_mm2 = 0.0;  ///< A_tot
  double base_area_mm2 = 0.0;   ///< A_noNoC
  double noc_area_mm2 = 0.0;    ///< A_tot - A_noNoC
  double area_overhead = 0.0;   ///< (A_tot - A_noNoC) / A_tot

  // Power estimate (Section IV-B2c).
  double total_power_w = 0.0;  ///< P_tot
  double base_power_w = 0.0;   ///< P_noNoC
  double noc_power_w = 0.0;    ///< P_NoC
  double router_power_w = 0.0;  ///< logic share of P_NoC (router area)
  double wire_power_w = 0.0;    ///< wire share of P_NoC

  // Link latency estimate (Section IV-B2d).
  std::vector<LinkCost> links;  ///< indexed by EdgeId
  double avg_link_latency_cycles = 0.0;
  double max_link_latency_cycles = 0.0;

  // Step-5 diagnostics.
  long long h_cells = 0;
  long long v_cells = 0;
  long long collision_cells = 0;

  /// Integer per-link latencies for the cycle-accurate simulator.
  std::vector<int> link_latencies() const;
};

/// Runs the full five-step model for a topology under the given
/// architectural parameters. The topology grid must match arch.rows/cols.
CostReport evaluate_cost(const tech::ArchParams& arch,
                         const topo::Topology& topo);

/// Area-only fast path for DSE screening. Chip area depends only on steps
/// 1-4 (tile area, global routing, channel spacing, floorplan); step 5
/// (detailed routing) feeds the power and per-link latency estimates alone
/// and dominates the full model's runtime. The returned overhead is
/// identical to evaluate_cost(...).area_overhead.
struct ScreeningCost {
  double total_area_mm2 = 0.0;
  double base_area_mm2 = 0.0;
  double noc_area_mm2 = 0.0;
  double area_overhead = 0.0;
};

/// Step-1 memo for screening sweeps. Under a fixed `ArchParams`, the tile
/// geometry (router area, tile area, tile width/height) is a pure function
/// of the router port count, i.e. of the topology radix — the model assumes
/// identical tiles sized for the worst-case radix. Batch screening
/// therefore recomputes the tile-area step only for candidates whose radix
/// it has not seen yet; the stored values are exactly the ones the formula
/// yields, so cached and uncached runs are bit-identical.
///
/// The memo is only valid for one `ArchParams`; not thread-safe — use one
/// per worker.
class TileGeometryCache {
 public:
  struct Entry {
    double router_area_ge = 0.0;
    double tile_area_ge = 0.0;
    double tile_w_mm = 0.0;
    double tile_h_mm = 0.0;
  };

  /// Returns the memoized geometry for `ports`, or nullptr.
  const Entry* find(int ports) const {
    for (const auto& [p, entry] : entries_) {
      if (p == ports) return &entry;
    }
    return nullptr;
  }

  void insert(int ports, const Entry& entry) {
    entries_.emplace_back(ports, entry);
  }

 private:
  std::vector<std::pair<int, Entry>> entries_;  ///< tiny; linear scan
};

ScreeningCost evaluate_screening_cost(const tech::ArchParams& arch,
                                      const topo::Topology& topo,
                                      TileGeometryCache* tile_cache = nullptr);

/// Screening cost from a step-2 summary: `radix` is the topology's router
/// radix (Table I), and `h_peaks` / `v_peaks` are the peak loads of the
/// horizontal channels [0, rows] and vertical channels [0, cols], i.e.
/// `max_h_load(i)` / `max_v_load(j)` of a global routing. Step 3 reads
/// nothing else of the routing. Runs the same step 1/3/4 arithmetic as the
/// overload above — same operands in the same order — so the returned
/// areas are bit-identical when the peaks are. This is the cost-model entry
/// of the product-form screening (customize/incremental.hpp), whose peaks
/// come from one routed profile per row-skip set and per column-skip set
/// (`phys::axis_route_loads`) and whose candidates never materialize a
/// Topology.
ScreeningCost evaluate_screening_cost(const tech::ArchParams& arch, int radix,
                                      const std::vector<int>& h_peaks,
                                      const std::vector<int>& v_peaks,
                                      TileGeometryCache* tile_cache = nullptr);

}  // namespace shg::model
