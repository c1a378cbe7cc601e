#include "shg/model/cost_model.hpp"

#include <algorithm>
#include <cmath>

namespace shg::model {

std::vector<int> CostReport::link_latencies() const {
  std::vector<int> latencies;
  latencies.reserve(links.size());
  for (const LinkCost& link : links) {
    latencies.push_back(link.latency_cycles);
  }
  return latencies;
}

namespace {

/// Steps 1, 3 and 4 of the model given the step-2 channel peaks, shared by
/// every entry point (full evaluation, topology screening, and the
/// product-form screening that supplies per-axis peaks). One body means one
/// set of arithmetic expressions — which is what makes the area figures
/// bit-identical across entry points when the peaks are.
phys::Floorplan steps_1_3_4(const tech::ArchParams& arch, int radix,
                            const std::vector<int>& h_peaks,
                            const std::vector<int>& v_peaks,
                            CostReport& report,
                            TileGeometryCache* tile_cache) {
  const tech::TechnologyModel& tech = arch.tech;

  // ---- Step 1: tile area estimate and placement -------------------------
  // Router ports: one manager + one subordinate port per topology link plus
  // the local endpoint ports. Identical tiles => worst-case radix, so the
  // whole step is a pure function of the radix and can be memoized across
  // screening candidates whose radix did not change.
  const int ports = radix + arch.endpoints_per_tile;
  if (const TileGeometryCache::Entry* hit =
          tile_cache != nullptr ? tile_cache->find(ports) : nullptr) {
    report.router_area_ge = hit->router_area_ge;
    report.tile_area_ge = hit->tile_area_ge;
    report.tile_w_mm = hit->tile_w_mm;
    report.tile_h_mm = hit->tile_h_mm;
  } else {
    report.router_area_ge = arch.router_area.area_ge(
        ports, ports, arch.link_bandwidth_bits, arch.router_arch);
    report.tile_area_ge = arch.endpoint_area_ge + report.router_area_ge;
    const double tile_area_mm2 = tech.ge_to_mm2(report.tile_area_ge);
    report.tile_h_mm = std::sqrt(arch.tile_aspect_ratio * tile_area_mm2);
    report.tile_w_mm = std::sqrt(tile_area_mm2 / arch.tile_aspect_ratio);
    if (tile_cache != nullptr) {
      tile_cache->insert(ports,
                         TileGeometryCache::Entry{report.router_area_ge,
                                                  report.tile_area_ge,
                                                  report.tile_w_mm,
                                                  report.tile_h_mm});
    }
  }

  // ---- Step 3: spacing between rows and columns of tiles -----------------
  const double wires = arch.wires_per_link();
  std::vector<double> h_spacing(static_cast<std::size_t>(arch.rows) + 1);
  std::vector<double> v_spacing(static_cast<std::size_t>(arch.cols) + 1);
  for (int i = 0; i <= arch.rows; ++i) {
    const int nl = h_peaks[static_cast<std::size_t>(i)];
    report.peak_h_channel_load = std::max(report.peak_h_channel_load, nl);
    h_spacing[static_cast<std::size_t>(i)] =
        tech.wires.h_wires_to_mm(nl * wires);
  }
  for (int j = 0; j <= arch.cols; ++j) {
    const int nl = v_peaks[static_cast<std::size_t>(j)];
    report.peak_v_channel_load = std::max(report.peak_v_channel_load, nl);
    v_spacing[static_cast<std::size_t>(j)] =
        tech.wires.v_wires_to_mm(nl * wires);
  }

  // ---- Step 4: discretization into unit cells ----------------------------
  report.cell_h_mm = tech.wires.h_wires_to_mm(wires);
  report.cell_w_mm = tech.wires.v_wires_to_mm(wires);
  phys::Floorplan plan(arch.rows, arch.cols, report.tile_w_mm,
                       report.tile_h_mm, std::move(h_spacing),
                       std::move(v_spacing), report.cell_w_mm,
                       report.cell_h_mm);
  report.chip_width_mm = plan.chip_width();
  report.chip_height_mm = plan.chip_height();

  // ---- Area estimate (IV-B2b) --------------------------------------------
  report.total_area_mm2 = plan.chip_area_mm2();
  report.base_area_mm2 =
      tech.ge_to_mm2(static_cast<double>(arch.num_tiles()) *
                     arch.endpoint_area_ge);
  report.noc_area_mm2 = report.total_area_mm2 - report.base_area_mm2;
  report.area_overhead = report.noc_area_mm2 / report.total_area_mm2;
  return plan;
}

/// Steps 1-4 of the model, shared by the full evaluation and the area-only
/// screening path. Fills the step 1-4 fields of `report` and returns the
/// floorplan (plus the global routing via `global_out` when the caller needs
/// step 5).
phys::Floorplan floorplan_steps_1_to_4(const tech::ArchParams& arch,
                                       const topo::Topology& topo,
                                       CostReport& report,
                                       phys::GlobalRoutingResult* global_out,
                                       TileGeometryCache* tile_cache = nullptr) {
  SHG_REQUIRE(topo.rows() == arch.rows && topo.cols() == arch.cols,
              "topology grid does not match the architecture parameters");

  // ---- Step 2: global routing in the grid of tiles -----------------------
  // Screening callers never read the per-link routes (step 5 is skipped),
  // so take the loads-only fast path — bit-identical channel loads without
  // materializing a GlobalRoute per link.
  phys::GlobalRoutingResult global = global_out != nullptr
                                         ? phys::global_route(topo)
                                         : phys::global_route_loads(topo);
  std::vector<int> h_peaks(static_cast<std::size_t>(arch.rows) + 1);
  std::vector<int> v_peaks(static_cast<std::size_t>(arch.cols) + 1);
  for (int i = 0; i <= arch.rows; ++i) {
    h_peaks[static_cast<std::size_t>(i)] = global.max_h_load(i);
  }
  for (int j = 0; j <= arch.cols; ++j) {
    v_peaks[static_cast<std::size_t>(j)] = global.max_v_load(j);
  }
  phys::Floorplan plan =
      steps_1_3_4(arch, topo.radix(), h_peaks, v_peaks, report, tile_cache);
  if (global_out != nullptr) *global_out = std::move(global);
  return plan;
}

ScreeningCost screening_cost_from_report(const CostReport& report) {
  ScreeningCost cost;
  cost.total_area_mm2 = report.total_area_mm2;
  cost.base_area_mm2 = report.base_area_mm2;
  cost.noc_area_mm2 = report.noc_area_mm2;
  cost.area_overhead = report.area_overhead;
  return cost;
}

}  // namespace

ScreeningCost evaluate_screening_cost(const tech::ArchParams& arch,
                                      const topo::Topology& topo,
                                      TileGeometryCache* tile_cache) {
  CostReport report;
  floorplan_steps_1_to_4(arch, topo, report, nullptr, tile_cache);
  return screening_cost_from_report(report);
}

ScreeningCost evaluate_screening_cost(const tech::ArchParams& arch, int radix,
                                      const std::vector<int>& h_peaks,
                                      const std::vector<int>& v_peaks,
                                      TileGeometryCache* tile_cache) {
  SHG_REQUIRE(static_cast<int>(h_peaks.size()) == arch.rows + 1 &&
                  static_cast<int>(v_peaks.size()) == arch.cols + 1,
              "channel peaks do not match the architecture grid");
  CostReport report;
  steps_1_3_4(arch, radix, h_peaks, v_peaks, report, tile_cache);
  return screening_cost_from_report(report);
}

CostReport evaluate_cost(const tech::ArchParams& arch,
                         const topo::Topology& topo) {
  const tech::TechnologyModel& tech = arch.tech;
  CostReport report;
  phys::GlobalRoutingResult global;
  const phys::Floorplan plan =
      floorplan_steps_1_to_4(arch, topo, report, &global);
  const double tile_area_mm2 = tech.ge_to_mm2(report.tile_area_ge);

  // ---- Step 5: detailed routing in the grid of unit cells ----------------
  const phys::DetailedRoutingResult detailed =
      phys::detailed_route(topo, plan, global);
  report.h_cells = detailed.h_cells;
  report.v_cells = detailed.v_cells;
  report.collision_cells = detailed.collision_cells;

  // ---- Power estimate (IV-B2c) --------------------------------------------
  // N^L_cell * A_C == total tile silicon area (logic-dominated);
  // (N^H + N^V) * A_C / 2: a unit cell holds one horizontal and one vertical
  // link part, so one directional part fills half a cell.
  const double cell_area = plan.cell_area_mm2();
  const double logic_area =
      static_cast<double>(arch.num_tiles()) * tile_area_mm2;
  const double wire_area =
      static_cast<double>(detailed.h_cells + detailed.v_cells) * cell_area /
      2.0;
  report.total_power_w =
      tech.logic_mm2_to_w(logic_area) + tech.wire_mm2_to_w(wire_area);
  report.base_power_w = tech.logic_mm2_to_w(report.base_area_mm2);
  report.noc_power_w = report.total_power_w - report.base_power_w;
  report.wire_power_w = tech.wire_mm2_to_w(wire_area);
  report.router_power_w = report.noc_power_w - report.wire_power_w;

  // ---- Link latency estimate (IV-B2d) --------------------------------------
  report.links.resize(static_cast<std::size_t>(topo.graph().num_edges()));
  double latency_sum = 0.0;
  for (graph::EdgeId e = 0; e < topo.graph().num_edges(); ++e) {
    LinkCost& link = report.links[static_cast<std::size_t>(e)];
    link.length_mm =
        detailed.routes[static_cast<std::size_t>(e)].total_length_mm;
    link.latency_cycles_exact =
        tech.mm_to_s(link.length_mm) * arch.frequency_hz;
    link.latency_cycles =
        std::max(1, static_cast<int>(std::ceil(link.latency_cycles_exact)));
    latency_sum += link.latency_cycles_exact;
    report.max_link_latency_cycles =
        std::max(report.max_link_latency_cycles, link.latency_cycles_exact);
  }
  if (!report.links.empty()) {
    report.avg_link_latency_cycles =
        latency_sum / static_cast<double>(report.links.size());
  }
  return report;
}

}  // namespace shg::model
