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

/// Step 1: tile area estimate and placement. Router ports: one manager +
/// one subordinate port per topology link plus the local endpoint ports.
/// Identical tiles => worst-case radix, so the step is a pure function of
/// the port count and can be memoized.
TileGeometryCache::Entry tile_geometry(const tech::ArchParams& arch, int ports,
                                       TileGeometryCache* tile_cache) {
  if (const TileGeometryCache::Entry* hit =
          tile_cache != nullptr ? tile_cache->find(ports) : nullptr) {
    return *hit;
  }
  TileGeometryCache::Entry tile;
  tile.router_area_ge = arch.router_area.area_ge(
      ports, ports, arch.link_bandwidth_bits, arch.router_arch);
  tile.tile_area_ge = arch.endpoint_area_ge + tile.router_area_ge;
  const double tile_area_mm2 = arch.tech.ge_to_mm2(tile.tile_area_ge);
  tile.tile_h_mm = std::sqrt(arch.tile_aspect_ratio * tile_area_mm2);
  tile.tile_w_mm = std::sqrt(tile_area_mm2 / arch.tile_aspect_ratio);
  if (tile_cache != nullptr) tile_cache->insert(ports, tile);
  return tile;
}

/// Area estimate (IV-B2b) of a chip `width` x `height` mm. Every entry
/// point ends here, with extents from phys::stacked_extent.
ScreeningCost area_estimate(const tech::ArchParams& arch, double width,
                            double height) {
  ScreeningCost cost;
  cost.total_area_mm2 = width * height;
  cost.base_area_mm2 = arch.tech.ge_to_mm2(
      static_cast<double>(arch.num_tiles()) * arch.endpoint_area_ge);
  cost.noc_area_mm2 = cost.total_area_mm2 - cost.base_area_mm2;
  cost.area_overhead = cost.noc_area_mm2 / cost.total_area_mm2;
  return cost;
}

/// Step 3 for one orientation of a whole-topology global routing.
AxisSpacing routed_spacing(const tech::ArchParams& arch,
                           const phys::GlobalRoutingResult& global,
                           bool horizontal) {
  std::vector<int> peaks;
  for (int i = 0; i <= (horizontal ? arch.rows : arch.cols); ++i) {
    peaks.push_back(horizontal ? global.max_h_load(i) : global.max_v_load(i));
  }
  return AxisSpacing(arch, horizontal, peaks);
}

}  // namespace

AxisSpacing::AxisSpacing(const tech::ArchParams& arch, bool horizontal,
                         const std::vector<int>& peaks)
    : horizontal_(horizontal) {
  SHG_REQUIRE(static_cast<int>(peaks.size()) ==
                  (horizontal ? arch.rows : arch.cols) + 1,
              "channel peaks do not match the architecture grid");
  const double wires = arch.wires_per_link();
  spacing_.reserve(peaks.size());
  for (const int nl : peaks) {
    peak_load_ = std::max(peak_load_, nl);
    spacing_.push_back(horizontal ? arch.tech.wires.h_wires_to_mm(nl * wires)
                                  : arch.tech.wires.v_wires_to_mm(nl * wires));
  }
}

ScreeningCost evaluate_screening_cost(const tech::ArchParams& arch,
                                      const topo::Topology& topo,
                                      TileGeometryCache* tile_cache) {
  SHG_REQUIRE(topo.rows() == arch.rows && topo.cols() == arch.cols,
              "topology grid does not match the architecture parameters");
  // Screening never reads the per-link routes (step 5 is skipped), so take
  // the loads-only fast path: bit-identical channel loads without
  // materializing a GlobalRoute per link.
  const phys::GlobalRoutingResult global = phys::global_route_loads(topo);
  return evaluate_screening_cost(arch, topo.radix(),
                                 routed_spacing(arch, global, true),
                                 routed_spacing(arch, global, false),
                                 tile_cache);
}

ScreeningCost evaluate_screening_cost(const tech::ArchParams& arch, int radix,
                                      const AxisSpacing& h,
                                      const AxisSpacing& v,
                                      TileGeometryCache* tile_cache) {
  SHG_REQUIRE(h.horizontal() && !v.horizontal() &&
                  static_cast<int>(h.spacing().size()) == arch.rows + 1 &&
                  static_cast<int>(v.spacing().size()) == arch.cols + 1,
              "channel spacings do not match the architecture grid");
  const TileGeometryCache::Entry tile =
      tile_geometry(arch, radix + arch.endpoints_per_tile, tile_cache);
  // Step 4 places the tiles between the channels; the chip's extents are
  // all the area reads of it.
  return area_estimate(arch,
                       phys::stacked_extent(v.spacing(), tile.tile_w_mm),
                       phys::stacked_extent(h.spacing(), tile.tile_h_mm));
}

CostReport evaluate_cost(const tech::ArchParams& arch,
                         const topo::Topology& topo) {
  SHG_REQUIRE(topo.rows() == arch.rows && topo.cols() == arch.cols,
              "topology grid does not match the architecture parameters");
  const tech::TechnologyModel& tech = arch.tech;
  CostReport report;

  // ---- Step 1: tile area estimate and placement --------------------------
  const TileGeometryCache::Entry tile =
      tile_geometry(arch, topo.radix() + arch.endpoints_per_tile, nullptr);
  report.router_area_ge = tile.router_area_ge;
  report.tile_area_ge = tile.tile_area_ge;
  report.tile_w_mm = tile.tile_w_mm;
  report.tile_h_mm = tile.tile_h_mm;

  // ---- Steps 2 and 3: global routing, channel spacing --------------------
  const phys::GlobalRoutingResult global = phys::global_route(topo);
  const AxisSpacing h = routed_spacing(arch, global, true);
  const AxisSpacing v = routed_spacing(arch, global, false);
  report.peak_h_channel_load = h.peak_load();
  report.peak_v_channel_load = v.peak_load();

  // ---- Step 4: discretization into unit cells ----------------------------
  const double wires = arch.wires_per_link();
  report.cell_h_mm = tech.wires.h_wires_to_mm(wires);
  report.cell_w_mm = tech.wires.v_wires_to_mm(wires);
  const phys::Floorplan plan(arch.rows, arch.cols, report.tile_w_mm,
                             report.tile_h_mm, h.spacing(), v.spacing(),
                             report.cell_w_mm, report.cell_h_mm);
  report.chip_width_mm = plan.chip_width();
  report.chip_height_mm = plan.chip_height();
  const ScreeningCost area =
      area_estimate(arch, plan.chip_width(), plan.chip_height());
  report.total_area_mm2 = area.total_area_mm2;
  report.base_area_mm2 = area.base_area_mm2;
  report.noc_area_mm2 = area.noc_area_mm2;
  report.area_overhead = area.area_overhead;

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
