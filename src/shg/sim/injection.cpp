#include "shg/sim/injection.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "shg/common/prng.hpp"
#include "shg/sim/trace.hpp"

namespace shg::sim {

namespace {

double packet_probability(const SimConfig& config) {
  return config.injection_rate /
         static_cast<double>(config.packet_size_flits);
}

/// The synthetic kinds' loop: per (cycle, tile, port), `fires(source)`
/// makes the injection draws, and on a hit the pattern draws the
/// destination.
template <class Fires>
void synthetic_loop(const TrafficPattern& pattern, const Concentration& grid,
                    int ports, Cycle end, Prng& rng, const PacketSink& emit,
                    Fires fires) {
  const int tiles = grid.rows * grid.cols;
  const bool concentrated = grid.factor > 1;
  for (Cycle t = 0; t < end; ++t) {
    for (int tile = 0; tile < tiles; ++tile) {
      for (int port = 0; port < ports; ++port) {
        if (!fires(tile * ports + port)) continue;
        const int src = concentrated ? grid.terminal(tile, port) : tile;
        const int dest = pattern.dest(src, rng);
        if (dest != src) emit(t, tile, port, dest);
      }
    }
  }
}

/// The trace kind's loop: the whole schedule is built from the records,
/// sorted into (cycle, source) order and walked once.
void replay_loop(const Injection::Replay& replay, const Concentration& grid,
                 int ports, const SimConfig& config, const PacketSink& emit) {
  const Trace& trace = *replay.trace;
  const bool concentrated = grid.factor > 1;
  const int tiles = grid.rows * grid.cols;
  const int num_sources = tiles * ports;
  const int num_terminals = concentrated ? grid.terminals() : tiles;
  SHG_REQUIRE(
      static_cast<std::uint64_t>(num_sources) == trace.num_sources,
      "trace was recorded for " + std::to_string(trace.num_sources) +
          " sources but the grid provides " + std::to_string(num_sources));
  SHG_REQUIRE(
      static_cast<std::uint64_t>(num_terminals) == trace.num_terminals,
      "trace was recorded for " + std::to_string(trace.num_terminals) +
          " terminals but the grid provides " + std::to_string(num_terminals));

  // A message becomes ceil(size / packet_size) packets on consecutive
  // cycles starting at max(scaled timestamp, the source's previous
  // injection end, the dependency's injection end). Each source's packets
  // therefore sit on distinct, ascending cycles.
  struct Scheduled {
    Cycle cycle;
    std::int32_t source;
    std::int32_t dest;
  };
  const Cycle end = config.warmup_cycles + config.measure_cycles;
  const Cycle packet_size = config.packet_size_flits;
  std::vector<Scheduled> schedule;
  std::vector<std::uint64_t> last_ts(trace.num_sources, 0);
  std::vector<Cycle> next_free(trace.num_sources, 0);
  std::vector<Cycle> record_end(trace.records.size(), 0);
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    const TraceRecord& rec = trace.records[i];
    const std::uint64_t abs = last_ts[rec.source] + rec.delta;
    last_ts[rec.source] = abs;
    // A scaled timestamp at or past the window end is clamped to it: the
    // packet is never created either way, and a Cycle cannot hold every
    // double a tiny scale produces.
    const double scaled = static_cast<double>(abs) / replay.scale;
    Cycle start =
        scaled < static_cast<double>(end) ? static_cast<Cycle>(scaled) : end;
    start = std::max(start, next_free[rec.source]);
    if (rec.dep != kTraceNoDep) start = std::max(start, record_end[rec.dep]);
    const Cycle packets =
        (static_cast<Cycle>(rec.size_flits) + packet_size - 1) / packet_size;
    for (Cycle c = start; c < std::min(start + packets, end); ++c) {
      schedule.push_back(Scheduled{c, static_cast<std::int32_t>(rec.source),
                                   static_cast<std::int32_t>(rec.dest)});
    }
    next_free[rec.source] = start + packets;
    record_end[i] = start + packets;
  }
  std::sort(schedule.begin(), schedule.end(),
            [](const Scheduled& a, const Scheduled& b) {
              return a.cycle != b.cycle ? a.cycle < b.cycle
                                        : a.source < b.source;
            });
  for (const Scheduled& s : schedule) {
    const int tile = s.source / ports;
    const int port = s.source % ports;
    const int src = concentrated ? grid.terminal(tile, port) : tile;
    if (s.dest != src) emit(s.cycle, tile, port, s.dest);
  }
}

}  // namespace

Injection Injection::onoff(double alpha, double beta) {
  SHG_REQUIRE(alpha > 0.0 && alpha <= 1.0,
              "on-off alpha (off->on) must be in (0, 1]");
  SHG_REQUIRE(beta >= 0.0 && beta < 1.0,
              "on-off beta (on->off) must be in [0, 1)");
  return Injection(OnOff{alpha, beta});
}

Injection Injection::trace(std::shared_ptr<const Trace> trace, double scale) {
  SHG_REQUIRE(trace != nullptr, "trace replay needs a loaded trace");
  SHG_REQUIRE(scale > 0.0, "trace replay scale must be positive");
  validate_trace(*trace, "trace replay");
  return Injection(Replay{std::move(trace), scale});
}

void Injection::require_runnable(const TrafficPattern* pattern,
                                 const SimConfig& config) const {
  SHG_REQUIRE((pattern == nullptr) == is_trace(),
              is_trace() ? "a trace replay takes no traffic pattern"
                         : "a synthetic injection needs a traffic pattern");
  if (is_trace()) return;
  const double p = packet_probability(config);
  SHG_REQUIRE(p >= 0.0 && p <= 1.0, "injection probability must be in [0, 1]");
  if (const auto* onoff = std::get_if<OnOff>(&kind_)) {
    // Steady-state duty cycle is alpha / (alpha + beta); the burst
    // probability compensates so the mean rate matches.
    SHG_REQUIRE(p * (onoff->alpha + onoff->beta) / onoff->alpha <= 1.0,
                "offered rate unreachable with this on-off duty cycle "
                "(packet_prob * (alpha + beta) / alpha must be <= 1)");
  }
}

void generate_packets(const Injection& injection,
                      const TrafficPattern* pattern, const Concentration& grid,
                      int ports, const SimConfig& config,
                      const PacketSink& emit) {
  injection.require_runnable(pattern, config);
  SHG_REQUIRE(ports >= 1, "need at least one endpoint per tile");
  SHG_REQUIRE(config.packet_size_flits >= 1, "packets need at least one flit");
  if (const auto* replay = std::get_if<Injection::Replay>(&injection.kind())) {
    replay_loop(*replay, grid, ports, config, emit);
    return;
  }
  const Cycle end = config.warmup_cycles + config.measure_cycles;
  const double p = packet_probability(config);
  Prng rng(config.seed);
  if (const auto* onoff = std::get_if<Injection::OnOff>(&injection.kind())) {
    const double alpha = onoff->alpha;
    const double beta = onoff->beta;
    const double burst = p * (alpha + beta) / alpha;
    std::vector<std::uint8_t> on(
        static_cast<std::size_t>(grid.rows * grid.cols * ports), 0);
    synthetic_loop(*pattern, grid, ports, end, rng, emit, [&](int source) {
      std::uint8_t& state = on[static_cast<std::size_t>(source)];
      state = state != 0 ? !rng.chance(beta) : rng.chance(alpha);
      return state != 0 && rng.chance(burst);
    });
  } else {
    synthetic_loop(*pattern, grid, ports, end, rng, emit,
                   [&](int) { return rng.chance(p); });
  }
}

}  // namespace shg::sim
