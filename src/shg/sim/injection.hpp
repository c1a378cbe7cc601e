// Injection (BookSim-style): decides *when* an endpoint injects a packet,
// independently of the TrafficPattern that decides *where* it goes, so one
// workload can pair any pattern with any kind (e.g. a hotspot pattern
// driven by bursty on-off sources). A trace replay is the exception: the
// trace bytes fix both the cycle and the destination, and it runs without
// a pattern.
//
// The kinds are a closed set, resolved once per run by generate_packets:
//   bernoulli           memoryless; the default
//   onoff{alpha, beta}  two-state Markov sources
//   trace{trace, scale} replay of a recorded schedule (sim/trace.hpp)
// An Injection is an immutable value. It holds no per-run state (the
// on/off states and the replay schedule live in one generate_packets
// call), so one Injection serves any number of runs, concurrent ones too.
#pragma once

#include <functional>
#include <memory>
#include <utility>
#include <variant>

#include "shg/sim/concentration.hpp"
#include "shg/sim/config.hpp"
#include "shg/sim/traffic.hpp"

namespace shg::sim {

struct Trace;

class Injection {
 public:
  /// Each endpoint injects with probability injection_rate /
  /// packet_size_flits per cycle.
  struct Bernoulli {};
  /// Each endpoint flips off->on with probability `alpha` and on->off with
  /// probability `beta` per cycle, and injects only while on, at a burst
  /// probability scaled so the long-run mean rate still equals the
  /// Bernoulli one (burst = p * (alpha + beta) / alpha, which must be
  /// <= 1). Endpoints start off; warmup absorbs the transient.
  struct OnOff {
    double alpha = 0.0;
    double beta = 0.0;
  };
  /// Replays `trace`, with replay cycle = floor(timestamp / scale).
  struct Replay {
    std::shared_ptr<const Trace> trace;
    double scale = 1.0;
  };
  using Kind = std::variant<Bernoulli, OnOff, Replay>;

  /// Bernoulli.
  Injection() = default;
  /// Throws unless alpha is in (0, 1] and beta in [0, 1).
  static Injection onoff(double alpha, double beta);
  /// Validates `trace` (validate_trace) and throws on a null trace or a
  /// scale that is not positive.
  static Injection trace(std::shared_ptr<const Trace> trace,
                         double scale = 1.0);

  const Kind& kind() const { return kind_; }
  bool is_trace() const { return std::holds_alternative<Replay>(kind_); }

  /// Throws unless this injection can drive a run of `config` with
  /// `pattern`: the pattern must be null exactly for a trace replay, and
  /// an on/off duty cycle must reach the configured rate.
  void require_runnable(const TrafficPattern* pattern,
                        const SimConfig& config) const;

 private:
  explicit Injection(Kind kind) : kind_(std::move(kind)) {}

  Kind kind_;
};

/// Receives one generated packet: created at `cycle` by endpoint `port` of
/// `tile` and addressed to `dest`, a terminal id on a concentrated grid
/// and a tile id otherwise.
using PacketSink = std::function<void(Cycle cycle, int tile, int port,
                                      int dest)>;

/// The generation loop of one run, shared by the engine's pregeneration
/// and by trace recording (trace_from_spec). `grid` is the router grid
/// with its concentration; every tile has `ports` endpoints (the
/// concentration factor when that exceeds 1). Packets are created in the
/// cycles [0, warmup_cycles + measure_cycles) of `config`, in (cycle, tile,
/// port) order, from one Prng seeded with config.seed:
///  * bernoulli and onoff: per endpoint and cycle, the injection draws
///    (bernoulli: one chance; onoff: the state flip, then while on the
///    burst chance), then on a hit the pattern's destination draw. The
///    draw sequence is a pure function of the seed; the golden corpus
///    (tests/golden/sim_results.txt) pins it.
///  * trace: no draws. A message of s flits becomes ceil(s / packet size)
///    packets on consecutive cycles from max(scaled timestamp, the
///    source's previous message end, its dependency's end); packets past
///    the window are never created. Throws when the trace header's source
///    or terminal count differs from the grid's.
/// A packet addressed to its own source terminal (a permutation's fixed
/// point, a self-addressed trace record) is dropped after its draws.
void generate_packets(const Injection& injection,
                      const TrafficPattern* pattern, const Concentration& grid,
                      int ports, const SimConfig& config,
                      const PacketSink& emit);

}  // namespace shg::sim
