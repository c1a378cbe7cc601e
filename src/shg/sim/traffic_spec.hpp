// Declarative workload addressing: a TrafficSpec names a traffic pattern
// (where packets go) and an injection kind (when they are injected) in
// one string, so workloads can be written in configs, CLI arguments and
// report labels instead of being constructed by hand.
//
// Grammar (see README.md for the full table):
//
//   spec          := pattern [ "/" process ]
//                  | "trace:" path [ "@" scale ]  (recorded workload replay)
//   pattern       := "uniform" | "transpose" | "bit-complement"
//                  | "bit-reverse" | "shuffle" | "tornado" | "neighbor"
//                  | "hotspot:" tiles ":" fraction
//                  | "randperm:" seed           (seed-drawn permutation)
//   tiles         := tile { "," tile }          (flattened tile ids)
//   process       := "bernoulli"                (the default)
//                  | "onoff:" alpha "," beta    (bursty Markov on-off)
//
// Examples: "uniform", "hotspot:0,7:0.2", "randperm:7",
// "transpose/onoff:0.05,0.2", "trace:out/mempool.trace@2".
//
// A trace spec replaces BOTH halves: the trace bytes define where packets
// go and when (sim/trace.hpp), so it takes no "/" process suffix and has
// no pattern; injection() returns its replay.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "shg/sim/injection.hpp"
#include "shg/sim/traffic.hpp"

namespace shg::sim {

struct Trace;

/// A parsed workload specification. Factories are split from parsing so
/// one spec can be instantiated on many grids (patterns are grid-sized);
/// its injection is one value for every grid and rate.
struct TrafficSpec {
  // Pattern half.
  std::string pattern = "uniform";
  std::vector<int> hotspot_tiles;       ///< "hotspot" only
  double hotspot_fraction = 0.0;        ///< "hotspot" only
  std::uint64_t randperm_seed = 0;      ///< "randperm" only

  // Injection half.
  std::string process = "bernoulli";
  double on_off_alpha = 0.0;            ///< "onoff" only
  double on_off_beta = 0.0;             ///< "onoff" only

  // Trace replay ("trace" specs replace both halves).
  std::string trace_path;               ///< "trace" only
  double trace_scale = 1.0;             ///< "trace" only; time compression
  /// The loaded trace; filled by resolve_trace(), shared so copies of a
  /// resolved spec (experiment cells, shards) reuse one in-memory trace.
  std::shared_ptr<const Trace> trace;

  /// Parses a spec string; throws shg::Error (with the offending token)
  /// on unknown pattern/process names or malformed arguments.
  static TrafficSpec parse(const std::string& text);

  /// The canonical spec string; parse(canonical()) round-trips.
  std::string canonical() const;

  /// Instantiates the pattern for an R x C router grid with
  /// `concentration` terminals per router. With concentration == 1 (the
  /// default) patterns address tiles; otherwise they address row-major
  /// terminal ids on the concentrated terminal grid (sim/concentration.hpp)
  /// and hotspot ids are terminal ids. Throws when the pattern is not
  /// applicable (non-square transpose, non-power-of-two shuffle, hotspot
  /// id out of range, ...); the error names the canonical spec string and
  /// the offending terminal grid, not just the inner precondition.
  std::unique_ptr<TrafficPattern> make_pattern(int rows, int cols,
                                               int concentration = 1) const;

  /// True for "trace:" specs, which have no pattern half.
  bool is_trace() const { return pattern == "trace"; }

  /// Loads trace_path (sim/trace.hpp load_trace: full validation, warn +
  /// shg::Error on a bad file). Idempotent; a no-op for non-trace specs
  /// and for specs whose trace is already resolved.
  void resolve_trace();

  /// The trace's content hash — the fingerprint_sim_cell ingredient that
  /// makes trace cell keys sensitive to the trace BYTES, not just the
  /// path string in canonical(). 0 when this is not a resolved trace spec.
  std::uint64_t trace_content_hash() const;

  /// The injection half: bernoulli, onoff{alpha, beta}, or the replay of
  /// the resolved trace at trace_scale. Throws for a trace spec whose
  /// trace is not resolved yet (call resolve_trace() first).
  Injection injection() const;
};

/// The pattern names make_pattern understands (for error messages/docs).
const std::vector<std::string>& known_pattern_names();

}  // namespace shg::sim
