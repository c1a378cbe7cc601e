// Trace-driven workloads: a compact checksummed on-disk trace format
// (`shg.trace.v1`, in the `shg.cache.v1` idiom), replayed by the trace
// kind of sim::Injection (sim/injection.hpp), and trace_from_spec, which
// records a synthetic workload through the engine's own generation loop.
//
// A trace is an ordered list of message records — per-source timestamp
// deltas, destination terminal ids, message sizes in flits, and optional
// message-dependency edges. Replay is a PURE FUNCTION OF THE TRACE BYTES
// (plus the grid shape and packet size): it draws nothing from the
// simulation PRNG and observes no network state, so the injection schedule
// stays a pure function of the run's inputs — the invariant the engine's
// pregeneration and whole-network quiescence fast-forward rely on.
//
// Dependencies are resolved at schedule-build time, not delivery time: a
// record with `dep = j` starts no earlier than the cycle record j finished
// injecting. Waiting on *delivery* would make the schedule depend on
// network state and break that purity; injection-order
// dependencies keep producer-consumer shaped traces meaningful (a reply
// never precedes its request's injection) while preserving purity.
//
// On-disk layout (all integers little-endian):
//   [0, 8)    magic "SHGTRACE"
//   [8, 12)   format version (1)
//   [12, 16)  reserved (0)
//   [16, 24)  source count (injection source index space)
//   [24, 32)  terminal count (destination id space)
//   [32, 40)  record count
//   [40, 48)  FNV-1a 64 checksum of the record payload bytes
//   [48, ...) records, 24 B each: source u32, timestamp delta u32 (cycles
//             since this source's previous record; absolute for its
//             first), destination u32, size in flits u32, dependency u64
//             (index of an earlier record, or ~0 for none)
//
// Records are stored in global time order: the absolute timestamps
// reconstructed from the per-source deltas must be nondecreasing in file
// order (the loader rejects violations). The loader validates everything —
// magic, version, truncation, checksum, id ranges, sizes, dependency
// shape, timestamp order — and rejects a bad file with a `shg::log`
// warning plus a clean `shg::Error`; it never crashes or reads past the
// buffer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "shg/sim/config.hpp"

namespace shg::sim {

struct TrafficSpec;

/// Sentinel: the record depends on nothing.
inline constexpr std::uint64_t kTraceNoDep = ~0ULL;

/// One message: `source` injects `size_flits` flits toward `dest` at the
/// absolute cycle reconstructed from the per-source `delta` chain, no
/// earlier than the injection end of record `dep` (if any).
struct TraceRecord {
  std::uint32_t source = 0;      ///< injection source (tile * ports + port)
  std::uint32_t delta = 0;       ///< cycles since this source's last record
  std::uint32_t dest = 0;        ///< terminal id (tile id when unconcentrated)
  std::uint32_t size_flits = 1;  ///< message size, >= 1
  std::uint64_t dep = kTraceNoDep;  ///< earlier record index or kTraceNoDep

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

/// An in-memory trace: the id spaces it was recorded against plus the
/// ordered records. `num_sources` is the injection source index space
/// (tiles x local ports); `num_terminals` is the destination id space —
/// the concentrated terminal grid when recorded with concentration > 1,
/// the tile grid otherwise.
struct Trace {
  std::uint32_t num_sources = 0;
  std::uint32_t num_terminals = 0;
  std::vector<TraceRecord> records;

  /// FNV-1a 64 over the canonical serialized bytes (counts + records).
  /// Two traces differing in any single byte of any record or header
  /// count hash differently; this is the content ingredient of
  /// `fingerprint_sim_cell` for trace cells.
  std::uint64_t content_hash() const;

  friend bool operator==(const Trace&, const Trace&) = default;
};

/// Semantic validation shared by the loader and Injection::trace:
/// nonempty id spaces, in-range sources/destinations, nonzero sizes,
/// backward-only dependencies, globally nondecreasing reconstructed
/// timestamps (and a 2^48 timestamp cap so cycle arithmetic cannot
/// overflow). Throws shg::Error naming `context` on the first violation.
void validate_trace(const Trace& trace, const std::string& context);

/// Writes `trace` to `path` in the shg.trace.v1 layout. The writer does
/// NOT validate (tests craft deliberately invalid files through it);
/// throws shg::Error on I/O failure.
void save_trace(const Trace& trace, const std::string& path);

/// Reads and fully validates one trace file. Every rejection — absent
/// file, truncation, wrong magic/version, checksum mismatch, or any
/// validate_trace violation — emits a `shg::log` warning naming the path
/// and the reason, then throws a clean shg::Error.
Trace load_trace(const std::string& path);

/// Recording knobs for trace_from_spec: the grid and injection parameters
/// of the live run being materialized.
struct TraceRecordOptions {
  int rows = 1;
  int cols = 1;
  int concentration = 1;       ///< terminals per router (see concentration.hpp)
  int endpoints_per_tile = 1;  ///< ignored when concentration > 1
  double injection_rate = 0.1;  ///< flits / cycle / source
  int packet_size_flits = 1;
  Cycle cycles = 1000;  ///< generation window length (warmup + measure)
  std::uint64_t seed = 1;
};

/// Materializes a synthetic spec into a trace by running the engine's
/// generation loop (generate_packets) and recording every packet it
/// creates as a one-packet message. Replaying the result through
/// Injection::trace with the same grid, packet size and generation window
/// reproduces the live run's injection schedule exactly — the differential
/// oracle the trace tests gate on.
Trace trace_from_spec(const TrafficSpec& spec, const TraceRecordOptions& opt);

}  // namespace shg::sim
