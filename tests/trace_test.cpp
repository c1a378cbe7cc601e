// Trace subsystem battery (sim/trace.hpp):
//  * shg.trace.v1 round trip and content-hash sensitivity (one byte of one
//    record -> a different hash);
//  * the loader's corruption matrix — truncations, wrong magic/version,
//    checksum flips, out-of-range ids, zero sizes, forward dependencies,
//    timestamp-order violations — each rejected with a shg::log warning
//    and a clean shg::Error, never UB;
//  * the replay schedule semantics probed directly through the engine's
//    generation loop (multi-packet messages, dependency stalls,
//    same-source serialization, time scaling, creation order, one
//    injection shared by many runs);
//  * the differential replay oracle: a synthetic spec materialized by
//    trace_from_spec and replayed must produce a SimResult bit-identical
//    to the live run it was recorded from, across spec families;
//  * the trace: TrafficSpec grammar (parse/canonical round trip, errors).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <vector>

#include "shg/common/log.hpp"
#include "shg/sim/simulator.hpp"
#include "shg/sim/trace.hpp"
#include "shg/sim/traffic_spec.hpp"
#include "shg/topo/generators.hpp"

namespace shg::sim {
namespace {

/// Captures shg::log warnings for the duration of a test body.
struct WarningCapture {
  std::vector<std::string> lines;
  WarningCapture() {
    log::set_sink([this](const std::string&, const std::string& line) {
      lines.push_back(line);
    });
  }
  ~WarningCapture() { log::set_sink(nullptr); }
};

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void flip_byte(const std::string& path, std::size_t offset) {
  std::string bytes = read_bytes(path);
  ASSERT_LT(offset, bytes.size());
  bytes[offset] = static_cast<char>(bytes[offset] ^ 0x5a);
  write_bytes(path, bytes);
}

/// A small hand-built valid trace: 4 sources / 4 terminals, three records.
Trace small_trace() {
  Trace trace;
  trace.num_sources = 4;
  trace.num_terminals = 4;
  trace.records.push_back(TraceRecord{0, 0, 1, 2, kTraceNoDep});
  trace.records.push_back(TraceRecord{1, 2, 3, 4, 0});
  trace.records.push_back(TraceRecord{0, 5, 2, 1, kTraceNoDep});
  return trace;
}

/// Asserts load_trace(path) warns exactly once and throws shg::Error.
void expect_rejected(const std::string& path) {
  WarningCapture capture;
  EXPECT_THROW(load_trace(path), Error) << path;
  ASSERT_EQ(capture.lines.size(), 1u) << path;
  EXPECT_NE(capture.lines[0].find("trace file"), std::string::npos);
  EXPECT_NE(capture.lines[0].find("rejecting"), std::string::npos);
}

TEST(TraceFormat, SaveLoadRoundTrip) {
  const Trace trace = small_trace();
  const std::string path = temp_path("roundtrip.trace");
  save_trace(trace, path);
  const Trace loaded = load_trace(path);
  EXPECT_EQ(loaded, trace);
  EXPECT_EQ(loaded.content_hash(), trace.content_hash());
  // The writer is canonical: saving the loaded trace reproduces the bytes.
  const std::string again = temp_path("roundtrip2.trace");
  save_trace(loaded, again);
  EXPECT_EQ(read_bytes(path), read_bytes(again));
}

TEST(TraceFormat, ContentHashSensitiveToEveryRecordField) {
  const Trace base = small_trace();
  const std::uint64_t h = base.content_hash();
  Trace t = base;
  t.records[1].dest = 2;
  EXPECT_NE(t.content_hash(), h);
  t = base;
  t.records[2].delta += 1;
  EXPECT_NE(t.content_hash(), h);
  t = base;
  t.records[0].size_flits += 1;
  EXPECT_NE(t.content_hash(), h);
  t = base;
  t.records[1].dep = kTraceNoDep;
  EXPECT_NE(t.content_hash(), h);
  t = base;
  t.num_terminals = 5;
  EXPECT_NE(t.content_hash(), h);
  t = base;
  t.records.pop_back();
  EXPECT_NE(t.content_hash(), h);
}

// --- Corruption matrix ------------------------------------------------------

TEST(TraceCorruption, AbsentFileRejected) {
  expect_rejected(temp_path("no-such.trace"));
}

TEST(TraceCorruption, TruncatedHeaderRejected) {
  const std::string path = temp_path("trunc-header.trace");
  save_trace(small_trace(), path);
  write_bytes(path, read_bytes(path).substr(0, 20));
  expect_rejected(path);
}

TEST(TraceCorruption, TruncatedPayloadRejected) {
  const std::string path = temp_path("trunc-payload.trace");
  save_trace(small_trace(), path);
  const std::string bytes = read_bytes(path);
  write_bytes(path, bytes.substr(0, bytes.size() - 10));
  expect_rejected(path);
}

TEST(TraceCorruption, TrailingBytesRejected) {
  const std::string path = temp_path("trailing.trace");
  save_trace(small_trace(), path);
  write_bytes(path, read_bytes(path) + "extra");
  expect_rejected(path);
}

TEST(TraceCorruption, WrongMagicRejected) {
  const std::string path = temp_path("magic.trace");
  save_trace(small_trace(), path);
  flip_byte(path, 0);
  expect_rejected(path);
}

TEST(TraceCorruption, CacheFileFedToTraceLoaderRejected) {
  // A different shg on-disk format (same 8-byte-magic idiom) must not be
  // confused for a trace.
  const std::string path = temp_path("cachefile.trace");
  write_bytes(path, std::string("SHGCACHE") + std::string(40, '\0'));
  expect_rejected(path);
}

TEST(TraceCorruption, FutureVersionRejected) {
  const std::string path = temp_path("version.trace");
  save_trace(small_trace(), path);
  flip_byte(path, 8);
  expect_rejected(path);
}

TEST(TraceCorruption, FlippedChecksumRejected) {
  const std::string path = temp_path("checksum.trace");
  save_trace(small_trace(), path);
  flip_byte(path, 40);  // inside the stored checksum
  expect_rejected(path);
}

TEST(TraceCorruption, FlippedPayloadByteRejected) {
  const std::string path = temp_path("payload.trace");
  save_trace(small_trace(), path);
  flip_byte(path, 48 + 8);  // first record's destination field
  expect_rejected(path);
}

TEST(TraceCorruption, OutOfRangeSourceRejected) {
  Trace trace = small_trace();
  trace.records[1].source = 4;  // == num_sources
  const std::string path = temp_path("bad-source.trace");
  save_trace(trace, path);
  expect_rejected(path);
}

TEST(TraceCorruption, OutOfRangeDestinationRejected) {
  Trace trace = small_trace();
  trace.records[2].dest = 99;
  const std::string path = temp_path("bad-dest.trace");
  save_trace(trace, path);
  expect_rejected(path);
}

TEST(TraceCorruption, ZeroSizeMessageRejected) {
  Trace trace = small_trace();
  trace.records[0].size_flits = 0;
  const std::string path = temp_path("zero-size.trace");
  save_trace(trace, path);
  expect_rejected(path);
}

TEST(TraceCorruption, SelfOrForwardDependencyRejected) {
  Trace trace = small_trace();
  trace.records[1].dep = 1;  // self
  const std::string self_path = temp_path("self-dep.trace");
  save_trace(trace, self_path);
  expect_rejected(self_path);

  trace = small_trace();
  trace.records[0].dep = 2;  // forward
  const std::string fwd_path = temp_path("fwd-dep.trace");
  save_trace(trace, fwd_path);
  expect_rejected(fwd_path);
}

TEST(TraceCorruption, TimestampOrderViolationRejected) {
  // Reconstructed absolute cycles: record 0 at cycle 7, record 1 (other
  // source) at cycle 2 — file order is not global time order.
  Trace trace;
  trace.num_sources = 2;
  trace.num_terminals = 2;
  trace.records.push_back(TraceRecord{0, 7, 1, 1, kTraceNoDep});
  trace.records.push_back(TraceRecord{1, 2, 0, 1, kTraceNoDep});
  const std::string path = temp_path("ts-order.trace");
  save_trace(trace, path);
  expect_rejected(path);
}

TEST(TraceCorruption, GarbageBytesRejected) {
  const std::string path = temp_path("garbage.trace");
  std::string garbage;
  for (int i = 0; i < 4096; ++i) {
    garbage.push_back(static_cast<char>((i * 131 + 17) & 0xff));
  }
  write_bytes(path, garbage);
  expect_rejected(path);
}

// --- Replay schedule semantics ---------------------------------------------

/// One packet of a replay schedule.
struct Scheduled {
  Cycle cycle;
  int source;
  int dest;
  friend bool operator==(const Scheduled&, const Scheduled&) = default;
};

/// The packets the engine's generation loop creates for `injection` in
/// `cycles` cycles on a 1 x `tiles` grid with one endpoint per tile (so a
/// source id is its tile id), in creation order.
std::vector<Scheduled> schedule(const Injection& injection, int tiles,
                                int packet_size_flits, Cycle cycles,
                                int ports = 1) {
  SimConfig config;
  config.packet_size_flits = packet_size_flits;
  config.warmup_cycles = 0;
  config.measure_cycles = cycles;
  std::vector<Scheduled> out;
  generate_packets(injection, nullptr, Concentration::make(1, tiles, 1), ports,
                   config, [&](Cycle t, int tile, int port, int dest) {
                     out.push_back(Scheduled{t, tile * ports + port, dest});
                   });
  return out;
}

Injection replay(const Trace& trace, double scale = 1.0) {
  return Injection::trace(std::make_shared<const Trace>(trace), scale);
}

TEST(TraceReplay, MultiPacketMessagesSplitAcrossConsecutiveCycles) {
  Trace trace;
  trace.num_sources = 4;
  trace.num_terminals = 4;
  trace.records.push_back(TraceRecord{0, 0, 3, 5, kTraceNoDep});  // 3 packets
  const std::vector<Scheduled> expected = {{0, 0, 3}, {1, 0, 3}, {2, 0, 3}};
  EXPECT_EQ(schedule(replay(trace), 4, /*packet_size_flits=*/2, 10),
            expected);
}

TEST(TraceReplay, DependencyStallsTheConsumer) {
  // Record 1 (source 1, timestamp 0) depends on record 0, which finishes
  // injecting at cycle 2 — so source 1 fires at cycle 2, not 0.
  Trace trace;
  trace.num_sources = 4;
  trace.num_terminals = 4;
  trace.records.push_back(TraceRecord{0, 0, 1, 4, kTraceNoDep});
  trace.records.push_back(TraceRecord{1, 0, 2, 2, 0});
  const std::vector<Scheduled> expected = {{0, 0, 1}, {1, 0, 1}, {2, 1, 2}};
  EXPECT_EQ(schedule(replay(trace), 4, /*packet_size_flits=*/2, 10),
            expected);
}

TEST(TraceReplay, SameSourceMessagesSerialize) {
  // The second message's timestamp (cycle 1) lands inside the first's
  // 2-cycle injection; it is pushed to the source's next free cycle.
  Trace trace;
  trace.num_sources = 4;
  trace.num_terminals = 4;
  trace.records.push_back(TraceRecord{0, 0, 1, 4, kTraceNoDep});
  trace.records.push_back(TraceRecord{0, 1, 2, 2, kTraceNoDep});
  const std::vector<Scheduled> expected = {{0, 0, 1}, {1, 0, 1}, {2, 0, 2}};
  EXPECT_EQ(schedule(replay(trace), 4, /*packet_size_flits=*/2, 10),
            expected);
}

TEST(TraceReplay, ScaleCompressesTime) {
  Trace trace;
  trace.num_sources = 2;
  trace.num_terminals = 2;
  trace.records.push_back(TraceRecord{0, 10, 1, 1, kTraceNoDep});
  EXPECT_EQ(schedule(replay(trace, 1.0), 2, 1, 50),
            (std::vector<Scheduled>{{10, 0, 1}}));
  EXPECT_EQ(schedule(replay(trace, 2.0), 2, 1, 50),
            (std::vector<Scheduled>{{5, 0, 1}}));
  EXPECT_EQ(schedule(replay(trace, 0.5), 2, 1, 50),
            (std::vector<Scheduled>{{20, 0, 1}}));
  // Replay cycle 10 / 1e-30 lies far past the window (and past what a
  // Cycle holds): no packet is created.
  EXPECT_EQ(schedule(replay(trace, 1e-30), 2, 1, 50),
            std::vector<Scheduled>{});
}

TEST(TraceReplay, CreationOrderIsCycleThenSource) {
  // Records in file order (source 3 first) are created in (cycle, source)
  // order, the order the synthetic kinds draw in; packets at or past the
  // window end are never created.
  Trace trace;
  trace.num_sources = 4;
  trace.num_terminals = 4;
  trace.records.push_back(TraceRecord{3, 1, 0, 2, kTraceNoDep});
  trace.records.push_back(TraceRecord{1, 1, 2, 4, kTraceNoDep});
  trace.records.push_back(TraceRecord{2, 2, 1, 1, kTraceNoDep});
  trace.records.push_back(TraceRecord{0, 4, 3, 1, kTraceNoDep});
  const std::vector<Scheduled> expected = {
      {1, 1, 2}, {1, 3, 0}, {2, 1, 2}, {2, 2, 1}, {2, 3, 0}, {3, 1, 2}};
  EXPECT_EQ(schedule(replay(trace), 4, /*packet_size_flits=*/1, 4),
            expected);
}

TEST(TraceReplay, OneInjectionServesManyRuns) {
  // The injection holds no cursor: every generation from one value, and
  // every simulator sharing it, sees the whole schedule.
  const Injection injection = replay(small_trace());
  const std::vector<Scheduled> first = schedule(injection, 4, 4, 10);
  const std::vector<Scheduled> second = schedule(injection, 4, 4, 10);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.size(), 3u);

  const auto topo = topo::make_ring(2, 2);
  SimConfig config;
  config.num_vcs = 2;
  config.packet_size_flits = 4;
  config.warmup_cycles = 0;
  config.measure_cycles = 20;
  const std::vector<int> latencies(
      static_cast<std::size_t>(topo.graph().num_edges()), 1);
  Simulator a(topo, latencies, config, nullptr, 1, nullptr, injection);
  Simulator b(topo, latencies, config, nullptr, 1, nullptr, injection);
  const SimResult ra = a.run();
  EXPECT_EQ(b.run(), ra);
  EXPECT_EQ(a.run(), ra);
  EXPECT_EQ(ra.measured_packets, 3);
}

TEST(TraceReplay, GridMismatchThrows) {
  const Injection injection = replay(small_trace());  // 4 sources, 4 ids
  EXPECT_THROW(schedule(injection, 5, 1, 10), Error);  // 5 sources
  EXPECT_THROW(schedule(injection, 2, 1, 10, 2), Error);  // 2 terminals
  EXPECT_THROW(schedule(injection, 4, 0, 10), Error);  // no packet size
  EXPECT_THROW(Injection::trace(nullptr), Error);
  EXPECT_THROW(replay(small_trace(), 0.0), Error);
}

// --- Differential replay oracle --------------------------------------------

SimConfig fast_config() {
  SimConfig config;
  config.num_vcs = 2;
  config.buffer_depth_flits = 4;
  config.packet_size_flits = 4;
  config.warmup_cycles = 300;
  config.measure_cycles = 900;
  config.drain_cycles = 30000;
  return config;
}

std::vector<int> unit_latencies(const topo::Topology& topo) {
  return std::vector<int>(static_cast<std::size_t>(topo.graph().num_edges()),
                          1);
}

void expect_same_result(const SimResult& a, const SimResult& b,
                        const std::string& what) {
  EXPECT_EQ(a.cycles_run, b.cycles_run) << what;
  EXPECT_EQ(a.measured_packets, b.measured_packets) << what;
  EXPECT_EQ(a.drained, b.drained) << what;
  EXPECT_EQ(a.accepted_rate, b.accepted_rate) << what;
  EXPECT_EQ(a.avg_packet_latency, b.avg_packet_latency) << what;
  EXPECT_EQ(a.max_packet_latency, b.max_packet_latency) << what;
  EXPECT_EQ(a.p50_packet_latency, b.p50_packet_latency) << what;
  EXPECT_EQ(a.p95_packet_latency, b.p95_packet_latency) << what;
  EXPECT_EQ(a.p99_packet_latency, b.p99_packet_latency) << what;
  EXPECT_EQ(a.avg_hops, b.avg_hops) << what;
  EXPECT_EQ(a.fairness, b.fairness) << what;
  EXPECT_GT(a.measured_packets, 0) << what;
}

/// Live run vs. trace_from_spec + replay. The recorded
/// trace reproduces the live generation schedule exactly, so every
/// SimResult field must match bit for bit.
void expect_replay_matches_live(const topo::Topology& topo,
                                const SimConfig& config,
                                const std::string& spec_text) {
  const TrafficSpec spec = TrafficSpec::parse(spec_text);
  const int conc = topo.concentration();

  const auto pattern = spec.make_pattern(topo.rows(), topo.cols(), conc);
  Simulator live(topo, unit_latencies(topo), config, pattern.get(), 1, nullptr,
                 spec.injection());
  const SimResult live_result = live.run();

  TraceRecordOptions opt;
  opt.rows = topo.rows();
  opt.cols = topo.cols();
  opt.concentration = conc;
  opt.endpoints_per_tile = 1;
  opt.injection_rate = config.injection_rate;
  opt.packet_size_flits = config.packet_size_flits;
  opt.cycles = config.warmup_cycles + config.measure_cycles;
  opt.seed = config.seed;
  Simulator replay(topo, unit_latencies(topo), config, nullptr, 1, nullptr,
                   Injection::trace(std::make_shared<const Trace>(
                       trace_from_spec(spec, opt))));
  const SimResult replay_result = replay.run();

  expect_same_result(live_result, replay_result, spec_text);
}

TEST(TraceDifferential, ReplayBitIdenticalToLiveRun) {
  const auto topo = topo::make_mesh(4, 4);
  SimConfig config = fast_config();
  config.injection_rate = 0.05;
  for (const char* spec :
       {"uniform", "hotspot:0,5:0.4", "transpose/onoff:0.1,0.3",
        "randperm:7"}) {
    SCOPED_TRACE(spec);
    expect_replay_matches_live(topo, config, spec);
  }
}

TEST(TraceDifferential, ReplayBitIdenticalOnConcentratedFabric) {
  const auto topo = topo::make_concentrated_mesh(4, 4, 4);
  SimConfig config = fast_config();
  config.injection_rate = 0.03;
  expect_replay_matches_live(topo, config, "hotspot:0,9:0.4");
}

TEST(TraceDifferential, RoundTripThroughDiskPreservesTheOracle) {
  // The full pipeline: record -> save -> load -> replay == live.
  const auto topo = topo::make_torus(4, 4);
  SimConfig config = fast_config();
  config.injection_rate = 0.05;
  const TrafficSpec spec = TrafficSpec::parse("uniform");
  TraceRecordOptions opt;
  opt.rows = 4;
  opt.cols = 4;
  opt.injection_rate = config.injection_rate;
  opt.packet_size_flits = config.packet_size_flits;
  opt.cycles = config.warmup_cycles + config.measure_cycles;
  opt.seed = config.seed;
  const std::string path = temp_path("oracle.trace");
  save_trace(trace_from_spec(spec, opt), path);

  const auto pattern = spec.make_pattern(4, 4);
  Simulator live(topo, unit_latencies(topo), config, pattern.get(), 1, nullptr,
                 spec.injection());
  TrafficSpec loaded = TrafficSpec::parse("trace:" + path);
  loaded.resolve_trace();
  Simulator replay(topo, unit_latencies(topo), config, nullptr, 1, nullptr,
                   loaded.injection());
  expect_same_result(live.run(), replay.run(), "disk round trip");
}

// --- trace: spec grammar ----------------------------------------------------

TEST(TraceSpec, ParseCanonicalRoundTrip) {
  TrafficSpec spec = TrafficSpec::parse("trace:/tmp/a/b.trace");
  EXPECT_TRUE(spec.is_trace());
  EXPECT_EQ(spec.trace_path, "/tmp/a/b.trace");
  EXPECT_EQ(spec.trace_scale, 1.0);
  EXPECT_EQ(spec.canonical(), "trace:/tmp/a/b.trace");

  spec = TrafficSpec::parse("trace:rel/path.trace@2.5");
  EXPECT_EQ(spec.trace_path, "rel/path.trace");
  EXPECT_EQ(spec.trace_scale, 2.5);
  EXPECT_EQ(spec.canonical(), "trace:rel/path.trace@2.5");
  EXPECT_EQ(TrafficSpec::parse(spec.canonical()).canonical(),
            spec.canonical());

  // Scale 1 is the default and canonicalizes away.
  EXPECT_EQ(TrafficSpec::parse("trace:x.trace@1").canonical(),
            "trace:x.trace");
}

TEST(TraceSpec, MalformedSpecsRejected) {
  EXPECT_THROW(TrafficSpec::parse("trace:"), Error);
  EXPECT_THROW(TrafficSpec::parse("trace"), Error);
  EXPECT_THROW(TrafficSpec::parse("trace:file@zero"), Error);
  EXPECT_THROW(TrafficSpec::parse("trace:file@0"), Error);
  EXPECT_THROW(TrafficSpec::parse("trace:file@-1"), Error);
}

TEST(TraceSpec, SyntheticFactoriesRefuseTraceSpecs) {
  const TrafficSpec spec = TrafficSpec::parse("trace:x.trace");
  EXPECT_THROW(spec.make_pattern(4, 4), Error);
  // An unresolved trace has no injection.
  EXPECT_THROW(spec.injection(), Error);
  // The simulator refuses a pattern with a trace replay and a synthetic
  // injection without one.
  const auto topo = topo::make_mesh(2, 2);
  const std::vector<int> latencies(
      static_cast<std::size_t>(topo.graph().num_edges()), 1);
  const auto pattern = TrafficSpec::parse("uniform").make_pattern(2, 2);
  Trace trace;
  trace.num_sources = 4;
  trace.num_terminals = 4;
  EXPECT_THROW(Simulator(topo, latencies, SimConfig{}, pattern.get(), 1,
                         nullptr, replay(trace)),
               Error);
  EXPECT_THROW(Simulator(topo, latencies, SimConfig{}, nullptr, 1), Error);
}

TEST(TraceSpec, ResolveTraceLoadsAndHashes) {
  const std::string path = temp_path("resolve.trace");
  save_trace(small_trace(), path);
  TrafficSpec spec = TrafficSpec::parse("trace:" + path);
  EXPECT_EQ(spec.trace_content_hash(), 0u);  // unresolved
  spec.resolve_trace();
  ASSERT_NE(spec.trace, nullptr);
  EXPECT_EQ(spec.trace_content_hash(), small_trace().content_hash());
  // Idempotent: resolving again keeps the same object.
  const Trace* before = spec.trace.get();
  spec.resolve_trace();
  EXPECT_EQ(spec.trace.get(), before);
}

TEST(TraceSpec, ResolveTraceRejectsBadFileCleanly) {
  const std::string path = temp_path("resolve-bad.trace");
  save_trace(small_trace(), path);
  flip_byte(path, 40);
  TrafficSpec spec = TrafficSpec::parse("trace:" + path);
  WarningCapture capture;
  EXPECT_THROW(spec.resolve_trace(), Error);
  EXPECT_EQ(capture.lines.size(), 1u);
}

}  // namespace
}  // namespace shg::sim
