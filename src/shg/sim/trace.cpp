#include "shg/sim/trace.hpp"

#include <cstdio>
#include <cstring>
#include <memory>

#include "shg/common/error.hpp"
#include "shg/common/log.hpp"
#include "shg/sim/concentration.hpp"
#include "shg/sim/injection.hpp"
#include "shg/sim/traffic_spec.hpp"

namespace shg::sim {

namespace {

// shg.trace.v1 layout constants (see trace.hpp for the full map).
constexpr char kMagic[8] = {'S', 'H', 'G', 'T', 'R', 'A', 'C', 'E'};
constexpr std::uint32_t kFormatVersion = 1;
constexpr std::size_t kHeaderBytes = 48;
constexpr std::size_t kRecordBytes = 24;
/// Reconstructed absolute timestamps are capped so that schedule cycle
/// arithmetic (start + packet count) can never overflow a Cycle.
constexpr std::uint64_t kMaxTimestamp = 1ULL << 48;

void put_u32(std::vector<unsigned char>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<unsigned char>(v >> (8 * i)));
  }
}

void put_u64(std::vector<unsigned char>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<unsigned char>(v >> (8 * i)));
  }
}

std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t fnv1a(std::uint64_t h, const unsigned char* data,
                    std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    h = (h ^ data[i]) * 0x00000100000001b3ULL;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::vector<unsigned char> serialize_records(const Trace& trace) {
  std::vector<unsigned char> payload;
  payload.reserve(trace.records.size() * kRecordBytes);
  for (const TraceRecord& rec : trace.records) {
    put_u32(payload, rec.source);
    put_u32(payload, rec.delta);
    put_u32(payload, rec.dest);
    put_u32(payload, rec.size_flits);
    put_u64(payload, rec.dep);
  }
  return payload;
}

/// The loader's single rejection path: one warning line through the
/// shg::log sink, then a clean shg::Error. Never UB, never a crash.
[[noreturn]] void reject(const std::string& path, const std::string& reason) {
  log::warnf("shg: warning: trace file '%s' %s; rejecting it\n", path.c_str(),
             reason.c_str());
  throw Error("trace file '" + path + "' " + reason);
}

}  // namespace

std::uint64_t Trace::content_hash() const {
  std::vector<unsigned char> head;
  head.reserve(24);
  put_u64(head, num_sources);
  put_u64(head, num_terminals);
  put_u64(head, records.size());
  const std::vector<unsigned char> payload = serialize_records(*this);
  std::uint64_t h = fnv1a(kFnvBasis, head.data(), head.size());
  return fnv1a(h, payload.data(), payload.size());
}

void validate_trace(const Trace& trace, const std::string& context) {
  SHG_REQUIRE(trace.num_sources >= 1,
              context + ": trace declares zero sources");
  SHG_REQUIRE(trace.num_terminals >= 1,
              context + ": trace declares zero terminals");
  // Per-source delta chains reconstruct absolute timestamps; file order
  // must be global time order, so the reconstructed sequence must be
  // nondecreasing across ALL records, not merely per source.
  std::vector<std::uint64_t> last_ts(trace.num_sources, 0);
  std::uint64_t prev_abs = 0;
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    const TraceRecord& rec = trace.records[i];
    const std::string at = context + ": record " + std::to_string(i);
    SHG_REQUIRE(rec.source < trace.num_sources,
                at + " source " + std::to_string(rec.source) +
                    " out of range (trace declares " +
                    std::to_string(trace.num_sources) + " sources)");
    SHG_REQUIRE(rec.dest < trace.num_terminals,
                at + " destination " + std::to_string(rec.dest) +
                    " out of range (trace declares " +
                    std::to_string(trace.num_terminals) + " terminals)");
    SHG_REQUIRE(rec.size_flits >= 1, at + " has a zero-flit message size");
    SHG_REQUIRE(rec.dep == kTraceNoDep || rec.dep < i,
                at + " depends on record " + std::to_string(rec.dep) +
                    ", which is not an earlier record");
    const std::uint64_t abs = last_ts[rec.source] + rec.delta;
    SHG_REQUIRE(abs <= kMaxTimestamp,
                at + " reconstructs a timestamp past the 2^48 cap");
    SHG_REQUIRE(abs >= prev_abs,
                at + " violates timestamp order (reconstructed cycle " +
                    std::to_string(abs) + " precedes cycle " +
                    std::to_string(prev_abs) + ")");
    last_ts[rec.source] = abs;
    prev_abs = abs;
  }
}

void save_trace(const Trace& trace, const std::string& path) {
  const std::vector<unsigned char> payload = serialize_records(trace);
  std::vector<unsigned char> header;
  header.reserve(kHeaderBytes);
  header.insert(header.end(), kMagic, kMagic + sizeof(kMagic));
  put_u32(header, kFormatVersion);
  put_u32(header, 0);  // reserved
  put_u64(header, trace.num_sources);
  put_u64(header, trace.num_terminals);
  put_u64(header, trace.records.size());
  put_u64(header, fnv1a(kFnvBasis, payload.data(), payload.size()));

  std::FILE* f = std::fopen(path.c_str(), "wb");
  SHG_REQUIRE(f != nullptr, "cannot write trace file '" + path + "'");
  const bool ok =
      std::fwrite(header.data(), 1, header.size(), f) == header.size() &&
      (payload.empty() ||
       std::fwrite(payload.data(), 1, payload.size(), f) == payload.size());
  const bool closed = std::fclose(f) == 0;
  SHG_REQUIRE(ok && closed, "short write to trace file '" + path + "'");
}

Trace load_trace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) reject(path, "cannot be opened");
  std::vector<unsigned char> data;
  {
    unsigned char buf[1 << 16];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      data.insert(data.end(), buf, buf + n);
    }
    const bool read_error = std::ferror(f) != 0;
    std::fclose(f);
    if (read_error) reject(path, "failed to read");
  }

  if (data.size() < kHeaderBytes) {
    reject(path, "is truncated (shorter than the shg.trace.v1 header)");
  }
  if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    reject(path, "has the wrong magic (not an shg.trace.v1 file)");
  }
  const std::uint32_t version = get_u32(data.data() + 8);
  if (version != kFormatVersion) {
    reject(path, "has unsupported format version " + std::to_string(version));
  }
  const std::uint64_t num_sources = get_u64(data.data() + 16);
  const std::uint64_t num_terminals = get_u64(data.data() + 24);
  const std::uint64_t num_records = get_u64(data.data() + 32);
  const std::uint64_t checksum = get_u64(data.data() + 40);
  if (num_sources > (1ULL << 31) || num_terminals > (1ULL << 31)) {
    reject(path, "declares an implausible id space (more than 2^31 ids)");
  }
  const std::uint64_t payload_bytes = data.size() - kHeaderBytes;
  if (num_records > payload_bytes / kRecordBytes) {
    reject(path, "is truncated (record count exceeds the payload)");
  }
  if (num_records * kRecordBytes != payload_bytes) {
    reject(path, "has trailing bytes after the declared records");
  }
  if (fnv1a(kFnvBasis, data.data() + kHeaderBytes, payload_bytes) != checksum) {
    reject(path, "fails its payload checksum");
  }

  Trace trace;
  trace.num_sources = static_cast<std::uint32_t>(num_sources);
  trace.num_terminals = static_cast<std::uint32_t>(num_terminals);
  trace.records.resize(num_records);
  const unsigned char* p = data.data() + kHeaderBytes;
  for (std::uint64_t i = 0; i < num_records; ++i, p += kRecordBytes) {
    TraceRecord& rec = trace.records[i];
    rec.source = get_u32(p);
    rec.delta = get_u32(p + 4);
    rec.dest = get_u32(p + 8);
    rec.size_flits = get_u32(p + 12);
    rec.dep = get_u64(p + 16);
  }
  try {
    validate_trace(trace, "trace file '" + path + "'");
  } catch (const Error& e) {
    reject(path, std::string("fails validation: ") + e.what());
  }
  return trace;
}

Trace trace_from_spec(const TrafficSpec& spec, const TraceRecordOptions& opt) {
  SHG_REQUIRE(spec.pattern != "trace",
              "trace_from_spec materializes synthetic specs; '" +
                  spec.canonical() + "' is already a trace");
  SHG_REQUIRE(opt.rows >= 1 && opt.cols >= 1, "trace recording needs a grid");
  SHG_REQUIRE(opt.cycles >= 1 && opt.cycles <= (1LL << 32),
              "trace recording window must be in [1, 2^32] cycles");
  SHG_REQUIRE(opt.packet_size_flits >= 1,
              "trace recording needs a packet size");
  const Concentration conc =
      Concentration::make(opt.rows, opt.cols, opt.concentration);
  const bool concentrated = opt.concentration > 1;
  const int num_tiles = opt.rows * opt.cols;
  const int ports = concentrated ? opt.concentration : opt.endpoints_per_tile;
  SHG_REQUIRE(ports >= 1, "trace recording needs at least one endpoint");

  Trace trace;
  trace.num_sources = static_cast<std::uint32_t>(num_tiles * ports);
  trace.num_terminals = static_cast<std::uint32_t>(
      concentrated ? conc.terminals() : num_tiles);

  const std::unique_ptr<TrafficPattern> pattern =
      spec.make_pattern(opt.rows, opt.cols, opt.concentration);
  SimConfig config;
  config.injection_rate = opt.injection_rate;
  config.packet_size_flits = opt.packet_size_flits;
  config.warmup_cycles = 0;
  config.measure_cycles = opt.cycles;
  config.seed = opt.seed;
  std::vector<std::uint32_t> last_ts(trace.num_sources, 0);
  generate_packets(
      spec.injection(), pattern.get(), conc, ports, config,
      [&](Cycle t, int tile, int port, int dest) {
        const auto source = static_cast<std::uint32_t>(tile * ports + port);
        TraceRecord rec;
        rec.source = source;
        rec.delta = static_cast<std::uint32_t>(t) - last_ts[source];
        rec.dest = static_cast<std::uint32_t>(dest);
        rec.size_flits = static_cast<std::uint32_t>(opt.packet_size_flits);
        last_ts[source] = static_cast<std::uint32_t>(t);
        trace.records.push_back(rec);
      });
  return trace;
}

}  // namespace shg::sim
