#include "shg/customize/cache.hpp"

#include <cstdio>
#include <cstring>

#include "shg/common/log.hpp"

namespace shg::customize {

namespace {

// On-disk layout of `shg.cache.v1` (all integers little-endian):
//   [0, 8)    magic "SHGCACHE"
//   [8, 12)   format version (1)
//   [12, 16)  payload kind (1 = simulation results; kind 0 was the retired
//             candidate-metrics payload, and is discarded like any other
//             mismatch)
//   [16, 24)  entry count
//   [24, 32)  FNV-1a 64 checksum of the payload bytes
//   [32, ...) payload: count 112-byte entries of (hi, lo, SimResult fields)
constexpr char kMagic[8] = {'S', 'H', 'G', 'C', 'A', 'C', 'H', 'E'};
constexpr std::uint32_t kFormatVersion = 1;
constexpr std::uint32_t kKindSimResult = 1;
constexpr std::size_t kHeaderBytes = 32;
constexpr std::size_t kSimResultEntryBytes = 112;

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

void put_f64(std::vector<unsigned char>& out, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
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

double get_f64(const unsigned char* p) {
  const std::uint64_t bits = get_u64(p);
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::uint64_t fnv1a(const unsigned char* data, std::size_t size) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    h = (h ^ data[i]) * 0x00000100000001b3ULL;
  }
  return h;
}

void warn_discard(const std::string& path, const char* reason) {
  log::warnf(
      "shg: warning: cache file '%s' %s; discarding it and falling "
      "back to cold recomputation\n",
      path.c_str(), reason);
}

/// Writes header + payload; warns and returns false on I/O failure.
bool write_cache_file(const std::string& path,
                      const std::vector<unsigned char>& payload,
                      std::uint64_t count) {
  std::vector<unsigned char> header;
  header.reserve(kHeaderBytes);
  header.insert(header.end(), kMagic, kMagic + sizeof(kMagic));
  put_u32(header, kFormatVersion);
  put_u32(header, kKindSimResult);
  put_u64(header, count);
  put_u64(header, fnv1a(payload.data(), payload.size()));

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    log::warnf("shg: warning: cannot write cache file '%s'\n", path.c_str());
    return false;
  }
  const bool ok =
      std::fwrite(header.data(), 1, header.size(), f) == header.size() &&
      (payload.empty() ||
       std::fwrite(payload.data(), 1, payload.size(), f) == payload.size());
  const bool closed = std::fclose(f) == 0;
  if (!ok || !closed) {
    log::warnf("shg: warning: short write to cache file '%s'\n", path.c_str());
    return false;
  }
  return true;
}

enum class ReadStatus { kOk, kAbsent, kDiscarded };

/// Reads and fully validates one result-tier cache file. On success fills
/// `data` (whole file) and `count`; an absent file is a silent normal cold
/// start; any validation failure warns through the shg::log sink and
/// reports kDiscarded so the caller can bump its disk-discarded counter.
ReadStatus read_cache_file(const std::string& path,
                           std::vector<unsigned char>& data,
                           std::uint64_t& count) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return ReadStatus::kAbsent;  // normal cold start

  data.clear();
  unsigned char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.insert(data.end(), buf, buf + n);
  }
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);

  const char* reason = nullptr;
  count = 0;
  if (!read_ok) {
    reason = "could not be read";
  } else if (data.size() < kHeaderBytes) {
    reason = "is truncated (shorter than the header)";
  } else if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    reason = "has a wrong magic (not an shg.cache file)";
  } else if (get_u32(data.data() + 8) != kFormatVersion) {
    reason = "has an unsupported format version";
  } else if (get_u32(data.data() + 12) != kKindSimResult) {
    reason = "holds a different payload kind";
  } else {
    count = get_u64(data.data() + 16);
    // Guard the size arithmetic against absurd counts before multiplying.
    if (count > (data.size() / kSimResultEntryBytes) + 1) {
      reason = "is truncated (entry count exceeds the file size)";
    } else if (data.size() != kHeaderBytes + count * kSimResultEntryBytes) {
      reason = "is truncated (size does not match the entry count)";
    } else if (get_u64(data.data() + 24) !=
               fnv1a(data.data() + kHeaderBytes,
                     count * kSimResultEntryBytes)) {
      reason = "fails its payload checksum";
    }
  }
  if (reason != nullptr) {
    warn_discard(path, reason);
    return ReadStatus::kDiscarded;
  }
  return ReadStatus::kOk;
}

}  // namespace

FingerprintBuilder& FingerprintBuilder::bytes(const void* data,
                                              std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    // Two lanes over the same byte stream: FNV-1a and a rotate-multiply
    // lane with independent constants.
    lo_ = (lo_ ^ p[i]) * 0x00000100000001b3ULL;
    hi_ ^= (static_cast<std::uint64_t>(p[i]) + 0x9e3779b97f4a7c15ULL);
    hi_ = ((hi_ << 23) | (hi_ >> 41)) * 0xd6e8feb86659fd93ULL;
  }
  return *this;
}

FingerprintBuilder& FingerprintBuilder::u64(std::uint64_t value) {
  unsigned char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<unsigned char>(value >> (8 * i));
  }
  return bytes(buf, sizeof(buf));
}

FingerprintBuilder& FingerprintBuilder::f64(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return u64(bits);
}

FingerprintBuilder& FingerprintBuilder::str(const std::string& value) {
  u64(value.size());
  return bytes(value.data(), value.size());
}

FingerprintBuilder& FingerprintBuilder::tag(const char* name) {
  const std::size_t len = std::strlen(name);
  u64(len);
  return bytes(name, len);
}

Fingerprint FingerprintBuilder::done() const {
  // splitmix64-style finalization of each lane, cross-mixed so that the
  // (hi, lo) pair depends on both accumulators.
  auto mix = [](std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  Fingerprint out;
  out.hi = mix(hi_ + 0x9e3779b97f4a7c15ULL * lo_);
  out.lo = mix(lo_ ^ ((hi_ << 32) | (hi_ >> 32)));
  return out;
}

Fingerprint fingerprint_arch(const tech::ArchParams& arch) {
  FingerprintBuilder b;
  b.tag("shg.arch.v1");
  b.i64(arch.rows).i64(arch.cols);
  b.f64(arch.endpoint_area_ge).f64(arch.tile_aspect_ratio);
  b.i64(arch.endpoints_per_tile);
  b.f64(arch.frequency_hz).f64(arch.link_bandwidth_bits);
  const tech::TechnologyModel& t = arch.tech;
  b.f64(t.ge_area_um2);
  b.u64(t.wires.horizontal_pitch_nm.size());
  for (double p : t.wires.horizontal_pitch_nm) b.f64(p);
  b.u64(t.wires.vertical_pitch_nm.size());
  for (double p : t.wires.vertical_pitch_nm) b.f64(p);
  b.f64(t.wire_delay_ps_per_mm);
  b.f64(t.logic_power_w_per_mm2).f64(t.wire_power_w_per_mm2);
  b.f64(arch.transport.wires_per_bit).f64(arch.transport.overhead_wires);
  b.f64(arch.router_area.ge_per_buffer_bit);
  b.f64(arch.router_area.ge_per_crosspoint_bit);
  b.f64(arch.router_area.ge_per_port_control);
  b.i64(arch.router_arch.num_vcs).i64(arch.router_arch.buffer_depth_flits);
  return b.done();
}

Fingerprint fingerprint_shg_candidate(const Fingerprint& arch_fp,
                                      const topo::ShgParams& params) {
  // "exact" screening-mode domain separation lives in the tag: every
  // current screening path is bit-identical to screen_candidate, so they
  // all share this key; a future non-exact mode needs a new tag.
  FingerprintBuilder b;
  b.tag("shg.candidate.shg.exact.v1");
  b.fp(arch_fp);
  b.u64(params.row_skips.size());
  for (int x : params.row_skips) b.i64(x);
  b.u64(params.col_skips.size());
  for (int x : params.col_skips) b.i64(x);
  return b.done();
}

Fingerprint fingerprint_topology(const topo::Topology& topo) {
  FingerprintBuilder b;
  b.tag("shg.topology.v1");
  b.i64(topo.rows()).i64(topo.cols());
  const graph::Graph& g = topo.graph();
  b.u64(static_cast<std::uint64_t>(g.num_edges()));
  for (const graph::Edge& e : g.edges()) {
    b.i64(e.u).i64(e.v);
  }
  return b.done();
}

// Tripwire: a new SimConfig field changes the struct size on the LP64
// platforms CI runs, forcing whoever adds it to extend
// fingerprint_sim_config below (and the perturb-every-field test in
// tests/experiment_test.cpp) before cached cells can silently alias.
static_assert(sizeof(void*) != 8 || sizeof(sim::SimConfig) == 64,
              "SimConfig changed size: add the new field to "
              "fingerprint_sim_config and to the perturbation test, then "
              "update this assertion");

Fingerprint fingerprint_sim_config(const sim::SimConfig& config) {
  FingerprintBuilder b;
  // v2: routing_policy / ugal_bias_flits / the UGAL via seed joined the
  // key.
  // v3: the engine-selection flag left SimConfig (one engine remains).
  // v4: the route-table flags, the concentration (the topology carries it;
  // fingerprint_sim_topology keys it), the latency sample cap and the UGAL
  // via seed (now sim::kUgalViaSeed) left SimConfig.
  // The raw fields are hashed (not effective_routing_policy) so a sentinel
  // always-minimal UGAL run and a plain minimal run occupy distinct cache
  // cells even though their results are bit-identical — cheaper than
  // proving the degeneracy at every lookup site.
  b.tag("shg.simconfig.v4");
  b.i64(config.num_vcs).i64(config.buffer_depth_flits);
  b.i64(config.router_delay_cycles);
  b.i64(config.packet_size_flits);
  b.f64(config.injection_rate);
  b.i64(config.warmup_cycles).i64(config.measure_cycles);
  b.i64(config.drain_cycles);
  b.i64(static_cast<long long>(config.routing_policy));
  b.i64(config.ugal_bias_flits);
  b.u64(config.seed);
  return b.done();
}

Fingerprint fingerprint_sim_topology(const topo::Topology& topo,
                                     const std::vector<int>& link_latencies,
                                     int endpoints_per_tile) {
  FingerprintBuilder b;
  b.tag("shg.simtopo.v1");
  b.fp(fingerprint_topology(topo));
  // The family kind selects the default routing function, and the
  // concentration remaps terminals; both change simulation results for
  // equal edge sets, so both are keyed (unlike in the screening keys).
  b.i64(static_cast<long long>(topo.kind()));
  b.i64(topo.concentration());
  b.u64(link_latencies.size());
  for (int latency : link_latencies) b.i64(latency);
  b.i64(endpoints_per_tile);
  return b.done();
}

Fingerprint fingerprint_sim_cell(const Fingerprint& sim_topo_fp,
                                 const std::string& traffic_canonical,
                                 const sim::SimConfig& config,
                                 std::uint64_t trace_content_hash) {
  // "exact" domain separation as for the screening keys: both simulation
  // engines are bit-identical by the oracle-tested engine contract, so
  // they share this tag; any future approximate simulation mode must mint
  // a new one.
  FingerprintBuilder b;
  b.tag("shg.simcell.exact.v1");
  b.fp(sim_topo_fp);
  b.str(traffic_canonical);
  b.fp(fingerprint_sim_config(config));
  // Appended only for trace cells so every pre-trace key is unchanged.
  if (trace_content_hash != 0) {
    b.tag("shg.trace.content");
    b.u64(trace_content_hash);
  }
  return b.done();
}

std::size_t SimResultCache::save_file(const std::string& path) const {
  const auto entries = sorted_entries();
  std::vector<unsigned char> payload;
  payload.reserve(entries.size() * kSimResultEntryBytes);
  for (const auto& [key, r] : entries) {
    put_u64(payload, key.hi);
    put_u64(payload, key.lo);
    put_f64(payload, r.offered_rate);
    put_f64(payload, r.accepted_rate);
    put_f64(payload, r.avg_packet_latency);
    put_f64(payload, r.max_packet_latency);
    put_f64(payload, r.p50_packet_latency);
    put_f64(payload, r.p95_packet_latency);
    put_f64(payload, r.p99_packet_latency);
    put_f64(payload, r.avg_hops);
    put_f64(payload, r.fairness);
    put_u64(payload, static_cast<std::uint64_t>(r.measured_packets));
    put_u64(payload, r.drained ? 1 : 0);
    put_u64(payload, static_cast<std::uint64_t>(r.cycles_run));
  }
  return write_cache_file(path, payload, entries.size()) ? entries.size() : 0;
}

std::size_t SimResultCache::load_file(const std::string& path) {
  std::vector<unsigned char> data;
  std::uint64_t count = 0;
  const ReadStatus status = read_cache_file(path, data, count);
  if (status != ReadStatus::kOk) {
    if (status == ReadStatus::kDiscarded) note_disk_discarded();
    return 0;
  }
  const unsigned char* p = data.data() + kHeaderBytes;
  for (std::uint64_t i = 0; i < count; ++i, p += kSimResultEntryBytes) {
    Fingerprint key;
    key.hi = get_u64(p);
    key.lo = get_u64(p + 8);
    sim::SimResult r;
    r.offered_rate = get_f64(p + 16);
    r.accepted_rate = get_f64(p + 24);
    r.avg_packet_latency = get_f64(p + 32);
    r.max_packet_latency = get_f64(p + 40);
    r.p50_packet_latency = get_f64(p + 48);
    r.p95_packet_latency = get_f64(p + 56);
    r.p99_packet_latency = get_f64(p + 64);
    r.avg_hops = get_f64(p + 72);
    r.fairness = get_f64(p + 80);
    r.measured_packets = static_cast<long long>(get_u64(p + 88));
    r.drained = get_u64(p + 96) != 0;
    r.cycles_run = static_cast<long long>(get_u64(p + 104));
    insert(key, r);
  }
  note_disk_loaded(count);
  return static_cast<std::size_t>(count);
}

}  // namespace shg::customize
