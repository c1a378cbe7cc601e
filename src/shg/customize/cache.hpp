// Content-addressed caches: the storage layer of persistent DSE sessions
// (customize/session.hpp).
//
// The customization methodology (Section V) iterates: the designer re-runs
// DSE with tweaked cost weights, budgets or candidate bounds over largely
// the same candidate space, and every re-invocation used to re-screen every
// candidate from scratch. The same pressure exists one level up: the
// evaluation campaigns behind Figure 6 / Tables 1 and 3 re-run largely
// overlapping (topology x traffic x rate x seed) simulation grids. This
// module stores both kinds of results keyed by a canonical *fingerprint* of
// everything the result depends on, so repeated invocations skip the work
// entirely on a hit:
//
//  * `Fingerprint` / `FingerprintBuilder` — a 128-bit content hash over a
//    platform-independent byte stream (values are fed as explicit
//    little-endian bytes, doubles by bit pattern). Not cryptographic;
//    collision probability at DSE scales (<= millions of candidates) is
//    negligible, and a collision can only return a *screened* metric for a
//    different candidate — it cannot corrupt memory or crash.
//  * `fingerprint_arch` — every numeric field of `tech::ArchParams` that any
//    cost-model step reads (grid, areas, frequency, bandwidth, technology
//    wire stack, transport, router-area coefficients, router architecture).
//    Pure labels (`ArchParams::name`, technology/transport names) are
//    excluded: they affect no computed metric, and including them would only
//    shrink hit rates.
//  * `fingerprint_shg_candidate` — an SHG parameterization under an arch
//    fingerprint. How the candidate was reached (which search, which
//    parent) is deliberately NOT part of the key: screening is a function
//    of the final skip sets alone (oracle-tested), so those sets are the
//    canonical key and hits transfer across different search
//    trajectories.
//  * `fingerprint_topology` — an arbitrary-family topology (grid shape
//    plus edge list in edge-id order); the experiment engine keys its
//    route tables and simulated topologies with it.
//  * `fingerprint_sim_config` / `fingerprint_sim_topology` /
//    `fingerprint_sim_cell` — one experiment cell of the evaluation engine
//    (eval/experiment.hpp): the simulated topology (edges, family kind —
//    the kind selects the default routing function — concentration, link
//    latencies, endpoint count), the workload's canonical TrafficSpec
//    string, and EVERY field of `sim::SimConfig` including the injection
//    rate and seed. Whether the simulator uses a route table is not a
//    config field (the table's row budget decides, bit-identically), so it
//    is not keyed. The cell key is deliberately total over SimConfig so
//    that a new config field can never silently alias existing cache
//    entries — the
//    static_assert on sizeof(SimConfig) next to the routine (cache.cpp)
//    and the perturb-every-field unit test enforce totality.
//  * Screening-mode domain separation: every key mixes a version/mode tag.
//    All current screening paths are exact (bit-identical to a fresh
//    `screen_candidate` / `screen_topology` run) and share one tag; a
//    future non-exact mode (e.g. an approximate channel router) must use a
//    new tag so its values can never be served to an exact caller.
//
// `FingerprintLruCache<Value>` is the store itself: an LRU-bounded hash map
// from fingerprint to a fixed-size value. `CandidateCache` (screening
// metrics, memory-only) and `SimResultCache` (complete per-cell
// `sim::SimResult`s, every double by bit pattern) instantiate it; the
// result tier adds an on-disk form in the versioned binary format
// `shg.cache.v1` (magic + version + payload kind + entry count + payload
// checksum). Loading validates magic, version, kind, size and checksum and
// DISCARDS the file on any mismatch — a corrupt, truncated, future-version
// or wrong-kind file (kind 0 is the retired candidate-metrics payload)
// degrades to cold simulation with a warning on stderr, never to a crash
// or a stale result.
//
// Exactness & concurrency: cached values are the bits a cold
// screen/simulation produced, so hits are bit-identical to recomputing by
// construction. The store is split into `shards` independent LRU shards
// selected by a fingerprint prefix (`(hi >> 48) % shards`), each behind
// its own mutex, so concurrent readers/writers lock only their key's
// shard. Values are exact bits either way, so concurrency can only reorder
// RECENCY (and therefore eviction victims) across interleavings — never
// change a returned value. Eviction is per shard (capacity is split
// evenly), so one hot shard cannot evict another shard's entries.
// Files are canonical: save_file serializes in ascending fingerprint order,
// so equal contents produce equal bytes regardless of shard count or the
// interleaving that built them. Loaders accept any order (files written
// in least-recent-first order by older builds included); entries are
// re-inserted in file order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "shg/customize/search.hpp"
#include "shg/sim/simulator.hpp"

namespace shg::customize {

/// 128-bit content fingerprint (see file comment for what goes in one).
struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

/// Hash adaptor for unordered containers keyed by Fingerprint.
struct FingerprintHash {
  std::size_t operator()(const Fingerprint& f) const {
    return static_cast<std::size_t>(f.hi ^ (f.lo * 0x9e3779b97f4a7c15ULL));
  }
};

/// Incremental fingerprint accumulator. Values are serialized to explicit
/// little-endian bytes before hashing, so fingerprints are identical across
/// platforms; strings and lists are length-prefixed so adjacent fields can
/// never alias ("ab","c" vs "a","bc").
class FingerprintBuilder {
 public:
  FingerprintBuilder& bytes(const void* data, std::size_t size);
  FingerprintBuilder& u64(std::uint64_t value);
  FingerprintBuilder& i64(long long value) {
    return u64(static_cast<std::uint64_t>(value));
  }
  FingerprintBuilder& f64(double value);  ///< by bit pattern
  FingerprintBuilder& str(const std::string& value);  ///< length-prefixed
  /// Domain-separation tag; start every keyed object with one.
  FingerprintBuilder& tag(const char* name);
  /// Mixes a finished fingerprint in (for composing keys from keys).
  FingerprintBuilder& fp(const Fingerprint& value) {
    return u64(value.hi).u64(value.lo);
  }
  /// Finalizes (the builder may keep accumulating afterwards; `done` is a
  /// pure function of the bytes fed so far).
  Fingerprint done() const;

 private:
  std::uint64_t lo_ = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  std::uint64_t hi_ = 0x6c62272e07bb0142ULL;  // independent second lane
};

/// Fingerprint of every ArchParams field the cost model reads (labels
/// excluded; see file comment).
Fingerprint fingerprint_arch(const tech::ArchParams& arch);

/// Canonical key of one SHG candidate under `arch_fp`: the final skip-set
/// union, independent of any parent/delta decomposition.
Fingerprint fingerprint_shg_candidate(const Fingerprint& arch_fp,
                                      const topo::ShgParams& params);

/// Fingerprint of an arbitrary-family topology: grid shape plus the edge
/// list in edge-id order (family labels excluded — equal edge sets screen
/// identically). Edge-id order matters: it is the channel router's greedy
/// order within each length class.
Fingerprint fingerprint_topology(const topo::Topology& topo);

/// Fingerprint of EVERY `sim::SimConfig` field, in declaration order —
/// including the injection rate and seed (the experiment engine overrides
/// them per cell before keying) and the result-neutral engine-selection
/// flags (totality over the struct beats a marginally higher hit rate; see
/// file comment). The static_assert on sizeof(SimConfig) in cache.cpp
/// trips when a field is added without extending this routine.
Fingerprint fingerprint_sim_config(const sim::SimConfig& config);

/// The topology half of an experiment-cell key: everything a simulation
/// reads from the `eval::TopologyCase` — the graph (edge list in edge-id
/// order), the family kind (it selects the default routing function), the
/// concentration, the per-link latencies (cost-model output; materialize
/// the unit-latency default before keying) and the endpoint count.
Fingerprint fingerprint_sim_topology(const topo::Topology& topo,
                                     const std::vector<int>& link_latencies,
                                     int endpoints_per_tile);

/// Key of one experiment cell: (simulated topology, canonical TrafficSpec
/// string, full per-cell SimConfig — rate and seed already applied).
/// Trace workloads pass the trace's content hash (sim/trace.hpp,
/// Trace::content_hash) as `trace_content_hash`, mixing the trace BYTES
/// into the key — the canonical string only names the path, and a trace
/// file edited in place must not hit the old cells. Synthetic workloads
/// pass 0 (the default), which leaves their keys byte-identical to the
/// pre-trace era.
Fingerprint fingerprint_sim_cell(const Fingerprint& sim_topo_fp,
                                 const std::string& traffic_canonical,
                                 const sim::SimConfig& config,
                                 std::uint64_t trace_content_hash = 0);

/// Counters of one cache's traffic (monotonic over its lifetime).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t disk_loaded = 0;     ///< entries adopted from load_file
  std::uint64_t disk_discarded = 0;  ///< files rejected by validation
};

/// LRU-bounded fingerprint -> Value store: the in-memory tier shared by the
/// candidate and simulation-result caches, split into independent locked
/// shards keyed by a fingerprint prefix (see the file comment's concurrency
/// section). Values are small fixed-size structs stored by value in a slab
/// per shard; each shard's recency list is intrusive (indices, no
/// allocation per touch) and deterministic on its own.
template <class Value>
class FingerprintLruCache {
 public:
  /// `capacity` is the total entry budget, split evenly over `shards`
  /// independent LRU shards.
  explicit FingerprintLruCache(std::size_t capacity, std::size_t shards = 1)
      : capacity_(capacity), shards_(shards == 0 ? 1 : shards) {
    SHG_REQUIRE(capacity_ > 0, "cache capacity must be positive");
    SHG_REQUIRE(shards > 0, "shard count must be positive");
    // Even split, rounded up so the total never drops below `capacity`.
    const std::size_t per_shard = (capacity_ + shards_.size() - 1) / shards_.size();
    for (Shard& shard : shards_) shard.capacity = per_shard;
  }

  std::size_t capacity() const { return capacity_; }

  std::size_t size() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
      const std::lock_guard lock(shard.mutex);
      total += shard.index.size();
    }
    return total;
  }

  /// Aggregated counters over every shard plus the file-level disk
  /// counters (by value: the per-shard counters live under their locks).
  CacheStats stats() const {
    CacheStats total;
    {
      const std::lock_guard lock(disk_mutex_);
      total = disk_stats_;
    }
    for (const Shard& shard : shards_) {
      const std::lock_guard lock(shard.mutex);
      total.hits += shard.stats.hits;
      total.misses += shard.stats.misses;
      total.insertions += shard.stats.insertions;
      total.evictions += shard.stats.evictions;
    }
    return total;
  }

  /// Returns the cached value and refreshes the entry's recency within its
  /// shard, or nullopt on a miss.
  std::optional<Value> lookup(const Fingerprint& key) {
    Shard& shard = shard_of(key);
    const std::lock_guard lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      ++shard.stats.misses;
      return std::nullopt;
    }
    ++shard.stats.hits;
    shard.unlink(it->second);
    shard.push_front(it->second);
    return shard.entries[it->second].value;
  }

  /// Inserts (or refreshes) an entry, evicting the least-recently-used
  /// entries of its shard beyond the shard capacity.
  void insert(const Fingerprint& key, const Value& value) {
    Shard& shard = shard_of(key);
    const std::lock_guard lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      shard.entries[it->second].value = value;
      shard.unlink(it->second);
      shard.push_front(it->second);
      return;
    }
    std::size_t idx;
    if (!shard.free.empty()) {
      idx = shard.free.back();
      shard.free.pop_back();
      shard.entries[idx].key = key;
      shard.entries[idx].value = value;
    } else {
      idx = shard.entries.size();
      shard.entries.push_back(Entry{key, value, npos, npos});
    }
    shard.index.emplace(key, idx);
    shard.push_front(idx);
    ++shard.stats.insertions;
    shard.evict_to_capacity();
  }

 protected:
  /// Every (key, value) in ascending fingerprint order: the canonical
  /// serialization order of save_file (equal contents give equal bytes
  /// regardless of shard count or interleaving). Snapshot callers quiesce
  /// writers first (save paths run on one thread).
  std::vector<std::pair<Fingerprint, Value>> sorted_entries() const {
    std::vector<std::pair<Fingerprint, Value>> all;
    for (const Shard& shard : shards_) {
      const std::lock_guard lock(shard.mutex);
      for (const auto& [key, idx] : shard.index) {
        all.emplace_back(key, shard.entries[idx].value);
      }
    }
    std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
      return a.first.hi != b.first.hi ? a.first.hi < b.first.hi
                                      : a.first.lo < b.first.lo;
    });
    return all;
  }

  void note_disk_loaded(std::uint64_t count) {
    const std::lock_guard lock(disk_mutex_);
    disk_stats_.disk_loaded += count;
  }
  void note_disk_discarded() {
    const std::lock_guard lock(disk_mutex_);
    ++disk_stats_.disk_discarded;
  }

 private:
  struct Entry {
    Fingerprint key;
    Value value;
    /// Neighbors in the shard's recency list (indices into the shard's
    /// entries; npos = end).
    std::size_t newer = npos;
    std::size_t older = npos;
  };
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  struct Shard {
    std::size_t capacity = 0;
    std::vector<Entry> entries;  ///< slab; freed slots recycled via free
    std::vector<std::size_t> free;
    std::size_t head = npos;  ///< most recent
    std::size_t tail = npos;  ///< least recent
    std::unordered_map<Fingerprint, std::size_t, FingerprintHash> index;
    CacheStats stats;
    mutable std::mutex mutex;

    void unlink(std::size_t idx) {
      Entry& e = entries[idx];
      if (e.newer != npos) {
        entries[e.newer].older = e.older;
      } else {
        head = e.older;
      }
      if (e.older != npos) {
        entries[e.older].newer = e.newer;
      } else {
        tail = e.newer;
      }
      e.newer = e.older = npos;
    }

    void push_front(std::size_t idx) {
      Entry& e = entries[idx];
      e.newer = npos;
      e.older = head;
      if (head != npos) entries[head].newer = idx;
      head = idx;
      if (tail == npos) tail = idx;
    }

    void evict_to_capacity() {
      while (index.size() > capacity) {
        const std::size_t victim = tail;
        SHG_ASSERT(victim != npos, "LRU list empty while over capacity");
        unlink(victim);
        index.erase(entries[victim].key);
        free.push_back(victim);
        ++stats.evictions;
      }
    }
  };

  /// The shard of a key: a fingerprint prefix (the top 16 bits of the
  /// mixed hi lane) modulo the shard count, so equal keys always land in
  /// the same shard and the mapping is a pure function of (key, shards).
  Shard& shard_of(const Fingerprint& key) {
    return shards_[static_cast<std::size_t>(key.hi >> 48) % shards_.size()];
  }

  std::size_t capacity_;
  std::vector<Shard> shards_;
  CacheStats disk_stats_;  ///< disk_loaded / disk_discarded only
  mutable std::mutex disk_mutex_;
};

/// Screening-metrics store (memory-only).
using CandidateCache = FingerprintLruCache<CandidateMetrics>;

/// Simulation-result store: complete per-cell `sim::SimResult`s (every
/// double by bit pattern, so a hit reproduces the cold report bytes).
/// 112 B/entry on disk, payload kind 1; per-shard files of this tier are
/// the exchange medium of sharded experiment campaigns
/// (eval::run_experiment_shard).
class SimResultCache : public FingerprintLruCache<sim::SimResult> {
 public:
  using FingerprintLruCache::FingerprintLruCache;

  /// Writes every entry to `path` in ascending fingerprint order. Returns
  /// the number of entries written; on I/O failure warns through shg::log
  /// and returns 0.
  std::size_t save_file(const std::string& path) const;

  /// Merges the entries of a `shg.cache.v1` result file into the cache
  /// (insert semantics: capacity and recency apply), so repeated calls
  /// with different shard files merge them into one tier. Validation
  /// failures — bad magic, version or payload-kind mismatch, truncation,
  /// checksum mismatch — discard the file with a warning through the
  /// shg::log sink (stderr by default) and return 0, leaving the cache
  /// untouched; a missing file is a silent cold start. Returns the number
  /// of entries adopted.
  std::size_t load_file(const std::string& path);
};

}  // namespace shg::customize
