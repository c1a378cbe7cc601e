#include "shg/customize/session.hpp"

#include <algorithm>

#include "shg/customize/incremental.hpp"

namespace shg::customize {

namespace {

/// Tier sizes. The candidate tier holds every candidate of a
/// 2-skips-per-dimension exploration sweep hundreds of times over (48 B per
/// entry plus index overhead); the result tier holds the largest
/// Figure-6-class campaign hundreds of times over (112 B per cell on
/// disk); artifacts (route tables, cost reports) may be MBs each.
constexpr std::size_t kCandidateCapacity = std::size_t{1} << 16;
constexpr std::size_t kSimCapacity = std::size_t{1} << 16;
constexpr std::size_t kArtifactCapacity = 64;
/// Shards of the candidate and result tiers; more shards mean less lock
/// contention, and the fingerprint-prefix mapping spreads keys uniformly.
constexpr std::size_t kShards = 8;

}  // namespace

Session::Session(SessionOptions options)
    : options_(std::move(options)),
      cache_(kCandidateCapacity, kShards),
      sim_results_(kSimCapacity, kShards) {
  load_sim();
}

Session::~Session() {
  // Best effort: destructors must not throw, and save_file reports its
  // own failures on stderr.
  save_sim();
}

std::size_t Session::load_sim() {
  if (options_.sim_cache_path.empty()) return 0;
  return sim_results_.load_file(options_.sim_cache_path);
}

std::size_t Session::save_sim() {
  if (options_.sim_cache_path.empty()) return 0;
  return sim_results_.save_file(options_.sim_cache_path);
}

std::uint64_t Session::artifact_hits() const {
  const std::lock_guard lock(artifact_mutex_);
  return artifact_hits_;
}

std::uint64_t Session::artifact_misses() const {
  const std::lock_guard lock(artifact_mutex_);
  return artifact_misses_;
}

std::shared_ptr<const void> Session::find_artifact(const Fingerprint& key) {
  const std::lock_guard lock(artifact_mutex_);
  for (Artifact& a : artifacts_) {
    if (a.key == key) {
      a.last_used = ++artifact_tick_;
      ++artifact_hits_;
      return a.value;
    }
  }
  ++artifact_misses_;
  return nullptr;
}

void Session::store_artifact(const Fingerprint& key,
                             std::shared_ptr<const void> artifact) {
  SHG_REQUIRE(artifact != nullptr, "cannot store a null artifact");
  const std::lock_guard lock(artifact_mutex_);
  for (Artifact& a : artifacts_) {
    if (a.key == key) {
      a.value = std::move(artifact);
      a.last_used = ++artifact_tick_;
      return;
    }
  }
  if (artifacts_.size() >= kArtifactCapacity) {
    auto victim = std::min_element(
        artifacts_.begin(), artifacts_.end(),
        [](const Artifact& a, const Artifact& b) {
          return a.last_used < b.last_used;
        });
    *victim = Artifact{key, std::move(artifact), ++artifact_tick_};
    return;
  }
  artifacts_.push_back(Artifact{key, std::move(artifact), ++artifact_tick_});
}

std::vector<CandidateMetrics> screen_batch_cached(
    const tech::ArchParams& arch, const std::vector<topo::ShgParams>& batch,
    Session& session, ScreenBatchStats* stats) {
  std::vector<CandidateMetrics> out(batch.size());
  if (stats != nullptr) *stats = ScreenBatchStats{};
  if (batch.empty()) return out;

  // All session traffic on this thread (the tiers lock per shard); only
  // the miss screening fans out, inside screen_batch_incremental.
  const Fingerprint arch_fp = fingerprint_arch(arch);
  std::vector<Fingerprint> keys(batch.size());
  std::vector<std::size_t> miss;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    keys[i] = fingerprint_shg_candidate(arch_fp, batch[i]);
    if (const auto hit = session.lookup(keys[i])) {
      out[i] = *hit;
    } else {
      miss.push_back(i);
    }
  }
  if (stats != nullptr) {
    stats->misses = miss.size();
    stats->hits = batch.size() - miss.size();
    stats->hit.assign(batch.size(), true);
    for (std::size_t i : miss) stats->hit[i] = false;
  }
  if (miss.empty()) return out;

  std::vector<topo::ShgParams> miss_batch;
  miss_batch.reserve(miss.size());
  for (std::size_t i : miss) miss_batch.push_back(batch[i]);
  // Duplicate misses are fine: they share their axis summaries.
  const std::vector<CandidateMetrics> screened =
      screen_batch_incremental(arch, miss_batch);
  for (std::size_t k = 0; k < miss.size(); ++k) {
    out[miss[k]] = screened[k];
    session.store(keys[miss[k]], screened[k]);
  }
  return out;
}

}  // namespace shg::customize
