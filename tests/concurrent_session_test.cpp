// Concurrency contract of the sharded session tiers and the serving layer
// (Session::ConcurrencyMode::kSharded): concurrent readers/writers are
// safe (run this suite under ThreadSanitizer — the CI tsan job does),
// no cache store is lost, and every concurrently-served response's
// "result" is byte-identical to its solo twin. Also pins the canonical
// on-disk serialization across shard counts.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "shg/customize/cache.hpp"
#include "shg/customize/search.hpp"
#include "shg/customize/session.hpp"
#include "shg/serve/json.hpp"
#include "shg/serve/service.hpp"
#include "shg/tech/presets.hpp"
#include "shg/topo/topology.hpp"

namespace shg {
namespace {

using customize::CandidateCache;
using customize::CandidateMetrics;
using customize::Fingerprint;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Synthetic keys spread over all shard prefixes (the shard selector uses
/// hi >> 48, so vary the top bits too).
Fingerprint key_of(std::uint64_t i) {
  return Fingerprint{i * 0x9e3779b97f4a7c15ULL + (i << 48), i ^ 0xabcdef};
}

CandidateMetrics metrics_of(std::uint64_t i) {
  CandidateMetrics m;
  m.area_overhead = 0.01 * static_cast<double>(i % 40);
  m.avg_hops = 2.0 + 0.001 * static_cast<double>(i);
  m.diameter = static_cast<double>(3 + i % 5);
  m.throughput_bound = 1.0 / (1.0 + static_cast<double>(i));
  return m;
}

// --- Sharded cache semantics ----------------------------------------------

TEST(ShardedCache, LookupsAgreeAcrossShardCounts) {
  CandidateCache one(1024, 1);
  CandidateCache four(1024, 4);
  CandidateCache seven(1024, 7);
  for (std::uint64_t i = 0; i < 300; ++i) {
    one.insert(key_of(i), metrics_of(i));
    four.insert(key_of(i), metrics_of(i));
    seven.insert(key_of(i), metrics_of(i));
  }
  EXPECT_EQ(one.size(), 300u);
  EXPECT_EQ(four.size(), 300u);
  EXPECT_EQ(seven.size(), 300u);
  for (std::uint64_t i = 0; i < 300; ++i) {
    const auto a = one.lookup(key_of(i));
    const auto b = four.lookup(key_of(i));
    const auto c = seven.lookup(key_of(i));
    ASSERT_TRUE(a && b && c);
    EXPECT_EQ(*a, metrics_of(i));
    EXPECT_EQ(*b, *a);
    EXPECT_EQ(*c, *a);
  }
}

TEST(ShardedCache, LockingForcedOnWhenSharded) {
  EXPECT_FALSE(CandidateCache(16, 1).locking());
  EXPECT_TRUE(CandidateCache(16, 4).locking());
}

TEST(ShardedCache, PerShardEvictionKeepsHotShardsIndependent) {
  // 4 shards x 4 entries each; flooding one shard must not evict others.
  CandidateCache cache(16, 4);
  const Fingerprint other{std::uint64_t{1} << 48, 1};  // shard 1
  cache.insert(other, metrics_of(1));
  for (std::uint64_t i = 0; i < 64; ++i) {
    cache.insert(Fingerprint{i << 52, i}, metrics_of(i));  // all shard 0
  }
  EXPECT_TRUE(cache.lookup(other).has_value());
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(ShardedCache, CanonicalFileBytesAcrossShardCountsAndOrders) {
  // Same contents inserted in different orders at different shard counts
  // must serialize to identical bytes (sharded saves sort by fingerprint).
  CandidateCache two(1024, 2);
  CandidateCache five(1024, 5);
  for (std::uint64_t i = 0; i < 200; ++i) {
    two.insert(key_of(i), metrics_of(i));
  }
  for (std::uint64_t i = 200; i-- > 0;) {  // reverse insertion order
    five.insert(key_of(i), metrics_of(i));
  }
  const std::string path_two = temp_path("canon_two.cache");
  const std::string path_five = temp_path("canon_five.cache");
  EXPECT_EQ(two.save_file(path_two), 200u);
  EXPECT_EQ(five.save_file(path_five), 200u);
  EXPECT_EQ(read_file(path_two), read_file(path_five));
  EXPECT_FALSE(read_file(path_two).empty());
}

TEST(ShardedCache, FilesLoadAcrossShardCounts) {
  // Legacy single-shard files load into sharded caches and vice versa.
  CandidateCache legacy(1024, 1);
  for (std::uint64_t i = 0; i < 150; ++i) {
    legacy.insert(key_of(i), metrics_of(i));
  }
  const std::string legacy_path = temp_path("cross_legacy.cache");
  EXPECT_EQ(legacy.save_file(legacy_path), 150u);

  CandidateCache sharded(1024, 8);
  EXPECT_EQ(sharded.load_file(legacy_path), 150u);
  for (std::uint64_t i = 0; i < 150; ++i) {
    const auto hit = sharded.lookup(key_of(i));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, metrics_of(i));
  }

  const std::string sharded_path = temp_path("cross_sharded.cache");
  EXPECT_EQ(sharded.save_file(sharded_path), 150u);
  CandidateCache back(1024, 1);
  EXPECT_EQ(back.load_file(sharded_path), 150u);
  for (std::uint64_t i = 0; i < 150; ++i) {
    EXPECT_TRUE(back.lookup(key_of(i)).has_value());
  }
}

// --- Concurrent readers/writers -------------------------------------------

TEST(ShardedCache, ConcurrentStoresAreNeverLost) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 2000;
  constexpr std::uint64_t kTotal = kThreads * kPerThread;
  constexpr std::size_t kShards = 16;
  CandidateCache cache(kTotal, kShards);
  // Keys spread round-robin over the shard selector (hi >> 48) so every
  // shard receives exactly total/kShards entries — at per-shard capacity,
  // meaning any lost or double store would show up as an eviction.
  const auto spread_key = [](std::uint64_t id) {
    return Fingerprint{((id % kShards) << 48) | id, ~id};
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &spread_key, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const std::uint64_t id =
            static_cast<std::uint64_t>(t) * kPerThread + i;
        cache.insert(spread_key(id), metrics_of(id));
        // Interleave reads of other threads' ranges.
        cache.lookup(spread_key((id * 7) % kTotal));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(cache.size(), kTotal);
  for (std::uint64_t id = 0; id < kTotal; ++id) {
    const auto hit = cache.lookup(spread_key(id));
    ASSERT_TRUE(hit.has_value()) << "lost store " << id;
    EXPECT_EQ(*hit, metrics_of(id));
  }
  const customize::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, kTotal);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(ShardedSession, ShardCountFollowsConcurrencyMode) {
  customize::Session single;  // kSingleThread defaults
  EXPECT_EQ(single.cache().shard_count(), 1u);
  EXPECT_FALSE(single.cache().locking());
  EXPECT_EQ(single.sim_cache().shard_count(), 1u);
  EXPECT_FALSE(single.sim_cache().locking());

  customize::SessionOptions options;
  options.concurrency = customize::ConcurrencyMode::kSharded;
  customize::Session sharded(options);
  EXPECT_EQ(sharded.cache().shard_count(), 8u);
  EXPECT_TRUE(sharded.cache().locking());
  EXPECT_EQ(sharded.sim_cache().shard_count(), 8u);
  EXPECT_TRUE(sharded.sim_cache().locking());
}

TEST(ShardedSession, ConcurrentArtifactTierIsSafe) {
  customize::SessionOptions options;
  options.concurrency = customize::ConcurrencyMode::kSharded;
  customize::Session session(options);
  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&session, &mismatches, t] {
      for (std::uint64_t i = 0; i < 200; ++i) {
        const Fingerprint key = key_of(i % 16);
        auto value = std::make_shared<const std::uint64_t>(i % 16);
        session.store_artifact(key, value);
        const auto found = session.find_artifact(key);
        if (found != nullptr) {
          // Keys map 1:1 to payload values, so any hit must agree.
          const auto* payload =
              static_cast<const std::uint64_t*>(found.get());
          if (*payload != i % 16) mismatches.fetch_add(1);
        }
        (void)t;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(session.artifact_hits(), 0u);
}

TEST(ShardedSession, ScreenBatchMatchesSingleThreadSession) {
  const tech::ArchParams arch = tech::knc_scenario(tech::KncScenario::kA);
  std::vector<topo::ShgParams> batch;
  for (int skip = 2; skip <= 7; ++skip) {
    batch.push_back(topo::ShgParams{{skip}, {}});
    batch.push_back(topo::ShgParams{{}, {skip}});
  }
  customize::Session single;  // kSingleThread defaults
  customize::SessionOptions sharded_options;
  sharded_options.concurrency = customize::ConcurrencyMode::kSharded;
  customize::Session sharded(sharded_options);

  customize::ScreenBatchStats single_stats;
  customize::ScreenBatchStats sharded_stats;
  const auto a =
      customize::screen_batch_cached(arch, batch, single, &single_stats);
  const auto b =
      customize::screen_batch_cached(arch, batch, sharded, &sharded_stats);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "batch index " << i;
  }
  EXPECT_EQ(single_stats.misses, batch.size());
  EXPECT_EQ(sharded_stats.misses, batch.size());
  ASSERT_EQ(sharded_stats.hit.size(), batch.size());
  EXPECT_FALSE(sharded_stats.hit[0]);
}

// --- Concurrent service: solo-twin byte-identity ---------------------------

TEST(ConcurrentService, MixedRequestsMatchSoloTwinsByteForByte) {
  // The request mix: screens, two experiment campaigns, two searches. The
  // experiments keep the smoke cycle counts so the suite stays fast enough
  // for TSan.
  std::vector<std::string> lines;
  for (int skip = 2; skip <= 6; ++skip) {
    lines.push_back("{\"op\":\"screen\",\"id\":\"s" + std::to_string(skip) +
                    "\",\"scenario\":\"a\",\"row_skips\":[" +
                    std::to_string(skip) + "]}");
    lines.push_back("{\"op\":\"screen\",\"id\":\"t" + std::to_string(skip) +
                    "\",\"scenario\":\"a\",\"col_skips\":[" +
                    std::to_string(skip) + "]}");
  }
  lines.push_back(
      "{\"op\":\"experiment\",\"id\":\"e1\",\"grid\":\"6x6\","
      "\"traffic\":[\"uniform\"],\"rates\":[0.05],\"seeds\":1,"
      "\"smoke\":true}");
  lines.push_back(
      "{\"op\":\"experiment\",\"id\":\"e2\",\"grid\":\"6x6\","
      "\"traffic\":[\"transpose\"],\"rates\":[0.08],\"seeds\":1,"
      "\"smoke\":true}");
  lines.push_back(
      "{\"op\":\"customize\",\"id\":\"c1\",\"scenario\":\"a\","
      "\"max_area_overhead\":0.3}");
  lines.push_back("{\"op\":\"customize\",\"id\":\"c2\",\"scenario\":\"a\"}");

  // Solo twins: each request served alone on its own cold single-thread
  // service — the reference bytes.
  std::vector<serve::Request> requests;
  std::vector<std::string> solo_results;
  for (const std::string& line : lines) {
    serve::Service solo(customize::SessionOptions{});  // kSingleThread
    requests.push_back(solo.parse_request(line));
    ASSERT_TRUE(requests.back().valid) << requests.back().error;
    const serve::Response response = solo.execute(requests.back());
    ASSERT_TRUE(response.ok) << response.error;
    solo_results.push_back(response.result_json);
  }

  // Concurrent pass: one sharded service, every thread issues the full
  // mix in a different rotation — maximal interleaving over one session.
  serve::Service shared;
  constexpr int kThreads = 4;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < requests.size(); ++i) {
        const std::size_t pick =
            (i + static_cast<std::size_t>(t) * 3) % requests.size();
        const serve::Response response = shared.execute(requests[pick]);
        if (!response.ok) failures.fetch_add(1);
        if (response.result_json != solo_results[pick]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  // No lost stores: a serial re-pass over every request must be fully
  // warm — zero candidate-tier misses on screens, zero simulated cells on
  // experiments (each key was stored by at least one concurrent twin).
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const serve::Response warm = shared.execute(requests[i]);
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_EQ(warm.result_json, solo_results[i]) << lines[i];
    if (requests[i].op == serve::Op::kScreen) {
      EXPECT_EQ(warm.op_misses, 0u) << "lost candidate store: " << lines[i];
    }
    if (requests[i].op == serve::Op::kExperiment) {
      EXPECT_EQ(warm.op_simulated, 0u) << "lost sim store: " << lines[i];
    }
  }
}

TEST(ConcurrentService, CoalescedBatchesMatchSoloUnderConcurrency) {
  // Two threads fire coalesced screen batches over overlapping skip grids
  // while a third screens the same keys solo; everyone must agree with the
  // cold direct screen.
  const tech::ArchParams arch = tech::knc_scenario(tech::KncScenario::kA);
  std::vector<std::string> lines;
  for (int skip = 2; skip <= 7; ++skip) {
    lines.push_back("{\"op\":\"screen\",\"id\":" + std::to_string(skip) +
                    ",\"scenario\":\"a\",\"row_skips\":[" +
                    std::to_string(skip) + "]}");
  }
  serve::Service shared;
  std::vector<serve::Request> requests;
  for (const std::string& line : lines) {
    requests.push_back(shared.parse_request(line));
    ASSERT_TRUE(requests.back().valid);
  }
  std::vector<std::string> reference;
  for (int skip = 2; skip <= 7; ++skip) {
    const CandidateMetrics direct =
        customize::screen_candidate(arch, topo::ShgParams{{skip}, {}});
    reference.push_back(serve::json_double(direct.throughput_bound));
  }

  std::atomic<int> mismatches{0};
  auto batcher = [&] {
    for (int round = 0; round < 3; ++round) {
      const std::vector<serve::Response> responses =
          shared.execute_screen_batch(requests);
      for (std::size_t i = 0; i < responses.size(); ++i) {
        if (!responses[i].ok ||
            responses[i].result_json.find(reference[i]) ==
                std::string::npos) {
          mismatches.fetch_add(1);
        }
      }
    }
  };
  auto soloist = [&] {
    for (int round = 0; round < 3; ++round) {
      for (std::size_t i = 0; i < requests.size(); ++i) {
        const serve::Response response = shared.execute(requests[i]);
        if (!response.ok || response.result_json.find(reference[i]) ==
                                std::string::npos) {
          mismatches.fetch_add(1);
        }
      }
    }
  };
  std::thread a(batcher), b(batcher), c(soloist);
  a.join();
  b.join();
  c.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace shg
