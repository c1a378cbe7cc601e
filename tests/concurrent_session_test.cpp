// Concurrency contract of the session tiers and the serving layer: every
// Session's tiers are sharded and locked, so concurrent readers/writers are
// safe (run this suite under ThreadSanitizer — the CI tsan job does), no
// cache store is lost, and every concurrently-served response's "result"
// is byte-identical to its solo twin. Also pins the canonical on-disk
// serialization across shard counts.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdint>
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
#include "cache_file.hpp"

namespace shg {
namespace {

using customize::CandidateCache;
using customize::CandidateMetrics;
using customize::Fingerprint;
using customize::SimResultCache;
using testing_cache::read_bytes;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
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

sim::SimResult result_of(std::uint64_t i) {
  sim::SimResult r;
  r.offered_rate = 0.01 * static_cast<double>(i % 40);
  r.avg_packet_latency = 10.0 + 0.001 * static_cast<double>(i);
  r.measured_packets = static_cast<long long>(i) + 1;
  r.drained = i % 3 != 0;
  return r;
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
  // Same contents inserted in different orders at different shard counts —
  // one shard included, and a Session's own tier saved through
  // SessionOptions::sim_cache_path — must serialize to identical bytes
  // (every save sorts by fingerprint).
  SimResultCache one(1024, 1);
  SimResultCache two(1024, 2);
  SimResultCache five(1024, 5);
  for (std::uint64_t i = 0; i < 200; ++i) {
    two.insert(key_of(i), result_of(i));
  }
  for (std::uint64_t i = 200; i-- > 0;) {  // reverse insertion order
    one.insert(key_of(i), result_of(i));
    five.insert(key_of(i), result_of(i));
  }
  const std::string path_one = temp_path("canon_one.cache");
  const std::string path_two = temp_path("canon_two.cache");
  const std::string path_five = temp_path("canon_five.cache");
  const std::string path_session = temp_path("canon_session.cache");
  std::remove(path_session.c_str());
  EXPECT_EQ(one.save_file(path_one), 200u);
  EXPECT_EQ(two.save_file(path_two), 200u);
  EXPECT_EQ(five.save_file(path_five), 200u);
  {
    customize::Session session(customize::SessionOptions{path_session});
    for (std::uint64_t i = 0; i < 200; ++i) {  // a third insertion order
      session.store_sim(key_of((i * 7) % 200), result_of((i * 7) % 200));
    }
    EXPECT_EQ(session.save_sim(), 200u);
  }  // saved again on destruction, with the same bytes
  const std::string canonical = read_bytes(path_two);
  EXPECT_FALSE(canonical.empty());
  EXPECT_EQ(read_bytes(path_one), canonical);
  EXPECT_EQ(read_bytes(path_five), canonical);
  EXPECT_EQ(read_bytes(path_session), canonical);
  for (const std::string* path :
       {&path_one, &path_two, &path_five, &path_session}) {
    std::remove(path->c_str());
  }
}

TEST(ShardedCache, FilesLoadAcrossShardCounts) {
  // Single-shard files load into sharded caches and vice versa.
  SimResultCache single(1024, 1);
  for (std::uint64_t i = 0; i < 150; ++i) {
    single.insert(key_of(i), result_of(i));
  }
  const std::string single_path = temp_path("cross_single.cache");
  EXPECT_EQ(single.save_file(single_path), 150u);

  SimResultCache sharded(1024, 8);
  EXPECT_EQ(sharded.load_file(single_path), 150u);
  for (std::uint64_t i = 0; i < 150; ++i) {
    const auto hit = sharded.lookup(key_of(i));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, result_of(i));
  }

  const std::string sharded_path = temp_path("cross_sharded.cache");
  EXPECT_EQ(sharded.save_file(sharded_path), 150u);
  SimResultCache back(1024, 1);
  EXPECT_EQ(back.load_file(sharded_path), 150u);
  for (std::uint64_t i = 0; i < 150; ++i) {
    EXPECT_TRUE(back.lookup(key_of(i)).has_value());
  }
  std::remove(single_path.c_str());
  std::remove(sharded_path.c_str());
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

TEST(ShardedSession, ConcurrentArtifactTierIsSafe) {
  customize::Session session;
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

  // Solo twins: each request served alone on its own cold service — the
  // reference bytes.
  std::vector<serve::Request> requests;
  std::vector<std::string> solo_results;
  for (const std::string& line : lines) {
    serve::Service solo;
    requests.push_back(solo.parse_request(line));
    ASSERT_TRUE(requests.back().valid) << requests.back().error;
    const serve::Response response = solo.execute(requests.back());
    ASSERT_TRUE(response.ok) << response.error;
    solo_results.push_back(response.result_json);
  }

  // Concurrent pass: one shared service, every thread issues the full
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
