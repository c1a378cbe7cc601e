// Tests for the declarative workload subsystem: TrafficSpec parsing and
// round-trips, pattern destination histograms, injection kinds, and
// Bernoulli injection's bit-identity with the pre-refactor simulator
// (golden SimResults captured from the build before injection was split
// out of the simulator loop).
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <variant>
#include <vector>

#include "shg/sim/simulator.hpp"
#include "shg/sim/traffic_spec.hpp"
#include "shg/topo/generators.hpp"

namespace shg::sim {
namespace {

// --- Spec parsing / round-trips -------------------------------------------

TEST(TrafficSpec, CanonicalRoundTrips) {
  for (const char* text :
       {"uniform", "transpose", "bit-complement", "bit-reverse", "shuffle",
        "tornado", "neighbor", "hotspot:0,7:0.2", "hotspot:5:0.5",
        "randperm:0", "randperm:12345",
        "uniform/onoff:0.05,0.2", "hotspot:0,7:0.2/onoff:0.01,0.1",
        "randperm:7/onoff:0.05,0.2"}) {
    EXPECT_EQ(TrafficSpec::parse(text).canonical(), text) << text;
  }
}

TEST(TrafficSpec, PatternNameMatchesSpecKey) {
  for (const char* key :
       {"uniform", "transpose", "bit-complement", "bit-reverse", "shuffle",
        "tornado", "neighbor"}) {
    const auto pattern = TrafficSpec::parse(key).make_pattern(4, 4);
    EXPECT_EQ(pattern->name(), key);
  }
  const auto hotspot =
      TrafficSpec::parse("hotspot:0,7:0.2").make_pattern(4, 4);
  EXPECT_EQ(hotspot->name(), "hotspot");
}

TEST(TrafficSpec, ProcessSelection) {
  EXPECT_TRUE(std::holds_alternative<Injection::Bernoulli>(
      TrafficSpec::parse("uniform").injection().kind()));
  const TrafficSpec bursty = TrafficSpec::parse("uniform/onoff:0.05,0.2");
  EXPECT_EQ(bursty.on_off_alpha, 0.05);
  EXPECT_EQ(bursty.on_off_beta, 0.2);
  const Injection injection = bursty.injection();
  const auto* onoff = std::get_if<Injection::OnOff>(&injection.kind());
  ASSERT_NE(onoff, nullptr);
  EXPECT_EQ(onoff->alpha, 0.05);
  EXPECT_EQ(onoff->beta, 0.2);
}

TEST(TrafficSpec, UnknownOrMalformedSpecsThrow) {
  EXPECT_THROW(TrafficSpec::parse(""), Error);
  EXPECT_THROW(TrafficSpec::parse("warp"), Error);            // unknown pattern
  EXPECT_THROW(TrafficSpec::parse("uniform:3"), Error);       // stray args
  EXPECT_THROW(TrafficSpec::parse("hotspot"), Error);         // missing args
  EXPECT_THROW(TrafficSpec::parse("hotspot:x:0.2"), Error);   // bad tile
  EXPECT_THROW(TrafficSpec::parse("hotspot:0:1.5"), Error);   // bad fraction
  EXPECT_THROW(TrafficSpec::parse("randperm"), Error);        // missing seed
  EXPECT_THROW(TrafficSpec::parse("randperm:x"), Error);      // bad seed
  EXPECT_THROW(TrafficSpec::parse("randperm:-1"), Error);     // negative seed
  EXPECT_THROW(TrafficSpec::parse("uniform/poisson"), Error); // bad process
  EXPECT_THROW(TrafficSpec::parse("uniform/onoff:0.5"), Error);
  EXPECT_THROW(TrafficSpec::parse("uniform/onoff:0,0.5"), Error);
  EXPECT_THROW(TrafficSpec::parse("a/b/c"), Error);
}

TEST(TrafficSpec, PatternApplicabilityChecked) {
  // Applicability errors surface at make_pattern, where the grid is known.
  EXPECT_THROW(TrafficSpec::parse("transpose").make_pattern(2, 3), Error);
  EXPECT_THROW(TrafficSpec::parse("shuffle").make_pattern(3, 3), Error);
  EXPECT_THROW(TrafficSpec::parse("hotspot:99:0.2").make_pattern(4, 4),
               Error);
}

TEST(TrafficSpec, ApplicabilityErrorNamesSpecAndGrid) {
  // The rethrow must carry the canonical spec string and the terminal grid
  // the pattern was being instantiated on — the two facts a sweep over
  // many topologies needs to locate the offending cell.
  try {
    TrafficSpec::parse("transpose/onoff:0.05,0.2").make_pattern(2, 3);
    FAIL() << "expected an applicability error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("transpose/onoff:0.05,0.2"), std::string::npos)
        << what;
    EXPECT_NE(what.find("2x3"), std::string::npos) << what;
  }
  // Concentration changes the grid the error reports: 4x4 routers at c=2
  // form a 4x8 terminal grid.
  try {
    TrafficSpec::parse("transpose").make_pattern(4, 4, 2);
    FAIL() << "expected an applicability error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("4x8"), std::string::npos)
        << e.what();
  }
}

TEST(TrafficSpec, RandPermIsASeedStablePermutation) {
  const auto pattern = TrafficSpec::parse("randperm:7").make_pattern(4, 4);
  EXPECT_EQ(pattern->name(), "randperm");
  Prng rng(1);
  // It is a permutation of the 16 tiles...
  std::vector<bool> hit(16, false);
  for (int src = 0; src < 16; ++src) {
    const int dest = pattern->dest(src, rng);
    ASSERT_GE(dest, 0);
    ASSERT_LT(dest, 16);
    EXPECT_FALSE(hit[static_cast<std::size_t>(dest)]);
    hit[static_cast<std::size_t>(dest)] = true;
  }
  // ...stable across instantiations of the same seed...
  const auto again = TrafficSpec::parse("randperm:7").make_pattern(4, 4);
  for (int src = 0; src < 16; ++src) {
    EXPECT_EQ(pattern->dest(src, rng), again->dest(src, rng));
  }
  // ...and a different seed draws a different permutation.
  const auto other = TrafficSpec::parse("randperm:8").make_pattern(4, 4);
  bool differs = false;
  for (int src = 0; src < 16; ++src) {
    if (pattern->dest(src, rng) != other->dest(src, rng)) differs = true;
  }
  EXPECT_TRUE(differs);
}

// --- Concentrated pattern instantiation -----------------------------------

TEST(TrafficSpec, ConcentrationSizesPatternsOnTerminalGrid) {
  // 4x4 routers, c=4 -> 2x2 sub-grids -> an 8x8 terminal grid with 64
  // terminals. Uniform must draw over all of them.
  const auto pattern = TrafficSpec::parse("uniform").make_pattern(4, 4, 4);
  Prng rng(5);
  std::vector<bool> hit(64, false);
  for (int i = 0; i < 20000; ++i) {
    const int dest = pattern->dest(0, rng);
    ASSERT_GE(dest, 0);
    ASSERT_LT(dest, 64);
    hit[static_cast<std::size_t>(dest)] = true;
  }
  // Every terminal except the source is reachable.
  for (int t = 1; t < 64; ++t) EXPECT_TRUE(hit[static_cast<std::size_t>(t)]);
  EXPECT_FALSE(hit[0]);
}

TEST(TrafficSpec, ConcentrationAppliesToGridShapedPatterns) {
  // c=4 makes a 4x4 router grid an 8x8 terminal grid: transpose (square
  // only) applies, and tornado rotates on terminal coordinates.
  const auto transpose =
      TrafficSpec::parse("transpose").make_pattern(4, 4, 4);
  Prng rng(1);
  // Terminal (row 1, col 3) -> (row 3, col 1) on the 8x8 terminal grid.
  EXPECT_EQ(transpose->dest(1 * 8 + 3, rng), 3 * 8 + 1);
  const auto tornado = TrafficSpec::parse("tornado").make_pattern(4, 4, 4);
  // Tornado shifts by ceil(k/2) - 1 per dimension: 3 on the 8x8 terminal
  // grid (vs 1 on the bare 4x4 router grid).
  EXPECT_EQ(tornado->dest(0, rng), 3 * 8 + 3);
  // c=2 -> 1x2 sub-grids -> a rectangular 4x8 terminal grid: transpose is
  // not applicable there.
  EXPECT_THROW(TrafficSpec::parse("transpose").make_pattern(4, 4, 2), Error);
}

TEST(TrafficSpec, ConcentrationHotspotIdsAreTerminalIds) {
  // Terminal 63 exists on the 8x8 terminal grid but not on the 16-tile
  // grid: valid at c=4, out of range at c=1.
  const auto pattern =
      TrafficSpec::parse("hotspot:63:0.9").make_pattern(4, 4, 4);
  Prng rng(3);
  int hot = 0;
  for (int i = 0; i < 1000; ++i) {
    if (pattern->dest(0, rng) == 63) ++hot;
  }
  EXPECT_GT(hot, 800);
  EXPECT_THROW(TrafficSpec::parse("hotspot:63:0.9").make_pattern(4, 4),
               Error);
}

// --- Destination histograms -----------------------------------------------

TEST(TrafficSpec, HotspotHistogramMatchesFraction) {
  const auto pattern =
      TrafficSpec::parse("hotspot:0,7:0.5").make_pattern(4, 4);
  Prng rng(123);
  std::map<int, int> histogram;
  const int draws = 40000;
  for (int i = 0; i < draws; ++i) ++histogram[pattern->dest(3, rng)];
  // Hotspot tiles receive fraction/2 each plus the uniform share
  // 0.5 * 1/15; everything else only the uniform share.
  const double hot = static_cast<double>(histogram[0] + histogram[7]) / draws;
  EXPECT_NEAR(hot, 0.5 + 2.0 * 0.5 / 15.0, 0.02);
  EXPECT_NEAR(static_cast<double>(histogram[12]) / draws, 0.5 / 15.0, 0.01);
  EXPECT_EQ(histogram.count(3), 0u);  // uniform never returns src
}

TEST(TrafficSpec, TornadoIsTheHalfwayPermutation) {
  const auto pattern = TrafficSpec::parse("tornado").make_pattern(4, 4);
  Prng rng(1);
  for (int src = 0; src < 16; ++src) {
    const int r = src / 4;
    const int c = src % 4;
    EXPECT_EQ(pattern->dest(src, rng), ((r + 1) % 4) * 4 + (c + 1) % 4);
  }
}

TEST(TrafficSpec, ShuffleRotatesIndexBits) {
  const auto pattern = TrafficSpec::parse("shuffle").make_pattern(4, 4);
  Prng rng(1);
  for (int src = 0; src < 16; ++src) {
    EXPECT_EQ(pattern->dest(src, rng), ((src << 1) | (src >> 3)) & 15);
  }
}

// --- Injection kinds --------------------------------------------------------

/// The (cycle, tile) of every packet `injection` creates at `packet_prob`
/// on a 1x2 grid under the neighbor pattern, which draws nothing and never
/// maps a tile to itself: every injection draw that hits shows up.
std::vector<std::pair<Cycle, int>> created(const Injection& injection,
                                           double packet_prob, Cycle cycles,
                                           std::uint64_t seed) {
  SimConfig config;
  config.packet_size_flits = 1;
  config.injection_rate = packet_prob;
  config.warmup_cycles = 0;
  config.measure_cycles = cycles;
  config.seed = seed;
  const auto pattern = make_neighbor(1, 2);
  std::vector<std::pair<Cycle, int>> out;
  generate_packets(injection, pattern.get(), Concentration::make(1, 2, 1), 1,
                   config, [&](Cycle t, int tile, int, int) {
                     out.emplace_back(t, tile);
                   });
  return out;
}

TEST(Injection, BernoulliMatchesRawChanceDraws) {
  // Bernoulli consumes exactly one chance(p) draw per (cycle, endpoint),
  // in (cycle, tile) order — the pre-refactor injection loop's stream.
  std::vector<std::pair<Cycle, int>> expected;
  Prng raw(99);
  for (Cycle t = 0; t < 500; ++t) {
    for (int tile = 0; tile < 2; ++tile) {
      if (raw.chance(0.3)) expected.emplace_back(t, tile);
    }
  }
  EXPECT_EQ(created(Injection(), 0.3, 500, 99), expected);
}

TEST(Injection, OnOffPreservesMeanRate) {
  const double packet_prob = 0.02;
  const Cycle cycles = 200000;  // x 2 endpoints
  const auto packets =
      created(Injection::onoff(0.05, 0.15), packet_prob, cycles, 7);
  EXPECT_NEAR(static_cast<double>(packets.size()) / (2.0 * cycles),
              packet_prob, 0.1 * packet_prob);
}

TEST(Injection, OnOffIsBurstier) {
  // Same mean rate, but the on-off kind clusters injections: the variance
  // of tile 0's per-window injection counts must exceed Bernoulli's.
  const double packet_prob = 0.02;
  const int windows = 2000;
  const Cycle window = 100;
  auto window_variance = [&](const Injection& injection) {
    std::vector<double> counts(windows, 0.0);
    for (const auto& [t, tile] :
         created(injection, packet_prob, windows * window, 11)) {
      if (tile == 0) counts[static_cast<std::size_t>(t / window)] += 1.0;
    }
    double mean = 0.0;
    for (double c : counts) mean += c;
    mean /= windows;
    double var = 0.0;
    for (double c : counts) var += (c - mean) * (c - mean);
    return var / windows;
  };
  EXPECT_GT(window_variance(Injection::onoff(0.02, 0.08)),
            2.0 * window_variance(Injection()));
}

TEST(Injection, OnOffRejectsUnreachableRates) {
  // Rate-independent ranges are checked when the injection is built.
  EXPECT_THROW(Injection::onoff(0.0, 0.3), Error);
  EXPECT_THROW(Injection::onoff(0.1, 1.0), Error);
  // duty cycle alpha/(alpha+beta) = 1/4 -> burst prob would be 4 * 0.5 > 1,
  // which a run rejects when it is built.
  const Injection quarter = Injection::onoff(0.1, 0.3);
  EXPECT_THROW(created(quarter, 0.5, 10, 1), Error);
  const auto mesh = topo::make_mesh(2, 2);
  const std::vector<int> latencies(
      static_cast<std::size_t>(mesh.graph().num_edges()), 1);
  const auto pattern = make_uniform(4);
  SimConfig config;
  config.packet_size_flits = 1;
  config.injection_rate = 0.5;
  EXPECT_THROW(
      Simulator(mesh, latencies, config, pattern.get(), 1, nullptr, quarter),
      Error);
  config.injection_rate = 0.2;  // burst prob 0.8
  EXPECT_NO_THROW(
      Simulator(mesh, latencies, config, pattern.get(), 1, nullptr, quarter));
}

// --- Bit-identity with the pre-refactor simulator --------------------------
//
// Golden values captured from the seed build (before injection was split
// out of the simulator loop): same configs, same seeds. The default
// Bernoulli path must reproduce them exactly, and supplying the injection
// explicitly must change nothing.

std::vector<int> unit_latencies(const topo::Topology& topo) {
  return std::vector<int>(static_cast<std::size_t>(topo.graph().num_edges()),
                          1);
}

void expect_result(const SimResult& r, double accepted, double avg,
                   double max, double p50, double p95, double p99,
                   double hops, double fairness, long long packets,
                   long long cycles) {
  EXPECT_EQ(r.accepted_rate, accepted);
  EXPECT_EQ(r.avg_packet_latency, avg);
  EXPECT_EQ(r.max_packet_latency, max);
  EXPECT_EQ(r.p50_packet_latency, p50);
  EXPECT_EQ(r.p95_packet_latency, p95);
  EXPECT_EQ(r.p99_packet_latency, p99);
  EXPECT_EQ(r.avg_hops, hops);
  EXPECT_EQ(r.fairness, fairness);
  EXPECT_EQ(r.measured_packets, packets);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.cycles_run, cycles);
}

TEST(BernoulliBitIdentity, MeshUniform) {
  const auto mesh = topo::make_mesh(4, 4);
  const auto pattern = make_uniform(16);
  SimConfig config;
  config.num_vcs = 2;
  config.buffer_depth_flits = 4;
  config.warmup_cycles = 500;
  config.measure_cycles = 1500;
  config.injection_rate = 0.10;
  const SimResult implicit =
      Simulator(mesh, unit_latencies(mesh), config, pattern.get(), 1).run();
  expect_result(implicit, 0.093666666666666662, 10.968028419182948, 26.0,
                11.0, 17.0, 21.0, 3.6554174067495557, 1.1499646176130172,
                563, 2008);
  // Explicitly supplying the Bernoulli injection is a no-op.
  const SimResult explicit_injection =
      Simulator(mesh, unit_latencies(mesh), config, pattern.get(), 1, nullptr,
                Injection())
          .run();
  expect_result(explicit_injection, 0.093666666666666662, 10.968028419182948,
                26.0, 11.0, 17.0, 21.0, 3.6554174067495557,
                1.1499646176130172, 563, 2008);
}

TEST(BernoulliBitIdentity, ShgTranspose) {
  const auto shg = topo::make_sparse_hamming(6, 6, {3}, {2});
  const auto pattern = make_transpose(6, 6);
  SimConfig config;
  config.num_vcs = 4;
  config.buffer_depth_flits = 8;
  config.warmup_cycles = 400;
  config.measure_cycles = 1200;
  config.injection_rate = 0.25;
  config.seed = 0xabcdef;
  const SimResult result =
      Simulator(shg, unit_latencies(shg), config, pattern.get(), 1).run();
  expect_result(result, 0.21824074074074074, 14.731520815632965, 59.0, 13.0,
                26.0, 35.0, 4.0458793542905696, 1.7594658928937081, 2354,
                1612);
}

TEST(BernoulliBitIdentity, TorusHotspotTwoEndpoints) {
  const auto torus = topo::make_torus(4, 4);
  const auto pattern = make_hotspot(16, {0, 7}, 0.2);
  SimConfig config;
  config.num_vcs = 2;
  config.buffer_depth_flits = 4;
  config.warmup_cycles = 300;
  config.measure_cycles = 900;
  config.injection_rate = 0.15;
  config.seed = 42;
  const SimResult result =
      Simulator(torus, unit_latencies(torus), config, pattern.get(), 2).run();
  expect_result(result, 0.1476736111111111, 11.470149253731343, 38.0, 11.0,
                20.0, 29.0, 3.125, 1.1082813966092768, 1072, 1224);
}

}  // namespace
}  // namespace shg::sim
