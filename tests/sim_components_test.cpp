// Unit tests for simulator components: traffic patterns.
#include <gtest/gtest.h>

#include <set>

#include "shg/sim/traffic.hpp"

namespace shg::sim {
namespace {

TEST(Traffic, UniformAvoidsSelfAndCoversAll) {
  const auto pattern = make_uniform(16);
  Prng rng(5);
  std::set<int> seen;
  for (int i = 0; i < 2000; ++i) {
    const int d = pattern->dest(3, rng);
    ASSERT_NE(d, 3);
    ASSERT_GE(d, 0);
    ASSERT_LT(d, 16);
    seen.insert(d);
  }
  EXPECT_EQ(seen.size(), 15u);
}

TEST(Traffic, TransposeAndFixedPoints) {
  const auto pattern = make_transpose(4, 4);
  Prng rng(1);
  EXPECT_EQ(pattern->dest(1, rng), 4);   // (0,1) -> (1,0)
  EXPECT_EQ(pattern->dest(7, rng), 13);  // (1,3) -> (3,1)
  EXPECT_EQ(pattern->dest(5, rng), 5);   // diagonal fixed point
  EXPECT_THROW(make_transpose(4, 8), Error);
}

TEST(Traffic, BitComplement) {
  const auto pattern = make_bit_complement(64);
  Prng rng(1);
  EXPECT_EQ(pattern->dest(0, rng), 63);
  EXPECT_EQ(pattern->dest(21, rng), 42);
}

TEST(Traffic, BitReverseAndShuffle) {
  const auto rev = make_bit_reverse(8);
  Prng rng(1);
  EXPECT_EQ(rev->dest(1, rng), 4);  // 001 -> 100
  EXPECT_EQ(rev->dest(3, rng), 6);  // 011 -> 110
  const auto shuffle = make_shuffle(8);
  EXPECT_EQ(shuffle->dest(5, rng), 3);  // 101 -> 011
  EXPECT_THROW(make_bit_reverse(12), Error);
}

TEST(Traffic, Tornado) {
  const auto pattern = make_tornado(4, 4);
  Prng rng(1);
  // (0,0) -> (1,1): half-way minus one in each dimension.
  EXPECT_EQ(pattern->dest(0, rng), 5);
}

TEST(Traffic, NeighborWrapsAround) {
  const auto pattern = make_neighbor(4, 4);
  Prng rng(1);
  EXPECT_EQ(pattern->dest(0, rng), 1);
  EXPECT_EQ(pattern->dest(3, rng), 0);  // (0,3) -> (0,0)
}

TEST(Traffic, HotspotBias) {
  const auto pattern = make_hotspot(16, {5}, 0.5);
  Prng rng(9);
  int to_hotspot = 0;
  for (int i = 0; i < 4000; ++i) {
    if (pattern->dest(0, rng) == 5) ++to_hotspot;
  }
  // 50% directed + ~1/15 of the uniform rest.
  EXPECT_NEAR(to_hotspot / 4000.0, 0.5 + 0.5 / 15.0, 0.04);
  EXPECT_THROW(make_hotspot(16, {}, 0.5), Error);
  EXPECT_THROW(make_hotspot(16, {20}, 0.5), Error);
}

}  // namespace
}  // namespace shg::sim
