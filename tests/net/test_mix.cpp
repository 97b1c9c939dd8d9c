// Known-answer pins for the shared mixing finalizers (net/mix.hpp).
//
// Every open-addressing table and flow-cache layout in the tree derives
// from mix32 / mix64; silently changing a constant would reshuffle all
// of them (and the differential walls would only catch it indirectly).
// These vectors make the contract explicit: the exact published
// finalizers, byte for byte.

#include "net/mix.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace empls::net {
namespace {

TEST(Mix, Mix32KnownAnswers) {
  // splitmix32 finalizer (Ellard's constants).  Zero is the fixed point
  // — callers that must avoid it pre-add kGoldenGamma.
  EXPECT_EQ(mix32(0u), 0x00000000u);
  EXPECT_EQ(mix32(1u), 0x688990c0u);
  EXPECT_EQ(mix32(2u), 0xd1132181u);
  EXPECT_EQ(mix32(0xdeadbeefu), 0xe628c683u);
  EXPECT_EQ(mix32(0xffffffffu), 0x6768824au);
}

TEST(Mix, Mix64KnownAnswers) {
  EXPECT_EQ(mix64(0ull), 0x0000000000000000ull);
  EXPECT_EQ(mix64(1ull), 0x5692161d100b05e5ull);
  EXPECT_EQ(mix64(0x123456789abcdef0ull), 0x9629f58e8ec5b906ull);
}

TEST(Mix, Mix64MatchesPublishedSplitmix64Stream) {
  // splitmix64 seeded with 0 emits mix64(k * gamma) at step k; the
  // first three outputs are the reference vectors from the Steele /
  // Lea / Flood generator every PRNG test suite pins.
  EXPECT_EQ(mix64(1 * kGoldenGamma), 0xe220a8397b1dcdafull);
  EXPECT_EQ(mix64(2 * kGoldenGamma), 0x6e789e6aa1b965f4ull);
  EXPECT_EQ(mix64(3 * kGoldenGamma), 0x06c45d188009454full);
}

TEST(Mix, Mix64PairPacksLevelHigh) {
  // The flow cache hashes (level, key) as
  // (level << 32) | key; pin one vector plus the packing equivalence.
  EXPECT_EQ(mix64_pair(3u, 0x000fffffu), 0x0a32deae163c6d71ull);
  EXPECT_EQ(mix64_pair(7u, 42u), mix64((std::uint64_t{7} << 32) | 42u));
  EXPECT_NE(mix64_pair(1u, 2u), mix64_pair(2u, 1u));
}

TEST(Mix, AvalancheSmoke) {
  // Not a statistical test — just that adjacent inputs diverge in both
  // halves, which is the property the probe chains rely on.
  const std::uint32_t a = mix32(100u);
  const std::uint32_t b = mix32(101u);
  EXPECT_NE(a >> 16, b >> 16);
  EXPECT_NE(a & 0xffffu, b & 0xffffu);
  const std::uint64_t c = mix64(1000ull);
  const std::uint64_t d = mix64(1001ull);
  EXPECT_NE(c >> 32, d >> 32);
  EXPECT_NE(c & 0xffffffffull, d & 0xffffffffull);
}

}  // namespace
}  // namespace empls::net
