// Shared integer mixing finalizers (splitmix32 / splitmix64).
//
// Several hot paths need a cheap full-avalanche hash over small integer
// keys: FlatCounts and the trie engine's open-addressing tables spread
// sequential flow ids / labels away from one probe chain, the flow
// cache spreads (level, key) pairs across slots, and
// the hop tracer mixes slab addresses whose low bits share the slot
// stride.  They all use the same two finalizers; this header is the one
// definition (previously copied into each file).
//
// The constants are the published splitmix finalizers:
//   32-bit — Ellard's low-bias search over the splitmix32 family;
//   64-bit — Steele/Lea/Flood, "Fast splittable pseudorandom number
//            generators" (OOPSLA 2014), the splitmix64 output mix.
// Changing either changes every downstream probe sequence, shard
// placement and cache layout at once — test_mix.cpp pins known-answer
// vectors so that can only happen on purpose.
#pragma once

#include <cstdint>

namespace empls::net {

/// splitmix32 finalizer: full-avalanche spread of a 32-bit key.
[[nodiscard]] constexpr std::uint32_t mix32(std::uint32_t x) noexcept {
  x ^= x >> 16;
  x *= 0x7feb352dU;
  x ^= x >> 15;
  x *= 0x846ca68bU;
  x ^= x >> 16;
  return x;
}

/// splitmix64 finalizer: full-avalanche spread of a 64-bit key.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// The splitmix64 golden-gamma increment.  Callers hashing values that
/// may be zero-heavy (pointers, sequence counters) pre-add it so the
/// finalizer never sees the 0 → 0 fixed point: mix64(x + kGoldenGamma).
constexpr std::uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ULL;

/// splitmix64 finalizer over a (level, key) pair — the flow cache's
/// slot hash.
[[nodiscard]] constexpr std::uint64_t mix64_pair(std::uint32_t level,
                                                 std::uint32_t key) noexcept {
  return mix64((std::uint64_t{level} << 32) | std::uint64_t{key});
}

}  // namespace empls::net
