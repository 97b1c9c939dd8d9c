// Robustness property for the wire parsers: random and mutated byte
// strings must never crash Packet::parse / LabelStack::parse, and
// anything accepted must re-serialise to a consistent wire image
// (parse ∘ serialize = identity on the accepted set).  The router's
// in-place wire check must agree exactly with that round trip.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/ingress.hpp"
#include "mpls/packet.hpp"

namespace empls::mpls {
namespace {

class WireFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(WireFuzz, RandomBytesNeverCrashAndAcceptedInputsRoundTrip) {
  std::mt19937 rng(GetParam());
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<std::uint8_t> bytes(rng() % 96);
    for (auto& b : bytes) {
      b = static_cast<std::uint8_t>(rng());
    }
    const auto packet = Packet::parse(bytes);
    if (packet) {
      // Accepted: the canonical re-serialisation must parse back to an
      // equivalent packet (the parser normalises S bits, so compare the
      // parsed forms, not the raw bytes).
      const auto again = Packet::parse(packet->serialize());
      ASSERT_TRUE(again.has_value()) << "trial " << trial;
      EXPECT_EQ(again->stack, packet->stack);
      EXPECT_EQ(again->payload, packet->payload);
      EXPECT_EQ(again->src, packet->src);
      EXPECT_EQ(again->dst, packet->dst);
      EXPECT_EQ(again->cos, packet->cos);
      EXPECT_EQ(again->ip_ttl, packet->ip_ttl);
    }
    // The stack parser must be equally robust on its own.
    const auto stack = LabelStack::parse(bytes);
    if (stack) {
      EXPECT_TRUE(stack->s_bit_invariant_holds()) << "trial " << trial;
      EXPECT_LE(stack->size(), LabelStack::kHardwareDepth);
    }
  }
}

TEST_P(WireFuzz, MutatedValidPacketsNeverCrash) {
  std::mt19937 rng(GetParam() * 31337);
  Packet base;
  base.src = Ipv4Address::from_octets(192, 168, 0, 1);
  base.dst = Ipv4Address::from_octets(10, 0, 0, 1);
  base.cos = 5;
  base.stack.push(LabelEntry{100, 2, false, 64});
  base.stack.push(LabelEntry{200, 3, false, 63});
  base.payload.assign(40, 0x5A);

  for (int trial = 0; trial < 3000; ++trial) {
    auto bytes = base.serialize();
    const auto mutations = 1 + rng() % 5;
    for (unsigned m = 0; m < mutations; ++m) {
      switch (rng() % 3) {
        case 0:
          bytes[rng() % bytes.size()] = static_cast<std::uint8_t>(rng());
          break;
        case 1:
          bytes.erase(bytes.begin() +
                      static_cast<long>(rng() % bytes.size()));
          break;
        case 2:
          bytes.insert(bytes.begin() +
                           static_cast<long>(rng() % (bytes.size() + 1)),
                       static_cast<std::uint8_t>(rng()));
          break;
      }
      if (bytes.empty()) {
        bytes.push_back(0);
      }
    }
    const auto packet = Packet::parse(bytes);
    if (packet) {
      // Whatever survived must still satisfy the structural invariants.
      EXPECT_TRUE(packet->stack.s_bit_invariant_holds()) << trial;
      EXPECT_LE(packet->stack.size(), LabelStack::kHardwareDepth) << trial;
      EXPECT_EQ(packet->wire_size(), bytes.size()) << trial;
    }
  }
}

/// The oracle: does the packet come back unchanged from the wire?
bool round_trip_reproduces(const Packet& p) {
  const auto again = Packet::parse(p.serialize());
  return again && again->l2 == p.l2 && again->src == p.src &&
         again->dst == p.dst && again->cos == p.cos &&
         again->ip_ttl == p.ip_ttl && again->stack == p.stack &&
         again->payload == p.payload;
}

// Differential: IngressProcessor::wire_round_trip_ok evaluates in place
// the condition under which the round trip reproduces a packet.  Fuzz
// every field the wire format can fail to carry — out-of-range L2 types,
// labels and CoS wider than their fields, stacks of non-hardware
// capacity, payloads around the 16-bit length limit — and require the
// two to agree on every packet.
TEST_P(WireFuzz, InPlaceCheckAgreesWithRoundTrip) {
  std::mt19937 rng(GetParam() * 7919);
  auto pick = [&rng](unsigned n) { return static_cast<unsigned>(rng() % n); };
  unsigned accepted = 0;
  unsigned rejected = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const std::size_t capacity = 1 + pick(5);
    Packet p;
    p.stack = LabelStack(capacity);
    p.l2 = static_cast<L2Type>(pick(5));
    p.src = Ipv4Address{static_cast<std::uint32_t>(rng())};
    p.dst = Ipv4Address{static_cast<std::uint32_t>(rng())};
    p.cos = static_cast<std::uint8_t>(rng());
    p.ip_ttl = static_cast<std::uint8_t>(rng());
    const unsigned depth = pick(5);
    for (unsigned d = 0; d < depth; ++d) {
      // Mostly in range, sometimes up to 2^22 / CoS 15.
      const std::uint32_t label =
          pick(4) == 0 ? pick(1u << 22) : pick(kMaxLabel + 1);
      const auto cos = static_cast<std::uint8_t>(pick(4) == 0 ? pick(16)
                                                              : pick(8));
      p.stack.push(LabelEntry{label, cos, false,
                              static_cast<std::uint8_t>(rng())});
    }
    const std::size_t payload =
        pick(4) == 0 ? 65535 - 3 + pick(7) : pick(200);
    p.payload.assign(payload, static_cast<std::uint8_t>(trial));

    const bool oracle = round_trip_reproduces(p);
    ASSERT_EQ(core::IngressProcessor::wire_round_trip_ok(p), oracle)
        << "trial " << trial << ": capacity " << capacity << ", "
        << p.to_string();
    ++(oracle ? accepted : rejected);
  }
  // Both verdicts must be well exercised, or the agreement is vacuous.
  EXPECT_GT(accepted, 1000u);
  EXPECT_GT(rejected, 1000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzz, ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace empls::mpls
