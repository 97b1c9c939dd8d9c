// Cross-engine differential fuzz: every software lookup engine must
// agree with the LinearEngine golden model on arbitrary random programs
// and packet streams — same discard decisions, same applied operations,
// same TTLs, same resulting stacks — with the information base mutated
// mid-stream (write_pair, corrupt_entry, clear + reprogram) between
// packet bursts.  The trie engine mirrors the hardware's linear-search
// cost model on paper-sized bases, so it must also charge bit-identical
// Table 6 cycles; the hash and CAM bench baselines intentionally cost
// differently, so only their semantics are compared.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "baseline_engines.hpp"
#include "sw/linear_engine.hpp"
#include "sw/semantics.hpp"
#include "sw/trie_engine.hpp"

namespace empls {
namespace {

using mpls::LabelEntry;
using mpls::LabelOp;
using mpls::LabelPair;

std::unique_ptr<sw::LabelEngine> make_engine(const std::string& kind) {
  if (kind == "hash") {
    return std::make_unique<bench::HashEngine>();
  }
  if (kind == "cam") {
    return std::make_unique<bench::CamEngine>();
  }
  if (kind == "trie") {
    return std::make_unique<sw::TrieEngine>();
  }
  return nullptr;
}

/// Whether `kind` models the same linear-search hardware as the golden
/// engine (then cycles must match bit for bit, not just semantics).
/// The trie engine qualifies: below the paper's 1024-pair boundary its
/// cost model charges the exact linear-equivalent position.
bool cycles_comparable(const std::string& kind) { return kind == "trie"; }

// Small key spaces force duplicates, hits, misses and corruption
// collisions.
mpls::Packet random_packet(std::mt19937& rng) {
  mpls::Packet p;
  p.dst = mpls::Ipv4Address{static_cast<rtl::u32>(0xC0A80000 + rng() % 12)};
  p.cos = static_cast<rtl::u8>(rng() & 7);
  p.ip_ttl = static_cast<rtl::u8>(rng() % 4 == 0 ? rng() % 3 : rng());
  const auto depth = rng() % 4;
  for (rtl::u32 d = 0; d < depth; ++d) {
    p.stack.push(LabelEntry{static_cast<rtl::u32>(1 + rng() % 12),
                            static_cast<rtl::u8>(rng() & 7), false,
                            static_cast<rtl::u8>(rng() % 4 == 0 ? rng() % 3
                                                                : rng())});
  }
  return p;
}

LabelPair random_pair(std::mt19937& rng, unsigned level) {
  const rtl::u32 key =
      level == 1 ? 0xC0A80000 + rng() % 12 : 1 + rng() % 12;
  return LabelPair{key, static_cast<rtl::u32>(100 + rng() % 900),
                   static_cast<LabelOp>(rng() % 4)};
}

class EngineDifferential
    : public ::testing::TestWithParam<std::tuple<unsigned, std::string>> {
 protected:
  [[nodiscard]] unsigned seed() const { return std::get<0>(GetParam()); }
  [[nodiscard]] std::string kind() const { return std::get<1>(GetParam()); }
};

TEST_P(EngineDifferential, StreamsAgreeWithGoldenUnderMidStreamMutation) {
  std::mt19937 rng(seed());
  auto engine = make_engine(kind());
  ASSERT_NE(engine, nullptr);
  sw::LinearEngine golden;
  const bool cycles = cycles_comparable(kind());

  auto program = [&](int pairs) {
    for (int i = 0; i < pairs; ++i) {
      const unsigned level = 1 + rng() % 3;
      const auto pair = random_pair(rng, level);
      ASSERT_TRUE(engine->write_pair(level, pair));
      ASSERT_TRUE(golden.write_pair(level, pair));
    }
  };
  program(30);

  for (int round = 0; round < 8; ++round) {
    const auto type =
        rng() % 2 == 0 ? hw::RouterType::kLer : hw::RouterType::kLsr;
    for (int trial = 0; trial < 40; ++trial) {
      mpls::Packet a = random_packet(rng);
      mpls::Packet b = a;
      const auto got = engine->update(a, sw::classify_level(a), type);
      const auto want = golden.update(b, sw::classify_level(b), type);
      ASSERT_EQ(got.discarded, want.discarded)
          << kind() << " round " << round << " trial " << trial;
      ASSERT_EQ(got.reason, want.reason)
          << kind() << " round " << round << " trial " << trial;
      ASSERT_EQ(got.applied, want.applied)
          << kind() << " round " << round << " trial " << trial;
      ASSERT_EQ(got.ttl_after, want.ttl_after)
          << kind() << " round " << round << " trial " << trial;
      if (cycles) {
        ASSERT_EQ(got.hw_cycles, want.hw_cycles)
            << kind() << " round " << round << " trial " << trial;
      }
      ASSERT_EQ(a.stack, b.stack)
          << kind() << " round " << round << " trial " << trial
          << "\n  engine: " << a.stack.to_string()
          << "\n  golden: " << b.stack.to_string();
    }

    // Mid-stream mutation: fresh bindings every round, an injected
    // corruption on odd rounds, a full clear + identical reprogram on
    // every third.  The engines must keep agreeing afterwards.
    program(4);
    if (round % 2 == 1) {
      const unsigned level = 1 + rng() % 3;
      const rtl::u32 key =
          level == 1 ? 0xC0A80000 + rng() % 12 : 1 + rng() % 12;
      const rtl::u32 bad = 0x80000 + rng() % 256;
      ASSERT_EQ(engine->corrupt_entry(level, key, bad),
                golden.corrupt_entry(level, key, bad))
          << kind() << ": corruption found a binding in one engine only";
    }
    if (round % 3 == 2) {
      engine->clear();
      golden.clear();
      program(20);
    }
    for (unsigned level = 1; level <= 3; ++level) {
      const rtl::u32 key =
          level == 1 ? 0xC0A80000 + rng() % 12 : 1 + rng() % 12;
      ASSERT_EQ(engine->lookup(level, key), golden.lookup(level, key))
          << kind() << " level " << level;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByEngine, EngineDifferential,
    ::testing::Combine(::testing::Values(1u, 42u, 31415u),
                       ::testing::Values(std::string("hash"),
                                         std::string("cam"),
                                         std::string("trie"))),
    [](const auto& info) {
      return std::get<1>(info.param) + "_seed" +
             std::to_string(std::get<0>(info.param));
    });

}  // namespace
}  // namespace empls
