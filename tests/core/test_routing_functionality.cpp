// Unit tests for the routing functionality: engine programming, next-hop
// resolution, the ingress slow path, and the binding table behind them
// (checked against a std::map reference model).
#include <gtest/gtest.h>

#include <array>
#include <iterator>
#include <map>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "core/routing_functionality.hpp"
#include "sw/linear_engine.hpp"
#include "sw/trie_engine.hpp"

namespace empls::core {
namespace {

using mpls::LabelOp;

struct Rig {
  sw::LinearEngine engine;
  RoutingFunctionality routing{engine};
};

TEST(RoutingFunctionality, ProgramIngressExactWritesHardware) {
  Rig rig;
  ASSERT_TRUE(rig.routing.program_ingress_exact(0x0A000001, 55, 2));
  const auto pair = rig.engine.lookup(1, 0x0A000001);
  ASSERT_TRUE(pair.has_value());
  EXPECT_EQ(pair->new_label, 55u);
  EXPECT_EQ(pair->op, LabelOp::kPush);
  EXPECT_EQ(rig.routing.out_port(1, 0x0A000001), 2u);
}

TEST(RoutingFunctionality, ProgramSwapPopPush) {
  Rig rig;
  ASSERT_TRUE(rig.routing.program_swap(2, 100, 200, 1));
  ASSERT_TRUE(rig.routing.program_pop(2, 300, mpls::kLocalDeliver));
  ASSERT_TRUE(rig.routing.program_push(2, 400, 500, 3));

  EXPECT_EQ(rig.engine.lookup(2, 100)->op, LabelOp::kSwap);
  EXPECT_EQ(rig.engine.lookup(2, 300)->op, LabelOp::kPop);
  EXPECT_EQ(rig.engine.lookup(2, 400)->op, LabelOp::kPush);
  EXPECT_EQ(rig.engine.lookup(2, 400)->new_label, 500u);
  EXPECT_EQ(rig.routing.out_port(2, 100), 1u);
  EXPECT_EQ(rig.routing.out_port(2, 300), mpls::kLocalDeliver);
  EXPECT_FALSE(rig.routing.out_port(2, 999).has_value());
  EXPECT_FALSE(rig.routing.out_port(3, 100).has_value())
      << "next-hop state is per level";
}

TEST(RoutingFunctionality, PrefixProgrammingIsSoftwareOnly) {
  Rig rig;
  ASSERT_TRUE(rig.routing.program_ingress_prefix(
      *mpls::Prefix::parse("10.0.0.0/8"), 55, 2));
  EXPECT_EQ(rig.engine.level_size(1), 0u)
      << "no hardware entry until traffic arrives";
  EXPECT_EQ(rig.routing.fec_table().size(), 1u);
  EXPECT_EQ(rig.routing.ftn_table().size(), 1u);
}

TEST(RoutingFunctionality, SlowPathInstallsExactEntry) {
  Rig rig;
  rig.routing.program_ingress_prefix(*mpls::Prefix::parse("10.0.0.0/8"), 55,
                                     2);
  EXPECT_TRUE(rig.routing.slow_path_install(0x0A010203));
  EXPECT_EQ(rig.routing.slow_path_installs(), 1u);
  const auto pair = rig.engine.lookup(1, 0x0A010203);
  ASSERT_TRUE(pair.has_value());
  EXPECT_EQ(pair->new_label, 55u);
  EXPECT_EQ(rig.routing.out_port(1, 0x0A010203), 2u);
}

TEST(RoutingFunctionality, SlowPathFailsOutsideAnyPrefix) {
  Rig rig;
  rig.routing.program_ingress_prefix(*mpls::Prefix::parse("10.0.0.0/8"), 55,
                                     2);
  EXPECT_FALSE(rig.routing.slow_path_install(0xC0A80001));
  EXPECT_EQ(rig.routing.slow_path_installs(), 0u);
  EXPECT_EQ(rig.engine.level_size(1), 0u);
}

TEST(RoutingFunctionality, SlowPathUsesLongestPrefix) {
  Rig rig;
  rig.routing.program_ingress_prefix(*mpls::Prefix::parse("10.0.0.0/8"), 55,
                                     2);
  rig.routing.program_ingress_prefix(*mpls::Prefix::parse("10.1.0.0/16"), 66,
                                     3);
  ASSERT_TRUE(rig.routing.slow_path_install(0x0A010203));
  EXPECT_EQ(rig.engine.lookup(1, 0x0A010203)->new_label, 66u);
  EXPECT_EQ(rig.routing.out_port(1, 0x0A010203), 3u);
}

TEST(RoutingFunctionality, ReprogrammingPrefixReusesFecId) {
  Rig rig;
  const auto p = *mpls::Prefix::parse("10.0.0.0/8");
  rig.routing.program_ingress_prefix(p, 55, 2);
  rig.routing.program_ingress_prefix(p, 77, 4);  // new binding, same FEC
  EXPECT_EQ(rig.routing.fec_table().size(), 1u);
  ASSERT_TRUE(rig.routing.slow_path_install(0x0A000001));
  EXPECT_EQ(rig.engine.lookup(1, 0x0A000001)->new_label, 77u);
}

TEST(RoutingFunctionality, WriteFailurePropagates) {
  sw::LinearEngine tiny(/*level_capacity=*/1);
  RoutingFunctionality routing(tiny);
  EXPECT_TRUE(routing.program_swap(2, 1, 2, 0));
  EXPECT_FALSE(routing.program_swap(2, 3, 4, 0)) << "level full";
}

TEST(RoutingFunctionality, RefusesLabelsWiderThanTwentyBits) {
  Rig rig;
  EXPECT_FALSE(rig.routing.program_swap(2, 100, mpls::kMaxLabel + 1, 1));
  EXPECT_FALSE(rig.routing.program_ingress_exact(0x0A000001,
                                                 mpls::kMaxLabel + 1, 1));
  EXPECT_EQ(rig.engine.level_size(1) + rig.engine.level_size(2), 0u);
  EXPECT_FALSE(rig.routing.out_port(2, 100).has_value());
  EXPECT_TRUE(rig.routing.program_swap(2, 100, mpls::kMaxLabel, 1));
  EXPECT_EQ(rig.engine.lookup(2, 100)->new_label, mpls::kMaxLabel);
}

TEST(RoutingFunctionality, AllocatorSeededByFirstLabel) {
  sw::LinearEngine engine;
  RoutingFunctionality routing(engine, /*first_label=*/500);
  EXPECT_EQ(routing.label_allocator().allocate(), 500u);
}

// The binding table's memory budget: 2^16 exact routes need at most
// 24 bytes each (12-byte slots at a load of at least 7/16).
TEST(RoutingFunctionality, BindingTableStaysWithin24BytesPerEntry) {
  sw::TrieEngine engine;
  RoutingFunctionality routing(engine);
  constexpr rtl::u32 kRoutes = 1u << 16;
  for (rtl::u32 h = 0; h < kRoutes; ++h) {
    ASSERT_TRUE(routing.program_ingress_exact(0x0A000000 + h, 100, h % 4));
  }
  EXPECT_LE(routing.table_bytes(), 24u * kRoutes);
  EXPECT_EQ(routing.out_port(1, 0x0A000000 + kRoutes - 1), 3u);
  EXPECT_FALSE(routing.out_port(1, 0x0A000000 + kRoutes).has_value());
}

/// A LinearEngine that logs every information-base mutation in order.
class RecordingEngine : public sw::LinearEngine {
 public:
  struct Event {
    char kind;  // 'C'lear, 'W'rite, 'X' corrupt
    unsigned level;
    mpls::LabelPair pair;
    bool operator==(const Event&) const = default;
  };
  RecordingEngine() : LinearEngine(4096) {}
  std::vector<Event> log;

 protected:
  void do_clear() override {
    log.push_back({'C', 0, {}});
    LinearEngine::do_clear();
  }
  bool do_write_pair(unsigned level, const mpls::LabelPair& pair) override {
    log.push_back({'W', level, pair});
    return LinearEngine::do_write_pair(level, pair);
  }
  bool do_corrupt_entry(unsigned level, rtl::u32 key,
                        rtl::u32 new_label) override {
    log.push_back({'X', level, {key, new_label, LabelOp::kNop}});
    return LinearEngine::do_corrupt_entry(level, key, new_label);
  }
};

/// The routing functionality's contract restated over std containers:
/// what it stores, and the exact engine mutations each call must cause.
struct ReferenceModel {
  using Key = std::pair<unsigned, rtl::u32>;
  std::map<Key, std::pair<mpls::LabelPair, mpls::InterfaceId>> table;
  std::map<std::size_t, mpls::Nhlfe> prefixes;  // index into kPrefixes
  std::set<Key> corrupted;  // engine entries garbled since the last replay
  std::vector<RecordingEngine::Event> expected;
  unsigned reprograms = 0;

  void replay() {
    expected.push_back({'C', 0, {}});
    for (const auto& [key, bound] : table) {
      expected.push_back({'W', key.first, bound.first});
    }
    corrupted.clear();
    ++reprograms;
  }
  void bind(unsigned level, mpls::LabelPair pair, mpls::InterfaceId port) {
    const auto it = table.find({level, pair.index});
    if (it == table.end()) {
      table[{level, pair.index}] = {pair, port};
      expected.push_back({'W', level, pair});
    } else if (!(it->second.first == pair && it->second.second == port)) {
      it->second = {pair, port};
      replay();
    }
  }
};

// Seeded random programming, rebinds, prefix purges, slow-path installs,
// corruptions and resyncs: the binding table must give the reference
// model's next hops, engine write sequence (sorted replays included),
// corrupted entry per salt and divergence counts.
TEST(RoutingFunctionality, MatchesMapReferenceUnderRandomProgramming) {
  const std::array<mpls::Prefix, 4> kPrefixes = {
      *mpls::Prefix::parse("10.0.0.0/24"), *mpls::Prefix::parse("10.0.1.0/24"),
      *mpls::Prefix::parse("10.1.0.0/16"), *mpls::Prefix::parse("10.0.0.0/8")};
  RecordingEngine engine;
  RoutingFunctionality routing(engine);
  ReferenceModel ref;
  std::mt19937 rng(20261019);
  auto pick = [&](rtl::u32 n) { return static_cast<rtl::u32>(rng() % n); };
  auto host = [&] {
    return 0x0A000000 | pick(512) | (pick(2) << 16);  // 10.0.x.y / 10.1.x.y
  };

  for (int step = 0; step < 4000; ++step) {
    const rtl::u32 roll = pick(100);
    if (roll < 35) {
      const rtl::u32 key = host();
      const rtl::u32 label = 100 + pick(3);
      const mpls::InterfaceId port = pick(3);
      ASSERT_TRUE(routing.program_ingress_exact(key, label, port));
      ref.bind(1, {key, label, LabelOp::kPush}, port);
    } else if (roll < 60) {
      const unsigned level = 2 + pick(2);
      const rtl::u32 in = 16 + pick(256);
      const rtl::u32 out = 1000 + pick(3);
      const mpls::InterfaceId port =
          pick(4) == 0 ? mpls::kLocalDeliver : pick(3);
      switch (pick(3)) {
        case 0:
          ASSERT_TRUE(routing.program_swap(level, in, out, port));
          ref.bind(level, {in, out, LabelOp::kSwap}, port);
          break;
        case 1:
          ASSERT_TRUE(routing.program_pop(level, in, port));
          ref.bind(level, {in, 0, LabelOp::kPop}, port);
          break;
        default:
          ASSERT_TRUE(routing.program_push(level, in, out, port));
          ref.bind(level, {in, out, LabelOp::kPush}, port);
          break;
      }
    } else if (roll < 68) {
      const std::size_t i = pick(kPrefixes.size());
      const mpls::Nhlfe nhlfe{LabelOp::kPush, 200 + pick(2), pick(2)};
      ASSERT_TRUE(routing.program_ingress_prefix(kPrefixes[i],
                                                 nhlfe.out_label,
                                                 nhlfe.out_interface));
      const auto previous = ref.prefixes.find(i);
      const bool rebound =
          previous != ref.prefixes.end() && !(previous->second == nhlfe);
      ref.prefixes[i] = nhlfe;
      if (rebound &&
          std::erase_if(ref.table, [&](const auto& entry) {
            return entry.first.first == 1 &&
                   kPrefixes[i].contains(mpls::Ipv4Address{entry.first.second});
          }) > 0) {
        ref.replay();
      }
    } else if (roll < 78) {
      const rtl::u32 key = host();
      const mpls::Nhlfe* best = nullptr;
      unsigned best_len = 0;
      for (const auto& [i, nhlfe] : ref.prefixes) {
        if (kPrefixes[i].contains(mpls::Ipv4Address{key}) &&
            (best == nullptr || kPrefixes[i].length > best_len)) {
          best = &nhlfe;
          best_len = kPrefixes[i].length;
        }
      }
      ASSERT_EQ(routing.slow_path_install(key), best != nullptr);
      if (best != nullptr) {
        ref.bind(1, {key, best->out_label, LabelOp::kPush},
                 best->out_interface);
      }
    } else if (roll < 82) {
      const std::uint64_t salt = rng();
      ASSERT_EQ(routing.corrupt_binding(salt), !ref.table.empty());
      if (!ref.table.empty()) {
        const auto it = std::next(
            ref.table.begin(),
            static_cast<std::ptrdiff_t>(salt % ref.table.size()));
        const rtl::u32 label = it->second.first.new_label;
        rtl::u32 garbled = (label ^ static_cast<rtl::u32>(1 + salt / 7)) &
                           mpls::kMaxLabel;
        if (garbled == label) {
          garbled ^= 1;
        }
        ref.expected.push_back(
            {'X', it->first.first, {it->first.second, garbled, LabelOp::kNop}});
        ref.corrupted.insert(it->first);
      }
    } else if (roll < 85) {
      const auto divergent = static_cast<unsigned>(ref.corrupted.size());
      if (divergent > 0) {
        ref.replay();
      }
      ASSERT_EQ(routing.resync_hardware(), divergent) << "step " << step;
    } else {
      const unsigned level = 1 + pick(3);
      const rtl::u32 key = level == 1 ? host() : 16 + pick(256);
      const auto it = ref.table.find({level, key});
      const std::optional<mpls::InterfaceId> want =
          it == ref.table.end() ? std::nullopt
                                : std::optional{it->second.second};
      ASSERT_EQ(routing.out_port(level, key), want) << "step " << step;
    }
    ASSERT_EQ(engine.log, ref.expected) << "step " << step;
    engine.log.clear();
    ref.expected.clear();
  }
  EXPECT_EQ(routing.hardware_reprograms(), ref.reprograms);
  EXPECT_GT(ref.reprograms, 100u);
  EXPECT_GT(ref.table.size(), 300u);
  for (const auto& [key, bound] : ref.table) {
    ASSERT_EQ(routing.out_port(key.first, key.second), bound.second);
  }
}

}  // namespace
}  // namespace empls::core
