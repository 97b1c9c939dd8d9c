// Unit tests for the packet ring and the CoS queue set: classification,
// strict priority, weighted round robin, tail drop, RED, and statistics.
#include <gtest/gtest.h>

#include "net/qos.hpp"

namespace empls::net {
namespace {

mpls::Packet packet(unsigned cos, bool labeled = false) {
  mpls::Packet p;
  p.cos = static_cast<std::uint8_t>(cos);
  if (labeled) {
    p.stack.push(mpls::LabelEntry{100, static_cast<std::uint8_t>(cos), false,
                                  64});
  }
  return p;
}

TEST(CosQueueSet, EffectiveCosPrefersTopLabel) {
  mpls::Packet p = packet(2);
  EXPECT_EQ(CosQueueSet::effective_cos(p), 2u);
  p.stack.push(mpls::LabelEntry{1, 6, false, 64});
  EXPECT_EQ(CosQueueSet::effective_cos(p), 6u)
      << "the label's CoS bits govern scheduling inside the MPLS domain";
}

TEST(CosQueueSet, StrictPriorityDrainsHighFirst) {
  CosQueueSet q;
  ASSERT_TRUE(q.enqueue(packet(1)));
  ASSERT_TRUE(q.enqueue(packet(7)));
  ASSERT_TRUE(q.enqueue(packet(4)));
  EXPECT_EQ(CosQueueSet::effective_cos(*q.dequeue()), 7u);
  EXPECT_EQ(CosQueueSet::effective_cos(*q.dequeue()), 4u);
  EXPECT_EQ(CosQueueSet::effective_cos(*q.dequeue()), 1u);
  EXPECT_FALSE(q.dequeue().has_value());
}

TEST(CosQueueSet, FifoIgnoresCos) {
  QosConfig cfg;
  cfg.scheduler = SchedulerKind::kFifo;
  CosQueueSet q(cfg);
  q.enqueue(packet(1));
  q.enqueue(packet(7));
  q.enqueue(packet(4));
  EXPECT_EQ(CosQueueSet::effective_cos(*q.dequeue()), 1u);
  EXPECT_EQ(CosQueueSet::effective_cos(*q.dequeue()), 7u);
  EXPECT_EQ(CosQueueSet::effective_cos(*q.dequeue()), 4u);
}

// The ring's capacity is the configured queue depth, in general not a
// power of two: its indices must wrap at exactly that capacity, many
// times over, without reordering or losing a packet.
TEST(PacketRing, WrapsAtANonPowerOfTwoCapacityInFifoOrder) {
  PacketRing ring(5);
  std::uint64_t pushed = 0;
  std::uint64_t popped = 0;
  for (unsigned round = 0; round < 80; ++round) {
    // Fill to a level that varies by round (up to full), then drain
    // most of it, so head and tail cross the wrap point at every offset.
    while (ring.size() < 1 + round % 5) {
      mpls::Packet p;
      p.id = pushed++;
      ring.push(PacketHandle(std::move(p)));
    }
    EXPECT_EQ(ring.full(), round % 5 == 4);
    while (ring.size() > round % 2) {
      EXPECT_EQ(ring.pop()->id, popped++);
    }
  }
  while (!ring.empty()) {
    EXPECT_EQ(ring.pop()->id, popped++);
  }
  EXPECT_EQ(popped, pushed);
  EXPECT_GE(pushed, 20u * 5) << "the ring wrapped at least 20 times";
}

TEST(CosQueueSet, TailDropAtCapacity) {
  QosConfig cfg;
  cfg.queue_capacity = 2;
  CosQueueSet q(cfg);
  EXPECT_TRUE(q.enqueue(packet(3)));
  EXPECT_TRUE(q.enqueue(packet(3)));
  EXPECT_FALSE(q.enqueue(packet(3))) << "queue 3 full";
  EXPECT_TRUE(q.enqueue(packet(4))) << "other queues unaffected";
  EXPECT_EQ(q.stats(3).dropped, 1u);
  EXPECT_EQ(q.stats(3).enqueued, 2u);
}

TEST(CosQueueSet, WrrRespectsWeightsUnderBacklog) {
  QosConfig cfg;
  cfg.scheduler = SchedulerKind::kWeightedRoundRobin;
  cfg.wrr_weights = {1, 1, 1, 1, 1, 1, 1, 3};  // CoS 7 gets 3x service
  cfg.queue_capacity = 256;
  CosQueueSet q(cfg);
  for (int i = 0; i < 90; ++i) {
    ASSERT_TRUE(q.enqueue(packet(7)));
    if (i < 30) {
      ASSERT_TRUE(q.enqueue(packet(0)));
    }
  }
  // Dequeue 40: expect roughly 3:1 service between CoS 7 and CoS 0.
  int hi = 0;
  int lo = 0;
  for (int i = 0; i < 40; ++i) {
    const auto p = q.dequeue();
    ASSERT_TRUE(p.has_value());
    (CosQueueSet::effective_cos(*p) == 7 ? hi : lo)++;
  }
  EXPECT_EQ(hi, 30);
  EXPECT_EQ(lo, 10);
}

TEST(CosQueueSet, WrrIsWorkConserving) {
  QosConfig cfg;
  cfg.scheduler = SchedulerKind::kWeightedRoundRobin;
  CosQueueSet q(cfg);
  q.enqueue(packet(2));
  EXPECT_TRUE(q.dequeue().has_value())
      << "a lone backlogged queue is served regardless of cursor position";
  EXPECT_TRUE(q.empty());
}

TEST(CosQueueSet, RedDropsProbabilisticallyAboveMinThreshold) {
  QosConfig cfg;
  cfg.drop = DropPolicy::kRed;
  cfg.queue_capacity = 100;
  cfg.red_min_fraction = 0.2;
  cfg.red_max_fraction = 0.8;
  cfg.red_max_drop_probability = 0.5;
  CosQueueSet q(cfg);
  int dropped = 0;
  for (int i = 0; i < 100; ++i) {
    if (!q.enqueue(packet(0))) {
      ++dropped;
    }
  }
  EXPECT_GT(dropped, 0) << "RED must drop before the hard limit";
  EXPECT_LT(q.size(), 81u) << "nothing admitted above max threshold";
  EXPECT_GE(q.size(), 20u) << "nothing dropped below min threshold";
  EXPECT_EQ(q.total_stats().dropped, static_cast<std::uint64_t>(dropped));
}

class WrrFairness : public ::testing::TestWithParam<unsigned> {};

TEST_P(WrrFairness, LongRunThroughputTracksWeights) {
  // Property: under permanent backlog, per-class service shares converge
  // to the configured weights for arbitrary weight vectors.
  std::mt19937 rng(GetParam());
  QosConfig cfg;
  cfg.scheduler = SchedulerKind::kWeightedRoundRobin;
  cfg.queue_capacity = 100000;
  for (auto& w : cfg.wrr_weights) {
    w = 1 + rng() % 7;
  }
  CosQueueSet q(cfg);

  // Keep all queues permanently backlogged while dequeuing.
  unsigned served[8] = {};
  unsigned total_served = 0;
  for (int round = 0; round < 20000; ++round) {
    for (unsigned cos = 0; cos < 8; ++cos) {
      while (q.size(cos) < 4) {
        ASSERT_TRUE(q.enqueue(packet(cos)));
      }
    }
    const auto p = q.dequeue();
    ASSERT_TRUE(p.has_value());
    ++served[CosQueueSet::effective_cos(*p)];
    ++total_served;
  }
  unsigned weight_sum = 0;
  for (const auto w : cfg.wrr_weights) {
    weight_sum += w;
  }
  for (unsigned cos = 0; cos < 8; ++cos) {
    const double expect =
        static_cast<double>(cfg.wrr_weights[cos]) / weight_sum;
    const double got =
        static_cast<double>(served[cos]) / total_served;
    EXPECT_NEAR(got, expect, 0.01)
        << "cos " << cos << " weight " << cfg.wrr_weights[cos];
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WrrFairness,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(CosQueueSet, StatsAccounting) {
  CosQueueSet q;
  q.enqueue(packet(5));
  q.enqueue(packet(5));
  q.dequeue();
  EXPECT_EQ(q.stats(5).enqueued, 2u);
  EXPECT_EQ(q.stats(5).dequeued, 1u);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.size(5), 1u);
  const auto total = q.total_stats();
  EXPECT_EQ(total.enqueued, 2u);
  EXPECT_EQ(total.dequeued, 1u);
}

TEST(CosQueueSet, LabeledPacketQueuesByLabelCos) {
  CosQueueSet q;
  q.enqueue(packet(1, /*labeled=*/true));  // label CoS 1
  mpls::Packet high = packet(0);
  high.stack.push(mpls::LabelEntry{5, 7, false, 64});
  q.enqueue(std::move(high));
  EXPECT_EQ(q.dequeue()->stack.top().cos, 7u);
}

}  // namespace
}  // namespace empls::net
