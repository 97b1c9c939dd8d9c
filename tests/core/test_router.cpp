// Unit tests for the embedded router's receive path: forwarding,
// latency charging, discard accounting, malformed-wire rejection, the
// packet tap, and the slow-path retry.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/embedded_router.hpp"
#include "hw/cycle_model.hpp"
#include "mpls/fec.hpp"
#include "net/ldp.hpp"
#include "net/network.hpp"
#include "net/traffic.hpp"
#include "sw/linear_engine.hpp"
#include "sw/trie_engine.hpp"

namespace empls::core {
namespace {

using mpls::LabelEntry;
using mpls::LabelOp;

class SinkNode : public net::Node {
 public:
  explicit SinkNode(std::string name) : Node(std::move(name)) {}
  void receive(net::PacketHandle packet, mpls::InterfaceId) override {
    arrival_time = network()->now();
    last = std::move(*packet);
    ++count;
  }
  net::SimTime arrival_time = -1;
  mpls::Packet last;
  int count = 0;
};

struct Rig {
  net::Network net;
  net::NodeId router_id;
  net::NodeId sink_id;

  explicit Rig(RouterConfig cfg = {}) {
    auto r = std::make_unique<EmbeddedRouter>(
        "R", std::make_unique<sw::LinearEngine>(), cfg);
    router_id = net.add_node(std::move(r));
    sink_id = net.add_node(std::make_unique<SinkNode>("sink"));
    net.connect(router_id, sink_id, 1e9, 0.0);
  }
  EmbeddedRouter& router() { return net.node_as<EmbeddedRouter>(router_id); }
  SinkNode& sink() { return net.node_as<SinkNode>(sink_id); }
};

mpls::Packet labeled(rtl::u32 label, rtl::u8 ttl = 64) {
  mpls::Packet p;
  p.stack.push(LabelEntry{label, 0, false, ttl});
  return p;
}

TEST(Router, SwapForwardsOutTheProgrammedPort) {
  Rig rig;
  rig.router().routing().program_swap(2, 40, 77, 0);
  rig.net.inject(rig.router_id, labeled(40));
  rig.net.run();
  ASSERT_EQ(rig.sink().count, 1);
  EXPECT_EQ(rig.sink().last.stack.top().label, 77u);
  EXPECT_EQ(rig.router().stats().forwarded, 1u);
  EXPECT_EQ(rig.router().stats().swaps, 1u);
}

TEST(Router, ProcessingLatencyUsesEngineCyclesAtConfiguredClock) {
  RouterConfig cfg;
  cfg.clock_hz = 1e6;  // 1 MHz: 1 us per cycle, easy to read
  Rig rig(cfg);
  rig.router().routing().program_swap(2, 40, 77, 0);
  rig.net.inject(rig.router_id, labeled(40));
  rig.net.run();
  // update_swap_cycles(1) = 14 cycles at 1 MHz = 14 us, plus the 1 Gb/s
  // transmission (~0.2 us).
  EXPECT_NEAR(rig.sink().arrival_time, 14e-6, 1e-6);
}

TEST(Router, PopToLocalDelivery) {
  Rig rig;
  rig.router().routing().program_pop(2, 40, mpls::kLocalDeliver);
  mpls::Packet seen;
  int delivered = 0;
  rig.net.set_delivery_handler([&](net::NodeId id, const mpls::Packet& p) {
    EXPECT_EQ(id, rig.router_id);
    seen = p;
    ++delivered;
  });
  rig.net.inject(rig.router_id, labeled(40, 50));
  rig.net.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_TRUE(seen.stack.empty());
  EXPECT_EQ(seen.ip_ttl, 49u) << "egress writes the label TTL back";
  EXPECT_EQ(rig.router().stats().delivered_local, 1u);
}

TEST(Router, UnknownLabelDiscards) {
  Rig rig;
  rig.net.inject(rig.router_id, labeled(999));
  rig.net.run();
  EXPECT_EQ(rig.router().stats().discarded, 1u);
  EXPECT_EQ(rig.sink().count, 0);
}

TEST(Router, MissingNextHopDiscardsEvenAfterEngineSuccess) {
  // Program the engine directly, bypassing the routing functionality, so
  // the update succeeds but next-hop resolution fails.
  Rig rig;
  rig.router().engine().write_pair(
      2, mpls::LabelPair{40, 77, LabelOp::kSwap});
  rig.net.inject(rig.router_id, labeled(40));
  rig.net.run();
  EXPECT_EQ(rig.router().stats().discarded, 1u);
  EXPECT_EQ(rig.sink().count, 0);
}

TEST(Router, SlowPathRetriesOnce) {
  RouterConfig cfg;
  cfg.type = hw::RouterType::kLer;
  Rig rig(cfg);
  rig.router().routing().program_ingress_prefix(
      *mpls::Prefix::parse("10.0.0.0/8"), 55, 0);

  mpls::Packet p;
  p.dst = *mpls::Ipv4Address::parse("10.3.2.1");
  rig.net.inject(rig.router_id, p);
  rig.net.run();
  EXPECT_EQ(rig.sink().count, 1);
  EXPECT_EQ(rig.router().stats().slow_path_retries, 1u);
  EXPECT_EQ(rig.sink().last.stack.top().label, 55u);

  // Second packet to the same destination: fast path.
  rig.net.inject(rig.router_id, p);
  rig.net.run();
  EXPECT_EQ(rig.sink().count, 2);
  EXPECT_EQ(rig.router().stats().slow_path_retries, 1u);
}

TEST(Router, LsrDoesNotTakeTheSlowPath) {
  Rig rig;  // default type is LSR
  rig.router().routing().program_ingress_prefix(
      *mpls::Prefix::parse("10.0.0.0/8"), 55, 0);
  mpls::Packet p;
  p.dst = *mpls::Ipv4Address::parse("10.3.2.1");
  rig.net.inject(rig.router_id, p);
  rig.net.run();
  EXPECT_EQ(rig.router().stats().discarded, 1u);
  EXPECT_EQ(rig.router().stats().slow_path_retries, 0u);
}

TEST(Router, MalformedPacketCounted) {
  Rig rig;
  mpls::Packet p;
  // A packet the wire format cannot carry: its payload is too large for
  // the 16-bit payload length field, so it would not survive a serialize
  // → parse round trip.  (The stack cannot be made malformed through the
  // LabelStack API, which keeps S bits and depth consistent.)
  p.payload.assign(70000, 1);
  rig.net.inject(rig.router_id, p);
  rig.net.run();
  EXPECT_EQ(rig.router().stats().malformed, 1u);
  EXPECT_EQ(rig.router().stats().discarded, 0u);
}

TEST(Router, WireValidationCanBeDisabled) {
  RouterConfig cfg;
  cfg.validate_wire = false;
  Rig rig(cfg);
  mpls::Packet p;
  p.payload.assign(70000, 1);
  rig.net.inject(rig.router_id, p);
  rig.net.run();
  EXPECT_EQ(rig.router().stats().malformed, 0u);
  EXPECT_EQ(rig.router().stats().discarded, 1u) << "fails later instead";
}

TEST(Router, PacketTapSeesBeforeAndAfter) {
  Rig rig;
  rig.router().routing().program_swap(2, 40, 77, 0);
  int taps = 0;
  rig.router().set_packet_tap([&](const EmbeddedRouter& r,
                                  const mpls::Packet& before,
                                  const mpls::Packet& after, LabelOp op,
                                  bool discarded) {
    ++taps;
    EXPECT_EQ(r.name(), "R");
    EXPECT_EQ(before.stack.top().label, 40u);
    EXPECT_EQ(after.stack.top().label, 77u);
    EXPECT_EQ(op, LabelOp::kSwap);
    EXPECT_FALSE(discarded);
  });
  rig.net.inject(rig.router_id, labeled(40));
  rig.net.run();
  EXPECT_EQ(taps, 1);
}

TEST(Router, EngineSerialisesBackToBackPackets) {
  RouterConfig cfg;
  cfg.clock_hz = 1e6;  // 1 us per cycle: swap = 14 us of engine time
  Rig rig(cfg);
  rig.router().routing().program_swap(2, 40, 77, 0);
  // Three packets injected at t=0 contend for the single datapath.
  for (int i = 0; i < 3; ++i) {
    rig.net.inject(rig.router_id, labeled(40));
  }
  rig.net.run();
  EXPECT_EQ(rig.sink().count, 3);
  // Last packet waits 2 x 14 us, processes for 14 us: leaves at 42 us.
  EXPECT_NEAR(rig.sink().arrival_time, 42e-6, 2e-6);
  EXPECT_EQ(rig.router().stats().engine_queue_peak, 2u);
  EXPECT_NEAR(rig.router().stats().engine_wait_time, 14e-6 + 28e-6, 2e-6);
}

TEST(Router, ParallelEngineOptionRemovesContention) {
  RouterConfig cfg;
  cfg.clock_hz = 1e6;
  cfg.serialize_engine = false;
  Rig rig(cfg);
  rig.router().routing().program_swap(2, 40, 77, 0);
  for (int i = 0; i < 3; ++i) {
    rig.net.inject(rig.router_id, labeled(40));
  }
  rig.net.run();
  EXPECT_EQ(rig.sink().count, 3);
  EXPECT_NEAR(rig.sink().arrival_time, 14e-6, 2e-6)
      << "all three processed concurrently in the idealised mode";
  EXPECT_EQ(rig.router().stats().engine_queue_peak, 0u);
}

TEST(Router, EngineQueueOverrunDrops) {
  RouterConfig cfg;
  cfg.clock_hz = 1e6;
  cfg.engine_queue_capacity = 2;
  Rig rig(cfg);
  rig.router().routing().program_swap(2, 40, 77, 0);
  for (int i = 0; i < 6; ++i) {
    rig.net.inject(rig.router_id, labeled(40));
  }
  rig.net.run();
  // 1 in service + 2 queued survive; 3 overrun.
  EXPECT_EQ(rig.sink().count, 3);
  EXPECT_EQ(rig.router().stats().engine_overruns, 3u);
}

TEST(Router, StatsCycleAccounting) {
  Rig rig;
  rig.router().routing().program_swap(2, 40, 77, 0);
  rig.net.inject(rig.router_id, labeled(40));
  rig.net.run();
  EXPECT_EQ(rig.router().stats().engine_cycles, hw::update_swap_cycles(1));
  EXPECT_EQ(rig.router().stats().received, 1u);
}

TEST(Router, BacklogDrainsOnePacketAtATimeInOrder) {
  // 12 simultaneous arrivals: the first enters the engine, the other 11
  // queue, and the single datapath serves them one by one — nothing is
  // lost or reordered, and the last packet leaves only after all 12
  // updates' modelled cycles have elapsed.
  net::Network net;
  auto r = std::make_unique<EmbeddedRouter>(
      "R", std::make_unique<sw::TrieEngine>(), RouterConfig{});
  const auto router_id = net.add_node(std::move(r));
  const auto sink_id = net.add_node(std::make_unique<SinkNode>("sink"));
  net.connect(router_id, sink_id, 1e9, 0.0);
  auto& router = net.node_as<EmbeddedRouter>(router_id);

  router.routing().program_swap(2, 40, 77, 0);
  for (int i = 0; i < 12; ++i) {
    auto p = labeled(40);
    p.id = static_cast<std::uint64_t>(i);
    net.inject(router_id, p);
  }
  net.run();

  const auto& stats = router.stats();
  EXPECT_EQ(stats.received, 12u);
  EXPECT_EQ(stats.forwarded, 12u);
  EXPECT_EQ(stats.engine_overruns, 0u);
  EXPECT_EQ(stats.engine_queue_peak, 11u);
  EXPECT_EQ(stats.engine_cycles, 12 * hw::update_swap_cycles(1));
  const auto& sink = net.node_as<SinkNode>(sink_id);
  EXPECT_EQ(sink.count, 12);
  EXPECT_EQ(sink.last.id, 11u);
  const rtl::ClockModel clock(rtl::ClockModel::kPaperFrequencyHz);
  EXPECT_GE(sink.arrival_time, clock.seconds(12 * hw::update_swap_cycles(1)));
}

// Lanes engage on real traffic: on the validated 8-node line (1 Gb/s,
// 100 us links, four CBR flows) each link has many packets on its wire
// at once, so most arrivals are filed behind their link's lane head
// instead of entering the event heap.  A link's arrival times never
// decrease, so none of them falls back to the heap.
TEST(Router, ValidatedLineFilesMostArrivalsBehindLaneHeads) {
  constexpr int kNodes = 8;
  net::Network net;
  net::ControlPlane cp(net);
  std::vector<net::NodeId> ids;
  for (int i = 0; i < kNodes; ++i) {
    RouterConfig cfg;
    ASSERT_TRUE(cfg.validate_wire) << "validation is the default";
    cfg.type = (i == 0 || i == kNodes - 1) ? hw::RouterType::kLer
                                           : hw::RouterType::kLsr;
    std::string name = "R";
    name += std::to_string(i);
    auto r = std::make_unique<EmbeddedRouter>(
        name, std::make_unique<sw::LinearEngine>(), cfg);
    auto* raw = r.get();
    ids.push_back(net.add_node(std::move(r)));
    cp.register_router(ids.back(), &raw->routing());
  }
  for (int i = 0; i + 1 < kNodes; ++i) {
    net.connect(ids[i], ids[i + 1], 1e9, 100e-6);
  }
  ASSERT_TRUE(cp.establish_lsp(ids, *mpls::Prefix::parse("10.1.0.0/16")));
  const auto dst = *mpls::Ipv4Address::parse("10.1.0.9");
  std::vector<std::unique_ptr<net::CbrSource>> sources;
  for (std::uint32_t flow = 1; flow <= 4; ++flow) {
    net::FlowSpec spec{flow, ids.front(), {}, dst,
                       static_cast<std::uint8_t>(flow), 64, 0.0, 0.02};
    sources.push_back(
        std::make_unique<net::CbrSource>(net, spec, nullptr, 20e-6));
    sources.back()->start();
  }
  net.run();

  std::uint64_t arrivals = 0;
  for (const net::NodeId id : ids) {
    for (const net::Network::Adjacency& adj : net.adjacency(id)) {
      arrivals += net.link_from(id, adj.port).stats().tx_packets;
    }
  }
  const net::EventQueue::Stats& q = net.events().stats();
  ASSERT_GT(net.delivered_count(), 3000u);
  EXPECT_EQ(arrivals, net.delivered_count() * (kNodes - 1));
  EXPECT_GT(q.lane_filed, arrivals * 9 / 10)
      << q.lane_filed << " of " << arrivals << " arrivals filed";
  EXPECT_EQ(q.lane_fallbacks, 0u);
}

}  // namespace
}  // namespace empls::core
