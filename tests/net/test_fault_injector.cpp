// Tests for the deterministic fault-injection harness: seeded campaigns,
// information-base corruption with audit-and-resync repair, and flow
// conservation (sent = delivered + accounted drops) under fire.
#include <gtest/gtest.h>

#include <memory>

#include "core/embedded_router.hpp"
#include "net/fault_injector.hpp"
#include "net/stats.hpp"
#include "net/traffic.hpp"
#include "sw/hw_engine.hpp"
#include "sw/linear_engine.hpp"

namespace empls::net {
namespace {

mpls::Prefix pfx(const char* t) { return *mpls::Prefix::parse(t); }

struct Rig {
  Network net;
  ControlPlane cp{net};
  FlowStats stats;

  NodeId add_router(const char* name, hw::RouterType type) {
    core::RouterConfig cfg;
    cfg.type = type;
    auto r = std::make_unique<core::EmbeddedRouter>(
        name, std::make_unique<sw::LinearEngine>(), cfg);
    auto* raw = r.get();
    const auto id = net.add_node(std::move(r));
    cp.register_router(id, &raw->routing());
    return id;
  }

  void deliver_into_stats() {
    net.set_delivery_handler([this](NodeId, const mpls::Packet& p) {
      stats.on_delivered(p, net.now());
    });
  }
};

TEST(FaultInjector, CorruptionDivergesHardwareAndResyncRepairsIt) {
  Rig rig;
  const auto a = rig.add_router("A", hw::RouterType::kLer);
  const auto b = rig.add_router("B", hw::RouterType::kLsr);
  const auto d = rig.add_router("D", hw::RouterType::kLer);
  rig.net.connect(a, b, 100e6, 1e-3);
  rig.net.connect(b, d, 100e6, 1e-3);
  rig.deliver_into_stats();
  const auto lsp = rig.cp.establish_lsp({a, b, d}, pfx("10.1.0.0/16"));
  ASSERT_TRUE(lsp.has_value());

  DropAccountant drops(rig.net);
  FlowSpec spec{1, a, mpls::Ipv4Address{1},
                *mpls::Ipv4Address::parse("10.1.0.5"), 6, 100, 0.0, 0.2999};
  CbrSource probe(rig.net, spec, &rig.stats, 1e-3);
  probe.start();

  FaultInjector injector(rig.net, rig.cp);
  // Garble B's transit binding at 100 ms; the audit runs 50 ms later.
  const auto index = injector.inject(FaultSpec{
      FaultKind::kCorrupt, 0.1, b, 0, /*duration=*/0.05, /*salt=*/7});
  rig.net.run();

  auto& routing = rig.net.node_as<core::EmbeddedRouter>(b).routing();
  const auto& rec = injector.records()[index];
  EXPECT_TRUE(rec.injected);
  EXPECT_TRUE(rec.corrupted);
  EXPECT_EQ(rec.resynced, 1u);
  EXPECT_EQ(routing.corruptions(), 1u);
  EXPECT_EQ(routing.resyncs(), 1u);

  // During the 50 ms divergence window B forwarded onto a label D never
  // bound: those packets died accountably, and delivery resumed after
  // the resync.
  const auto& flow = rig.stats.flow(1);
  EXPECT_GT(drops.drops(1), 0u);
  EXPECT_GE(flow.delivered, flow.sent - 55);
  EXPECT_EQ(flow.sent, flow.delivered + drops.drops(1));
}

TEST(FaultInjector, CorruptEntryWorksOnBothSoftwareAndRtlEngines) {
  const mpls::LabelPair pair{40, 50, mpls::LabelOp::kSwap};

  sw::LinearEngine linear;
  ASSERT_TRUE(linear.write_pair(2, pair));
  EXPECT_FALSE(linear.corrupt_entry(2, 99, 60));  // no such key
  ASSERT_TRUE(linear.corrupt_entry(2, 40, 60));
  auto hit = linear.lookup(2, 40);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->new_label, 60u);

  sw::HwEngine rtl;
  ASSERT_TRUE(rtl.write_pair(2, pair));
  EXPECT_FALSE(rtl.corrupt_entry(2, 99, 60));
  ASSERT_TRUE(rtl.corrupt_entry(2, 40, 60));
  hit = rtl.lookup(2, 40);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->new_label, 60u) << "the label BRAM itself must diverge";
}

TEST(FaultInjector, CampaignsAreDeterministicPerSeed) {
  Rig rig;
  const auto a = rig.add_router("A", hw::RouterType::kLer);
  const auto b = rig.add_router("B", hw::RouterType::kLsr);
  const auto c = rig.add_router("C", hw::RouterType::kLer);
  rig.net.connect(a, b, 100e6, 1e-3);
  rig.net.connect(b, c, 100e6, 1e-3);

  FaultInjector injector(rig.net, rig.cp);
  const auto one = injector.generate_campaign(1234, 40, 0.1, 1.0);
  const auto two = injector.generate_campaign(1234, 40, 0.1, 1.0);
  const auto other = injector.generate_campaign(99, 40, 0.1, 1.0);
  ASSERT_EQ(one.size(), two.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].kind, two[i].kind);
    EXPECT_DOUBLE_EQ(one[i].at, two[i].at);
    EXPECT_EQ(one[i].a, two[i].a);
    EXPECT_EQ(one[i].b, two[i].b);
    EXPECT_DOUBLE_EQ(one[i].duration, two[i].duration);
    EXPECT_EQ(one[i].salt, two[i].salt);
  }
  // A different seed produces a different campaign.
  bool differs = other.size() != one.size();
  for (std::size_t i = 0; !differs && i < one.size(); ++i) {
    differs = one[i].at != other[i].at || one[i].kind != other[i].kind;
  }
  EXPECT_TRUE(differs);

  // Every fault lands inside the requested window, flaps stay under the
  // detection window, and outages outlast it.
  for (const auto& spec : one) {
    EXPECT_GE(spec.at, 0.1);
    EXPECT_LT(spec.at, 1.0);
    if (spec.kind == FaultKind::kFlap) {
      EXPECT_LT(spec.duration, 30e-3);
    } else if (spec.kind != FaultKind::kCorrupt) {
      EXPECT_GE(spec.duration, 60e-3);
    }
  }
}

// The >= 50-fault acceptance stress lives in test_fault_campaigns.cpp
// (ctest label `slow`), where it runs against both the golden engine
// and the trie FIB.

}  // namespace
}  // namespace empls::net
