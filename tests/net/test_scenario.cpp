// Unit tests for the scenario parser: directive coverage, unit
// suffixes, and error reporting with line numbers.
#include <gtest/gtest.h>

#include <string>

#include "net/scenario.hpp"

namespace empls::net {
namespace {

Scenario parse_ok(std::string_view text) {
  auto result = Scenario::parse(text);
  if (const auto* err = std::get_if<ScenarioError>(&result)) {
    ADD_FAILURE() << "line " << err->line << ": " << err->message;
    return {};
  }
  return std::get<Scenario>(std::move(result));
}

ScenarioError parse_err(std::string_view text) {
  auto result = Scenario::parse(text);
  if (!std::holds_alternative<ScenarioError>(result)) {
    ADD_FAILURE() << "expected a parse error";
    return {};
  }
  return std::get<ScenarioError>(result);
}

TEST(ScenarioUnits, Bandwidth) {
  EXPECT_DOUBLE_EQ(*parse_bandwidth("100M"), 100e6);
  EXPECT_DOUBLE_EQ(*parse_bandwidth("2.5G"), 2.5e9);
  EXPECT_DOUBLE_EQ(*parse_bandwidth("64k"), 64e3);
  EXPECT_DOUBLE_EQ(*parse_bandwidth("1200"), 1200.0);
  EXPECT_FALSE(parse_bandwidth("fast"));
  EXPECT_FALSE(parse_bandwidth(""));
  EXPECT_FALSE(parse_bandwidth("-3M"));
}

TEST(ScenarioUnits, Time) {
  EXPECT_DOUBLE_EQ(*parse_time("20ms"), 0.020);
  EXPECT_DOUBLE_EQ(*parse_time("50us"), 50e-6);
  EXPECT_DOUBLE_EQ(*parse_time("3ns"), 3e-9);
  EXPECT_DOUBLE_EQ(*parse_time("1s"), 1.0);
  EXPECT_DOUBLE_EQ(*parse_time("0.5"), 0.5);
  EXPECT_FALSE(parse_time("soon"));
  EXPECT_FALSE(parse_time("-1ms"));
}

TEST(ScenarioParse, FullFeaturedScenario) {
  const auto s = parse_ok(R"(
# a comment
qos wrr capacity=16 red
router A ler engine=hw clock=25M
router B lsr
router C lsr
router D ler
link A B 10M 1ms
link B C 10M 1ms
link C D 10M 1ms
lsp 10.1.0.0/16 A B C D bw=2M php
lsp-cspf 10.2.0.0/16 A D
tunnel T1 B C D
lsp-via-tunnel 10.3.0.0/16 pre A B tunnel T1 post D bw=1M
flow cbr 1 A 10.1.0.5 cos=6 size=160 interval=20ms start=0.1s stop=0.9s
flow poisson 2 A 10.2.0.5 rate=500 seed=7
flow video 3 A 10.3.0.5 fps=25 ppf=4
flow onoff 4 A 10.1.0.6 rate=200 on=40ms off=60ms
fail 0.3 B C
restore 0.5 B C
run 1s
)");
  EXPECT_EQ(s.qos.scheduler, SchedulerKind::kWeightedRoundRobin);
  EXPECT_EQ(s.qos.drop, DropPolicy::kRed);
  EXPECT_EQ(s.qos.queue_capacity, 16u);
  ASSERT_EQ(s.routers.size(), 4u);
  EXPECT_TRUE(s.routers[0].is_ler);
  EXPECT_EQ(s.routers[0].engine, EngineKind::kHw);
  EXPECT_DOUBLE_EQ(s.routers[0].clock_hz, 25e6);
  EXPECT_EQ(s.links.size(), 3u);
  ASSERT_EQ(s.lsps.size(), 2u);
  EXPECT_TRUE(s.lsps[0].php);
  EXPECT_DOUBLE_EQ(s.lsps[0].bw, 2e6);
  EXPECT_TRUE(s.lsps[1].cspf);
  ASSERT_EQ(s.tunnels.size(), 1u);
  EXPECT_EQ(s.tunnels[0].path.size(), 3u);
  ASSERT_EQ(s.tunnel_lsps.size(), 1u);
  EXPECT_EQ(s.tunnel_lsps[0].pre, (std::vector<std::string>{"A", "B"}));
  EXPECT_EQ(s.tunnel_lsps[0].tunnel, "T1");
  ASSERT_EQ(s.flows.size(), 4u);
  EXPECT_EQ(s.flows[0].kind, "cbr");
  EXPECT_DOUBLE_EQ(s.flows[0].start, 0.1);
  EXPECT_EQ(s.flows[3].kind, "onoff");
  ASSERT_EQ(s.link_events.size(), 2u);
  EXPECT_FALSE(s.link_events[0].up);
  EXPECT_TRUE(s.link_events[1].up);
  ASSERT_TRUE(s.run_duration.has_value());
  EXPECT_DOUBLE_EQ(*s.run_duration, 1.0);
}

TEST(ScenarioParse, EngineKindsAcceptedAndRejected) {
  // Every name in the shared engine-kind list parses to its own kind.
  std::string text;
  for (std::size_t i = 0; i < kEngineKindNames.size(); ++i) {
    text += "router R" + std::to_string(i) + " lsr engine=" +
            std::string(kEngineKindNames[i]) + "\n";
  }
  const auto s = parse_ok(text);
  ASSERT_EQ(s.routers.size(), kEngineKindNames.size());
  for (std::size_t i = 0; i < kEngineKindNames.size(); ++i) {
    EXPECT_EQ(s.routers[i].engine, static_cast<EngineKind>(i));
  }
  EXPECT_EQ(parse_ok("router A ler\n").routers[0].engine,
            EngineKind::kLinear);

  // Unknown kinds — including the retired simd and sharded engines —
  // and the retired batch= option are line-numbered diagnostics.
  for (const char* engine :
       {"patricia", "simd", "sharded:4", "sharded:4:trie", "sharded:8"}) {
    const auto err = parse_err(
        std::string("router A ler\nrouter B lsr engine=") + engine + "\n");
    EXPECT_EQ(err.line, 2) << engine;
    EXPECT_NE(err.message.find("unknown engine"), std::string::npos)
        << engine;
  }
  const auto batch = parse_err("router A ler\nrouter B lsr batch=8\n");
  EXPECT_EQ(batch.line, 2);
  EXPECT_NE(batch.message.find("unknown router option: batch"),
            std::string::npos);
}

TEST(ScenarioParse, ErrorsCarryLineNumbers) {
  const auto err = parse_err("router A ler\nrouter B lsr\nlink A Z 10M 1ms\n");
  EXPECT_EQ(err.line, 3);
  EXPECT_NE(err.message.find("undeclared"), std::string::npos);
}

TEST(ScenarioParse, RejectsUnknownDirective) {
  EXPECT_EQ(parse_err("teleport A B\n").line, 1);
}

TEST(ScenarioParse, RejectsDuplicateRouter) {
  const auto err = parse_err("router A ler\nrouter A lsr\n");
  EXPECT_EQ(err.line, 2);
}

TEST(ScenarioParse, RejectsBadValues) {
  EXPECT_NE(parse_err("router A ler\nrouter B ler\nlink A B fast 1ms\n")
                .message.find("bandwidth"),
            std::string::npos);
  EXPECT_NE(parse_err("router A ler\nflow cbr x A 10.0.0.1\n")
                .message.find("flow id"),
            std::string::npos);
  EXPECT_NE(parse_err("router A ler\nflow cbr 1 A not-an-ip\n")
                .message.find("destination"),
            std::string::npos);
  EXPECT_NE(parse_err("router A ler\nflow cbr 1 A 10.0.0.1 cos=9\n")
                .message.find("cos"),
            std::string::npos);
  EXPECT_NE(parse_err("lsp 10.0.0.0/99 A B\n").message.find("prefix"),
            std::string::npos);
}

TEST(ScenarioParse, RejectsShortDeclarations) {
  EXPECT_EQ(parse_err("router A\n").line, 1);
  EXPECT_EQ(parse_err("router A ler\nlink A\n").line, 2);
  EXPECT_EQ(parse_err("router A ler\nrouter B ler\nlsp 10.0.0.0/8 A\n").line,
            3);
  EXPECT_EQ(parse_err("run\n").line, 1);
}

TEST(ScenarioParse, CspfTakesExactlyTwoNodes) {
  const auto err = parse_err(
      "router A ler\nrouter B lsr\nrouter C ler\n"
      "link A B 1M 1ms\nlink B C 1M 1ms\n"
      "lsp-cspf 10.0.0.0/8 A B C\n");
  EXPECT_EQ(err.line, 6);
}

TEST(ScenarioParse, OamPolicerAutorepairDirectives) {
  const auto s = parse_ok(R"(
router A ler
router B ler
link A B 10M 1ms
police A 7 2M burst=3000 demote
ping 0.1 A 10.0.0.1
traceroute 0.2s A 10.0.0.2
autorepair 20ms dead=5
)");
  ASSERT_EQ(s.policers.size(), 1u);
  EXPECT_EQ(s.policers[0].ingress, "A");
  EXPECT_EQ(s.policers[0].flow_id, 7u);
  EXPECT_DOUBLE_EQ(s.policers[0].rate_bps, 2e6);
  EXPECT_DOUBLE_EQ(s.policers[0].burst_bytes, 3000);
  EXPECT_TRUE(s.policers[0].demote);
  ASSERT_EQ(s.oam_probes.size(), 2u);
  EXPECT_FALSE(s.oam_probes[0].traceroute);
  EXPECT_TRUE(s.oam_probes[1].traceroute);
  EXPECT_DOUBLE_EQ(s.oam_probes[1].at, 0.2);
  ASSERT_TRUE(s.autorepair_hello.has_value());
  EXPECT_DOUBLE_EQ(*s.autorepair_hello, 0.020);
  EXPECT_EQ(s.autorepair_dead, 5u);
}

TEST(ScenarioParse, OamPolicerErrors) {
  EXPECT_EQ(parse_err("router A ler\nping 0.1 Z 10.0.0.1\n").line, 2);
  EXPECT_EQ(parse_err("router A ler\nping 0.1 A not-an-ip\n").line, 2);
  EXPECT_EQ(parse_err("router A ler\npolice A x 1M\n").line, 2);
  EXPECT_EQ(parse_err("router A ler\npolice A 1 fast\n").line, 2);
  EXPECT_EQ(parse_err("autorepair soon\n").line, 1);
}

TEST(ScenarioParse, FaultAndProtectionDirectives) {
  const auto s = parse_ok(R"(
router A ler
router B lsr
router C ler
link A B 10M 1ms
link B C 10M 1ms
protect bw=500k
flap 0.1 A B 15ms
crash 0.2s B for=100ms
crash 0.4 B
corrupt 0.3 B salt=7 resync=20ms
corrupt 0.5s B
)");
  EXPECT_TRUE(s.protect);
  EXPECT_DOUBLE_EQ(s.protect_bw, 500e3);

  ASSERT_EQ(s.flaps.size(), 1u);
  EXPECT_DOUBLE_EQ(s.flaps[0].at, 0.1);
  EXPECT_EQ(s.flaps[0].a, "A");
  EXPECT_EQ(s.flaps[0].b, "B");
  EXPECT_DOUBLE_EQ(s.flaps[0].down_for, 0.015);

  ASSERT_EQ(s.crashes.size(), 2u);
  EXPECT_DOUBLE_EQ(s.crashes[0].at, 0.2);
  EXPECT_EQ(s.crashes[0].node, "B");
  EXPECT_DOUBLE_EQ(s.crashes[0].duration, 0.1);
  EXPECT_DOUBLE_EQ(s.crashes[1].duration, 0.0) << "no for= means stays dead";

  ASSERT_EQ(s.corruptions.size(), 2u);
  EXPECT_DOUBLE_EQ(s.corruptions[0].at, 0.3);
  EXPECT_EQ(s.corruptions[0].node, "B");
  EXPECT_EQ(s.corruptions[0].salt, 7u);
  EXPECT_DOUBLE_EQ(s.corruptions[0].resync, 0.020);
  EXPECT_EQ(s.corruptions[1].salt, 0u);
  EXPECT_DOUBLE_EQ(s.corruptions[1].resync, 0.0) << "no resync= means never";
}

TEST(ScenarioParse, BareProtectDefaultsToZeroBandwidth) {
  const auto s = parse_ok("router A ler\nprotect\n");
  EXPECT_TRUE(s.protect);
  EXPECT_DOUBLE_EQ(s.protect_bw, 0.0);
}

TEST(ScenarioParse, FaultDirectiveErrors) {
  const char* topo = "router A ler\nrouter B ler\nlink A B 10M 1ms\n";
  const auto with = [&](const char* line) {
    return parse_err(std::string(topo) + line);
  };
  // flap wants exactly <time> <a> <b> <down-for> with a positive outage.
  EXPECT_EQ(with("flap 0.1 A B\n").line, 4);
  EXPECT_EQ(with("flap 0.1 A B 0ms\n").line, 4);
  EXPECT_EQ(with("flap 0.1 A Z 10ms\n").line, 4);
  EXPECT_EQ(with("flap soon A B 10ms\n").line, 4);
  // crash/corrupt want a known node and parsable options.
  EXPECT_EQ(with("crash 0.1 Z\n").line, 4);
  EXPECT_EQ(with("crash 0.1 B for=soon\n").line, 4);
  EXPECT_EQ(with("corrupt 0.1 Z\n").line, 4);
  EXPECT_EQ(with("corrupt 0.1 B salt=x\n").line, 4);
  EXPECT_EQ(with("corrupt 0.1 B resync=soon\n").line, 4);
  // protect takes only the bw option.
  EXPECT_EQ(with("protect bw=fast\n").line, 4);
}

TEST(ScenarioParse, TrailingCommentsIgnored) {
  const auto s = parse_ok("router A ler # the ingress\n");
  ASSERT_EQ(s.routers.size(), 1u);
}

TEST(ScenarioParse, TelemetryDirectives) {
  const auto s = parse_ok(
      "router A ler\n"
      "sample 50ms\n"
      "timeline out.csv\n"
      "profile\n"
      "run 1\n");
  ASSERT_TRUE(s.sample_interval.has_value());
  EXPECT_DOUBLE_EQ(*s.sample_interval, 0.05);
  EXPECT_EQ(s.timeline_path, "out.csv");
  EXPECT_TRUE(s.profile);
}

TEST(ScenarioParse, TelemetryDirectivesEqualsSpellingAndOff) {
  const auto s = parse_ok(
      "router A ler\n"
      "sample=0.1s\n"
      "timeline=off\n"
      "profile off\n"
      "run 1\n");
  ASSERT_TRUE(s.sample_interval.has_value());
  EXPECT_DOUBLE_EQ(*s.sample_interval, 0.1);
  EXPECT_TRUE(s.timeline_path.empty());
  EXPECT_FALSE(s.profile);
}

TEST(ScenarioParse, ExpectDirectives) {
  const auto s = parse_ok(
      "router A ler\n"
      "sample 100ms\n"
      "expect empls_delivered_total > 100\n"
      "expect empls_loadgen_latency_ns.p999 <= 2e6 during 0.2s..0.8s\n"
      "expect empls_drops_total{reason=\"policer\"} == 0\n"
      "run 1\n");
  ASSERT_EQ(s.expects.size(), 3u);

  EXPECT_EQ(s.expects[0].metric, "empls_delivered_total");
  EXPECT_EQ(s.expects[0].op, ExpectDecl::Op::kGt);
  EXPECT_DOUBLE_EQ(s.expects[0].value, 100.0);
  EXPECT_FALSE(s.expects[0].windowed);
  EXPECT_EQ(s.expects[0].line, 3);

  EXPECT_EQ(s.expects[1].metric, "empls_loadgen_latency_ns.p999");
  EXPECT_EQ(s.expects[1].op, ExpectDecl::Op::kLe);
  EXPECT_TRUE(s.expects[1].windowed);
  EXPECT_DOUBLE_EQ(s.expects[1].t0, 0.2);
  EXPECT_DOUBLE_EQ(s.expects[1].t1, 0.8);

  // A braced label body survives tokenisation as one token.
  EXPECT_EQ(s.expects[2].metric, "empls_drops_total{reason=\"policer\"}");
  EXPECT_EQ(s.expects[2].op, ExpectDecl::Op::kEq);
}

TEST(ScenarioParse, TelemetryDirectiveErrors) {
  // sample needs a positive interval and a run duration.
  EXPECT_GT(parse_err("router A ler\nsample 0\nrun 1\n").line, 0);
  EXPECT_EQ(parse_err("router A ler\nsample 10ms\n").message,
            "sample requires a run duration");
  EXPECT_EQ(parse_err("router A ler\nsample 10ms\n").line, 2);
  // timeline output is meaningless without sampling.
  EXPECT_EQ(parse_err("router A ler\ntimeline x.csv\nrun 1\n").message,
            "timeline output requires a sample interval");
  EXPECT_EQ(parse_err("router A ler\ntimeline x.csv\nrun 1\n").line, 2);
  // expect wants <metric> <op> <value>, a known operator, and a sane
  // window.
  EXPECT_EQ(parse_err("router A ler\nexpect empls_x >\nrun 1\n").line, 2);
  EXPECT_EQ(parse_err("router A ler\nexpect empls_x ~ 3\nrun 1\n").line, 2);
  EXPECT_EQ(
      parse_err("router A ler\nexpect empls_x < umpteen\nrun 1\n").line, 2);
  EXPECT_EQ(parse_err("router A ler\nsample 10ms\n"
                      "expect empls_x < 1 during 0.5s..0.2s\nrun 1\n")
                .line,
            3);
  // A windowed expect without a sample cadence has nothing to check.
  const auto err = parse_err(
      "router A ler\nexpect empls_x < 1 during 0s..1s\nrun 1\n");
  EXPECT_EQ(err.line, 2);
  EXPECT_NE(err.message.find("sample interval"), std::string::npos);
}

TEST(ScenarioParse, ExpectOperatorSpellings) {
  const auto s = parse_ok(
      "router A ler\n"
      "expect m1 < 1\nexpect m2 <= 1\nexpect m3 > 1\n"
      "expect m4 >= 1\nexpect m5 == 1\nexpect m6 != 1\n"
      "run 1\n");
  ASSERT_EQ(s.expects.size(), 6u);
  EXPECT_EQ(s.expects[0].op, ExpectDecl::Op::kLt);
  EXPECT_EQ(s.expects[1].op, ExpectDecl::Op::kLe);
  EXPECT_EQ(s.expects[2].op, ExpectDecl::Op::kGt);
  EXPECT_EQ(s.expects[3].op, ExpectDecl::Op::kGe);
  EXPECT_EQ(s.expects[4].op, ExpectDecl::Op::kEq);
  EXPECT_EQ(s.expects[5].op, ExpectDecl::Op::kNe);
}

}  // namespace
}  // namespace empls::net
