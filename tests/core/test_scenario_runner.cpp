// Integration tests for the scenario runner: text in, verified network
// behaviour out.
#include <gtest/gtest.h>

#include "core/scenario_runner.hpp"
#include "net/oam.hpp"

namespace empls::core {
namespace {

using Report = ScenarioRunner::Report;

Report run_ok(std::string_view text) {
  auto result = ScenarioRunner::run_text(text);
  if (const auto* err = std::get_if<net::ScenarioError>(&result)) {
    ADD_FAILURE() << "line " << err->line << ": " << err->message;
    return {};
  }
  return std::get<Report>(std::move(result));
}

TEST(ScenarioRunner, LinearLspDeliversCbr) {
  const auto report = run_ok(R"(
router A ler
router B lsr
router C ler
link A B 10M 1ms
link B C 10M 1ms
lsp 10.1.0.0/16 A B C
flow cbr 1 A 10.1.0.5 cos=5 interval=10ms stop=0.0999
run 0.2
)");
  EXPECT_EQ(report.lsps_established, 1u);
  EXPECT_EQ(report.flows.flow(1).sent, 10u);
  EXPECT_EQ(report.flows.flow(1).delivered, 10u);
  ASSERT_EQ(report.routers.size(), 3u);
  EXPECT_EQ(report.routers[2].delivered, 10u);
  EXPECT_GT(report.routers[1].engine_cycles, 0u);
}

TEST(ScenarioRunner, FailureEventCausesLoss) {
  const auto report = run_ok(R"(
router A ler
router B ler
link A B 10M 1ms
lsp 10.1.0.0/16 A B
flow cbr 1 A 10.1.0.5 interval=10ms stop=0.0999
fail 0.055 A B
run 0.2
)");
  // Packets at 0..50ms delivered (6), at 60..90ms dropped (4).
  EXPECT_EQ(report.flows.flow(1).sent, 10u);
  EXPECT_EQ(report.flows.flow(1).delivered, 6u);
}

TEST(ScenarioRunner, RestoreBringsTheLinkBack) {
  const auto report = run_ok(R"(
router A ler
router B ler
link A B 10M 1ms
lsp 10.1.0.0/16 A B
flow cbr 1 A 10.1.0.5 interval=10ms stop=0.0999
fail 0.015 A B
restore 0.045 A B
run 0.2
)");
  // Lost: packets at 20, 30, 40 ms.
  EXPECT_EQ(report.flows.flow(1).delivered, 7u);
}

TEST(ScenarioRunner, TunnelScenarioWorksEndToEnd) {
  const auto report = run_ok(R"(
router A ler
router B lsr
router X lsr
router C lsr
router D ler
link A B 10M 1ms
link B X 10M 1ms
link X C 10M 1ms
link C D 10M 1ms
tunnel T1 B X C
lsp-via-tunnel 10.3.0.0/16 pre A B tunnel T1 post C D
flow cbr 3 A 10.3.0.7 interval=20ms stop=0.0999
)");
  EXPECT_EQ(report.tunnels_established, 1u);
  EXPECT_EQ(report.lsps_established, 1u);
  EXPECT_EQ(report.flows.flow(3).delivered, 5u);
}

TEST(ScenarioRunner, HwEngineScenario) {
  const auto report = run_ok(R"(
router A ler engine=hw
router B ler engine=hw
link A B 10M 1ms
lsp 10.9.0.0/16 A B
flow cbr 1 A 10.9.0.1 interval=20ms stop=0.0599
)");
  EXPECT_EQ(report.flows.flow(1).delivered, 3u);
}

TEST(ScenarioRunner, TrieEngineScenarioDrainsABacklog) {
  // A fast flow into a slow-clocked trie LSR: arrivals outpace the
  // engine, a backlog forms, and the router drains it one packet at a
  // time.  Nothing may be lost and the transit hop must report modelled
  // cycles like any hardware-costed engine.
  const auto report = run_ok(R"(
router A ler
router B lsr engine=trie clock=1M
router C ler
link A B 1G 0.1ms
link B C 1G 0.1ms
lsp 10.4.0.0/16 A B C
flow cbr 1 A 10.4.0.9 interval=0.01ms stop=0.000999
run 0.1
)");
  EXPECT_EQ(report.lsps_established, 1u);
  EXPECT_EQ(report.flows.flow(1).sent, 100u);
  EXPECT_EQ(report.flows.flow(1).delivered, 100u);
  ASSERT_EQ(report.routers.size(), 3u);
  EXPECT_GT(report.routers[1].engine_cycles, 0u);
}

TEST(ScenarioRunner, AutorepairRestoresAfterFailure) {
  const auto report = run_ok(R"(
router A ler
router B lsr
router C lsr
router D ler
link A B 100M 1ms
link B D 100M 1ms
link B C 100M 2ms
link C D 100M 2ms
lsp 10.1.0.0/16 A B D
flow cbr 1 A 10.1.0.5 interval=10ms stop=0.9999
fail 0.3 B D
autorepair 10ms dead=3
run 1
)");
  EXPECT_EQ(report.failures_detected, 1u);
  EXPECT_EQ(report.lsps_rerouted, 1u);
  // ~30 ms detection at 100 pps: lose about 3-5 packets, not the whole
  // remaining 70.
  const auto& flow = report.flows.flow(1);
  const auto lost = flow.sent - flow.delivered;
  EXPECT_GE(lost, 2u);
  EXPECT_LE(lost, 6u);
}

TEST(ScenarioRunner, UnplaceableLspIsASemanticError) {
  const auto result = ScenarioRunner::run_text(R"(
router A ler
router B ler
link A B 1M 1ms
lsp 10.1.0.0/16 A B bw=5M
)");
  ASSERT_TRUE(std::holds_alternative<net::ScenarioError>(result));
  EXPECT_NE(std::get<net::ScenarioError>(result).message.find("lsp"),
            std::string::npos);
}

TEST(ScenarioRunner, OamDirectivesReportResults) {
  const auto report = run_ok(R"(
router A ler
router B lsr
router C ler
link A B 10M 1ms
link B C 10M 1ms
lsp 10.1.0.0/16 A B C
ping 0.1 A 10.1.0.5
traceroute 0.2 A 10.1.0.5
ping 0.3 A 172.16.0.1
run 0.5
)");
  ASSERT_EQ(report.oam_results.size(), 3u);
  EXPECT_NE(report.oam_results[0].find("reachable via C"),
            std::string::npos);
  EXPECT_NE(report.oam_results[1].find("(complete)"), std::string::npos);
  EXPECT_NE(report.oam_results[1].find("C[egress]"), std::string::npos);
  EXPECT_NE(report.oam_results[2].find("FAILED at A"), std::string::npos);
  EXPECT_NE(report.to_string().find("oam:"), std::string::npos);
  // Probes must not appear in the traffic statistics.
  for (const auto& [id, flow] : report.flows.flows()) {
    EXPECT_LT(id, net::kOamFlowBase) << "OAM probe leaked into FlowStats";
    (void)flow;
  }
}

TEST(ScenarioRunner, LinkRowsReportUtilization) {
  const auto report = run_ok(R"(
router A ler
router B ler
link A B 10M 1ms
lsp 10.1.0.0/16 A B
flow cbr 1 A 10.1.0.5 interval=10ms stop=0.0999
)");
  ASSERT_EQ(report.links.size(), 2u);  // both directions
  EXPECT_EQ(report.links[0].from, "A");
  EXPECT_EQ(report.links[0].tx_packets, 10u);
  EXPECT_GT(report.links[0].utilization, 0.0);
  EXPECT_EQ(report.links[1].tx_packets, 0u);
}

TEST(ScenarioRunner, PoliceDirectiveClipsTheFlow) {
  const auto report = run_ok(R"(
router A ler
router B ler
link A B 10M 1ms
lsp 10.1.0.0/16 A B
flow cbr 1 A 10.1.0.5 size=160 interval=10ms stop=0.9999
police A 1 70k burst=400
run 1
)");
  const auto delivered = report.flows.flow(1).delivered;
  EXPECT_GE(delivered, 40u);
  EXPECT_LE(delivered, 60u) << "policer clipped ~half the offered rate";
}

TEST(ScenarioRunner, ProtectSwitchesLocallyAndCorruptionsAreRepaired) {
  // Ring topology: B-D is the primary's middle link, B-C-D the detour.
  // The flap outlasts the dead interval, so without protection the LSP
  // would be torn down and re-signed; with `protect` the PLR flips to
  // the pre-installed detour and reverts when the link heals.
  const auto report = run_ok(R"(
router A ler
router B lsr
router C lsr
router D ler
link A B 100M 1ms
link B D 100M 1ms
link B C 100M 2ms
link C D 100M 2ms
lsp 10.1.0.0/16 A B D
flow cbr 1 A 10.1.0.5 interval=1ms stop=0.5999
autorepair 10ms dead=3
protect
flap 0.2 B D 100ms
corrupt 0.45 B salt=3 resync=20ms
run 0.7
)");
  EXPECT_GT(report.backups_installed, 0u);
  EXPECT_EQ(report.protection_switches, 1u);
  EXPECT_EQ(report.protection_reverts, 1u);
  EXPECT_EQ(report.lsps_rerouted, 0u)
      << "restoration must leave the locally-protected LSP alone";
  EXPECT_EQ(report.corruptions_injected, 1u);
  EXPECT_GE(report.resyncs_repaired, 1u);

  const auto text = report.to_string();
  EXPECT_NE(text.find("protection:"), std::string::npos);
  EXPECT_NE(text.find("faults:"), std::string::npos);
}

TEST(ScenarioRunner, ParseErrorsPropagate) {
  const auto result = ScenarioRunner::run_text("nonsense\n");
  ASSERT_TRUE(std::holds_alternative<net::ScenarioError>(result));
  EXPECT_EQ(std::get<net::ScenarioError>(result).line, 1);
}

TEST(ScenarioRunner, ReportRendersTables) {
  const auto report = run_ok(R"(
router A ler
router B ler
link A B 10M 1ms
lsp 10.1.0.0/16 A B
flow cbr 1 A 10.1.0.5 interval=20ms stop=0.0399
)");
  const auto text = report.to_string();
  EXPECT_NE(text.find("flow 1"), std::string::npos);
  EXPECT_NE(text.find("A: rx="), std::string::npos);
}

// ---------------------------------------------------------------------
// Timeline sampling, expect assertions and the downgrade matrix.

constexpr char kSampledBase[] = R"(
router A ler
router B ler
link A B 10M 1ms
lsp 10.1.0.0/16 A B
flow cbr 1 A 10.1.0.5 interval=10ms stop=0.0999
sample 20ms
run 0.2
)";

TEST(ScenarioRunner, TimelineSamplesAtTheDirectedCadence) {
  const auto report = run_ok(kSampledBase);
  // 0.2s run at a 20ms cadence: ticks at 0.02..0.2 inclusive.
  EXPECT_EQ(report.timeline_samples, 10u);
  EXPECT_GT(report.timeline_series, 5u);
  const auto text = report.to_string();
  EXPECT_NE(text.find("timeline: 10 samples"), std::string::npos);
}

TEST(ScenarioRunner, ExpectPassesOnTheGoldenScenario) {
  const auto report = run_ok(
      std::string(kSampledBase) +
      "expect empls_delivered_total == 10\n"
      "expect empls_drops_total{reason=\"policer\"} == 0\n");
  ASSERT_EQ(report.expects.size(), 2u);
  EXPECT_TRUE(report.expects[0].passed) << report.expects[0].detail;
  EXPECT_TRUE(report.expects[1].passed) << report.expects[1].detail;
  EXPECT_TRUE(report.expects_passed());
  const auto text = report.to_string();
  EXPECT_NE(text.find("slo:"), std::string::npos);
  EXPECT_NE(text.find("PASS expect empls_delivered_total == 10"),
            std::string::npos);
}

TEST(ScenarioRunner, FailedExpectCarriesTheObservedValue) {
  const auto report = run_ok(std::string(kSampledBase) +
                             "expect empls_delivered_total < 5\n");
  ASSERT_EQ(report.expects.size(), 1u);
  EXPECT_FALSE(report.expects[0].passed);
  EXPECT_NE(report.expects[0].detail.find("value=10"), std::string::npos);
  EXPECT_FALSE(report.expects_passed());
  EXPECT_NE(report.to_string().find("FAIL expect"), std::string::npos);
}

TEST(ScenarioRunner, UnknownMetricInExpectFailsWithDiagnostic) {
  const auto report = run_ok(std::string(kSampledBase) +
                             "expect empls_no_such_metric > 0\n");
  ASSERT_EQ(report.expects.size(), 1u);
  EXPECT_FALSE(report.expects[0].passed);
  EXPECT_NE(report.expects[0].detail.find("not found"), std::string::npos);
}

TEST(ScenarioRunner, WindowedExpectChecksPerIntervalDeltas) {
  // CBR at 10ms through a 20ms sampling cadence: every mid-run window
  // delivers exactly 2 packets (the timeline column is the delta).
  const auto report = run_ok(
      std::string(kSampledBase) +
      "expect empls_delivered_total <= 2 during 0s..0.2s\n"
      "expect empls_delivered_total == 2 during 0.04s..0.08s\n"
      "expect empls_delivered_total > 0 during 0.15s..0.2s\n");
  ASSERT_EQ(report.expects.size(), 3u);
  EXPECT_TRUE(report.expects[0].passed) << report.expects[0].detail;
  EXPECT_TRUE(report.expects[1].passed) << report.expects[1].detail;
  // The flow stopped at 0.1s: late windows deliver nothing, and the
  // violation names the exact sample.
  EXPECT_FALSE(report.expects[2].passed);
  EXPECT_NE(report.expects[2].detail.find("violated at t="),
            std::string::npos);
}

TEST(ScenarioRunner, SaturationKneeLocatedByWindowedQuantile) {
  // Open-loop overload of a 2M link: ~1700 pps of 160-byte packets
  // offered against ~1560 pps of service, a deep queue so nothing
  // drops — delay grows linearly, and the windowed p999 of the
  // load-generator latency crosses the 10ms SLO mid-run.  The early
  // window passes, the saturated window fails, and the violating
  // sample the report names IS the knee.
  const auto report = run_ok(R"(
qos fifo capacity=4096
router A ler
router B ler
link A B 2M 1ms
lsp 10.1.0.0/16 A B
loadgen poisson A 10.1.0.0 rate=1700 flows=64 seed=3 stop=0.4
sample 25ms
expect empls_loadgen_latency_ns.p999 < 1e7 during 0s..0.03s
expect empls_loadgen_latency_ns.p999 < 1e7 during 0s..0.4s
run 0.45
)");
  ASSERT_EQ(report.expects.size(), 2u);
  EXPECT_TRUE(report.expects[0].passed)
      << "pre-knee window: " << report.expects[0].detail;
  ASSERT_FALSE(report.expects[1].passed)
      << "the saturated run must cross the SLO";
  const auto& detail = report.expects[1].detail;
  const auto pos = detail.find("violated at t=");
  ASSERT_NE(pos, std::string::npos) << detail;
  const double knee = std::stod(detail.substr(pos + 14));
  EXPECT_GT(knee, 0.03) << "knee cannot predate the passing window";
  EXPECT_LE(knee, 0.4);
}

TEST(ScenarioRunner, SampleUnderFreeSyncDowngradesToDeterministic) {
  const auto report = run_ok(R"(
domains 2
sync free
router A ler
router B lsr
router C ler
link A B 10M 1ms
link B C 10M 1ms
lsp 10.1.0.0/16 A B C
flow cbr 1 A 10.1.0.5 interval=10ms stop=0.0999
sample 20ms
run 0.2
)");
  EXPECT_EQ(report.domains, 2u);
  EXPECT_EQ(report.sync_mode, "deterministic");
  EXPECT_NE(report.domain_note.find("timeline sampling"),
            std::string::npos);
  EXPECT_EQ(report.timeline_samples, 10u);
}

TEST(ScenarioRunner, TraceUnderFreeSyncForcesOneDomain) {
  const auto report = run_ok(R"(
domains 2
sync free
router A ler
router B lsr
router C ler
link A B 10M 1ms
link B C 10M 1ms
lsp 10.1.0.0/16 A B C
flow cbr 1 A 10.1.0.5 interval=10ms stop=0.0999
trace runner_dg_free.json
run 0.2
)");
  EXPECT_EQ(report.domains, 1u);
  EXPECT_FALSE(report.domain_traced);
  EXPECT_NE(report.domain_note.find("single domain forced"),
            std::string::npos);
}

TEST(ScenarioRunner, TraceUnderDeterministicSyncKeepsTheDomains) {
  const auto report = run_ok(R"(
domains 2
sync deterministic
router A ler
router B lsr
router C ler
link A B 10M 1ms
link B C 10M 1ms
lsp 10.1.0.0/16 A B C
flow cbr 1 A 10.1.0.5 interval=10ms stop=0.0999
trace runner_dg_det.json
run 0.2
)");
  EXPECT_EQ(report.domains, 2u);
  EXPECT_EQ(report.sync_mode, "deterministic");
  EXPECT_TRUE(report.domain_traced);
  EXPECT_EQ(report.domain_note.find("single domain forced"),
            std::string::npos)
      << report.domain_note;
  EXPECT_EQ(report.flows.flow(1).delivered, 10u);
  EXPECT_NE(report.to_string().find("trace=merged"), std::string::npos);
}

}  // namespace
}  // namespace empls::core
