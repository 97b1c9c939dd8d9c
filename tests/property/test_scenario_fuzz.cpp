// Robustness property: the scenario parser never crashes and never
// accepts garbage silently — every input either parses cleanly or
// yields a ScenarioError with a valid line number.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "net/scenario.hpp"

namespace empls::net {
namespace {

class ScenarioFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(ScenarioFuzz, RandomBytesNeverCrash) {
  std::mt19937 rng(GetParam());
  const std::string charset =
      "abcdefghijklmnopqrstuvwxyz0123456789 .=/#-\n\t";
  for (int trial = 0; trial < 300; ++trial) {
    std::string text;
    const auto len = rng() % 200;
    for (std::size_t i = 0; i < len; ++i) {
      text += charset[rng() % charset.size()];
    }
    const auto result = Scenario::parse(text);
    if (const auto* err = std::get_if<ScenarioError>(&result)) {
      EXPECT_GE(err->line, 1);
      EXPECT_FALSE(err->message.empty());
    }
  }
}

TEST_P(ScenarioFuzz, MutatedValidScenariosNeverCrash) {
  // Exercises every directive family: the fault-injection verbs
  // (protect / flap / crash / corrupt) and the engine and cache options
  // mutate just like the originals.
  const std::string base = R"(
qos strict capacity=16
domains 2
sync deterministic
router A ler engine=hw
router B lsr engine=trie cache=64
router C ler
link A B 10M 1ms
link B C 10M 1ms
lsp 10.1.0.0/16 A B C bw=1M
protect bw=1M
flow cbr 1 A 10.1.0.5 cos=5 interval=10ms stop=0.5
fail 0.2 A B
flap 0.25 B C 30ms
crash 0.3 B for=50ms
corrupt 0.35 B salt=9 resync=20ms
guard * ttl=500 reprogram=100 demote=0.4 shed=0.8
loadgen mmpp A 10.1.0.0 rate=5k flows=256 alpha=1.5 stop=0.5
attack spoof 0.1 A rate=2k for=100ms seed=3
attack=exhaust 0.2 A dst=10.1.0.1
sample 50ms
timeline out.csv
profile on
expect empls_delivered_total > 0
expect empls_loadgen_latency_ns.p999 <= 2e6 during 0.2s..0.8s
expect empls_drops_total{reason="policer"} == 0
run 1
)";
  std::mt19937 rng(GetParam() * 7919);
  for (int trial = 0; trial < 300; ++trial) {
    std::string text = base;
    // Random single-character mutations.
    const auto mutations = 1 + rng() % 6;
    for (unsigned m = 0; m < mutations; ++m) {
      const auto pos = rng() % text.size();
      switch (rng() % 3) {
        case 0:
          text[pos] = static_cast<char>('!' + rng() % 90);
          break;
        case 1:
          text.erase(pos, 1);
          break;
        case 2:
          text.insert(pos, 1, static_cast<char>('!' + rng() % 90));
          break;
      }
    }
    const auto result = Scenario::parse(text);
    if (const auto* err = std::get_if<ScenarioError>(&result)) {
      EXPECT_GE(err->line, 1);
    } else {
      // Accepted: the structure must at least be self-consistent.
      const auto& s = std::get<Scenario>(result);
      for (const auto& link : s.links) {
        EXPECT_TRUE(s.has_router(link.a));
        EXPECT_TRUE(s.has_router(link.b));
      }
      for (const auto& lsp : s.lsps) {
        EXPECT_GE(lsp.path.size(), 2u);
      }
    }
  }
}

TEST_P(ScenarioFuzz, DirectiveSoupNeverCrashes) {
  // Random programs assembled from plausible directive fragments — far
  // likelier than byte noise to reach deep parser paths (option maps,
  // engine kinds, fault parameters) with wrong arity, wrong types and
  // out-of-range values.  Retired spellings (engine=simd, sharded:<N>,
  // the bench-only hash and cam baselines, batch=K) stay in the soup:
  // they must end in a diagnostic.
  const std::vector<std::string> verbs = {
      "qos",     "router", "link",    "lsp",      "lsp-cspf", "tunnel",
      "flow",    "fail",   "restore", "flap",     "crash",    "corrupt",
      "protect", "police", "ping",    "traceroute", "autorepair", "run",
      "loadgen", "attack", "attack=spoof", "attack=exhaust",
      "attack=melt", "guard", "domains", "sync", "domains=4", "sync=free",
      "sample",  "sample=100ms", "timeline", "timeline=off", "profile",
      "expect"};
  const std::vector<std::string> words = {
      "A",        "B",          "C",       "ler",        "lsr",
      "strict",   "cbr",        "10M",     "1ms",        "0.2",
      "7",        "10.1.0.0/16", "10.1.0.5", "engine=hw", "engine=trie",
      "engine=simd", "engine=sharded:4", "engine=hash", "engine=cam",
      "engine=",  "cache=64",
      "cache=0",  "cache=off",  "batch=8", "cos=5",      "bw=1M",
      "for=50ms", "salt=9",     "resync=20ms", "down-for", "seed=1",
      "=",        "sharded:",   "1e99",    "-3",
      "auto",     "deterministic", "free", "0",  "257",     "2.5",
      "poisson",  "mmpp",       "spoof",   "ttl_flood",  "reserved",
      "exhaust",  "*",          "rate=5k", "rate=0",     "burst-rate=20k",
      "flows=256", "flows=0",   "alpha=1.5", "alpha=-1", "minpkts=4",
      "sojourn=50ms", "ttl=500", "reprogram=100", "demote=0.4",
      "shed=2",   "maxcos=9",   "reserved=on", "spoof=off", "dst=10.1.0.1",
      "empls_delivered_total", "empls_lat.p999", "<=", ">", "==", "!=",
      "during",   "0.2s..0.8s", "0.8s..0.2s", "during=x", "..",
      "1e6",      "off",        "on",      "out.csv",
      R"(empls_drops_total{reason="ttl"})"};
  std::mt19937 rng(GetParam() * 104729);
  for (int trial = 0; trial < 300; ++trial) {
    std::string text;
    const auto lines = 1 + rng() % 12;
    for (unsigned l = 0; l < lines; ++l) {
      text += verbs[rng() % verbs.size()];
      const auto argc = rng() % 6;
      for (unsigned a = 0; a < argc; ++a) {
        text += ' ';
        text += words[rng() % words.size()];
      }
      text += '\n';
    }
    const auto result = Scenario::parse(text);
    if (const auto* err = std::get_if<ScenarioError>(&result)) {
      EXPECT_GE(err->line, 1);
      EXPECT_FALSE(err->message.empty());
    } else {
      // Accepted: every router names a known engine kind and a sane
      // cache size (the parser's contract with the runner, which sizes
      // the flow cache straight from it).
      const auto& s = std::get<Scenario>(result);
      for (const auto& r : s.routers) {
        EXPECT_LT(static_cast<std::size_t>(r.engine), kEngineKindNames.size());
        EXPECT_LE(r.cache, 1048576u);
      }
      // Same contract for the overload directives: the runner sizes
      // flat arrays and token buckets straight from these fields.
      for (const auto& g : s.loadgens) {
        EXPECT_GE(g.flows, 1u);
        EXPECT_LE(g.flows, 1u << 24);
        EXPECT_GT(g.alpha, 0.0);
        EXPECT_GT(g.rate_pps, 0.0);
      }
      for (const auto& a : s.attacks) {
        EXPECT_GT(a.rate_pps, 0.0);
        EXPECT_GT(a.duration, 0.0);
      }
      for (const auto& g : s.guards) {
        EXPECT_TRUE(g.config.enabled);
        EXPECT_LE(g.config.demote_occupancy, 1.0);
        EXPECT_LE(g.config.shed_occupancy, 1.0);
        EXPECT_LE(g.config.demote_cos_max, 7);
      }
      // Partitioning contract: the runner hands `domains` to
      // Network::partition unchecked, so an accepted value is either
      // the auto sentinel (0) or inside the validated [1, 256] range.
      EXPECT_LE(s.domains, 256u);
      // Telemetry contract: the runner schedules sample ticks at the
      // parsed cadence and replays windowed expects against timeline
      // rows, so an accepted scenario must have a positive interval
      // behind any timeline output or windowed assertion, and every
      // window must be well-ordered.
      if (s.sample_interval) {
        EXPECT_GT(*s.sample_interval, 0.0);
      }
      if (!s.timeline_path.empty()) {
        EXPECT_TRUE(s.sample_interval.has_value());
      }
      for (const auto& e : s.expects) {
        EXPECT_FALSE(e.metric.empty());
        EXPECT_GE(e.line, 1);
        if (e.windowed) {
          EXPECT_LE(e.t0, e.t1);
          EXPECT_TRUE(s.sample_interval.has_value());
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScenarioFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace empls::net
