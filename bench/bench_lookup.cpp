// Extension experiment X6: software lookup throughput, the trie FIB and
// the per-router flow cache.
//
// Part 1 — single-packet update throughput (host updates/sec) of linear
// and trie against the hash and CAM bench baselines
// (baseline_engines.hpp), sweeping information-base occupancy 64 → 1024
// entries per level.  Linear and trie charge identical modelled Table 6
// cycles on these paper-sized bases; the trie's win is purely how fast
// the host finds the binding — a table probe instead of a scan.
//
// Part 2 — the flow cache on the 8-node line scenario: the same
// traffic run with engine=trie cache=off and cache=1024, plus an
// engine=linear golden run.  Cached, uncached and golden books must be
// identical (delivery counts, per-router stats, modelled engine
// cycles, latency percentiles) while the cache serves >= 90% of probes
// at steady state.
//
// Part 3 — the million-entry FIB sweep: program the trie engine to 1M
// bindings (600k level-1 host routes + 200k each at levels 2/3; the
// full run adds a 10M case, 9.2M of it level 1 since the 20-bit label
// space caps levels 2/3 near 1M distinct keys) and measure install
// (reprogram) throughput, lookup throughput over the warm base, and
// bytes/entry from TrieEngine::memory_stats — the scaling claim as a
// measurement, not an assertion.
//
// Gates (Release builds only, like bench_fastpath):
//   * trie >= 2x linear updates/sec at 1024 entries/level, judged on the
//     median trie/linear ratio of 5 paired windows (which engine of the
//     pair runs first alternates round by round).
//   * trie <= 64 bytes/entry at the 1M-entry base.
// Always enforced (determinism, not speed):
//   * cache=1024 books bit-identical to cache=off and to linear;
//   * steady-state hit rate >= 90%.
//
// Results land in BENCH_lookup.json for CI artifacts; `--quick` trims
// the measurement windows for the smoke job.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "baseline_engines.hpp"
#include "bench_util.hpp"
#include "core/scenario_runner.hpp"
#include "sw/linear_engine.hpp"
#include "sw/trie_engine.hpp"

using namespace empls;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

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
  return std::make_unique<sw::LinearEngine>();
}

/// Single-packet update throughput at a given occupancy, one window:
/// level 2 holds `occupancy` swap bindings, packets carry a
/// pseudo-randomly drawn key (uniform over the store, so the average
/// linear scan is half of it), and the window runs until `min_wall`
/// seconds have elapsed.
double updates_per_sec(sw::LabelEngine& engine, std::size_t occupancy,
                       double min_wall) {
  engine.clear();
  for (std::size_t i = 0; i < occupancy; ++i) {
    engine.write_pair(2, mpls::LabelPair{static_cast<rtl::u32>(1000 + i),
                                         static_cast<rtl::u32>(2000 + i),
                                         mpls::LabelOp::kSwap});
  }
  mpls::Packet p;
  p.stack.push(mpls::LabelEntry{1000, 0, false, 64});

  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t sink = 0;  // keep the work observable
  std::uint64_t done = 0;
  const auto t0 = std::chrono::steady_clock::now();
  double elapsed = 0;
  do {
    for (int i = 0; i < 2000; ++i) {
      x ^= x >> 12;
      x ^= x << 25;
      x ^= x >> 27;
      const auto key = static_cast<rtl::u32>(
          1000 + (x * 0x2545F4914F6CDD1DULL >> 33) % occupancy);
      p.stack.rewrite_top(key, 64);
      const auto out = engine.update(p, 2, hw::RouterType::kLsr);
      sink += out.hw_cycles;
    }
    done += 2000;
    elapsed = seconds_since(t0);
  } while (elapsed < min_wall);
  if (sink == 0x51ab) {
    std::printf("~");  // never: defeats dead-code elimination
  }
  return static_cast<double>(done) / elapsed;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// The 8-node line scenario used by the flow-cache comparison.  All
/// routers share one engine kind and one cache setting; a single CBR
/// flow crosses the full line so every router sees the same steady
/// (level, key) stream.
std::string line_scenario(const std::string& engine,
                          const std::string& cache, double stop_s) {
  std::string s;
  for (int i = 0; i < 8; ++i) {
    s += "router R" + std::to_string(i) + (i == 0 || i == 7 ? " ler" : " lsr");
    s += " engine=" + engine;
    if (!cache.empty()) {
      s += " cache=" + cache;
    }
    s += "\n";
  }
  for (int i = 0; i + 1 < 8; ++i) {
    s += "link R" + std::to_string(i) + " R" + std::to_string(i + 1) +
         " 1G 100us\n";
  }
  s += "lsp 10.1.0.0/16 R0 R1 R2 R3 R4 R5 R6 R7\n";
  s += "flow cbr 1 R0 10.1.0.5 size=200 interval=100us start=0s stop=" +
       std::to_string(stop_s) + "\n";
  return s;
}

struct LineRun {
  core::ScenarioRunner::Report report;
  double wall_s = 0;
};

LineRun run_line(const std::string& engine, const std::string& cache,
                 double stop_s) {
  const auto t0 = std::chrono::steady_clock::now();
  auto result =
      core::ScenarioRunner::run_text(line_scenario(engine, cache, stop_s));
  LineRun run;
  run.wall_s = seconds_since(t0);
  if (std::holds_alternative<net::ScenarioError>(result)) {
    std::fprintf(stderr, "scenario failed: %s\n",
                 std::get<net::ScenarioError>(result).message.c_str());
    std::exit(2);
  }
  run.report = std::move(std::get<core::ScenarioRunner::Report>(result));
  return run;
}

/// Books two runs must agree on for "bit-identical outcomes": per-flow
/// delivery and exact latency distribution, plus per-router counters
/// including the modelled engine cycles.
bool same_books(const core::ScenarioRunner::Report& a,
                const core::ScenarioRunner::Report& b) {
  const auto& fa = a.flows.flow(1);
  const auto& fb = b.flows.flow(1);
  if (fa.sent != fb.sent || fa.delivered != fb.delivered ||
      fa.latency.mean() != fb.latency.mean() ||
      fa.latency.percentile(0.99) != fb.latency.percentile(0.99) ||
      fa.jitter != fb.jitter) {
    return false;
  }
  if (a.routers.size() != b.routers.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.routers.size(); ++i) {
    const auto& ra = a.routers[i];
    const auto& rb = b.routers[i];
    if (ra.received != rb.received || ra.forwarded != rb.forwarded ||
        ra.delivered != rb.delivered || ra.discarded != rb.discarded ||
        ra.engine_cycles != rb.engine_cycles) {
      return false;
    }
  }
  return true;
}

/// One million-sweep case: a trie base of `l1` host routes plus `l23`
/// bindings at each of levels 2 and 3, measuring install throughput
/// while programming, lookup throughput over the warm base, and the
/// slab bytes/entry the arena stats report.
struct MillionResult {
  std::size_t entries = 0;
  double installs_per_sec = 0;
  double lookups_per_sec = 0;
  double bytes_per_entry = 0;
};

MillionResult million_sweep(std::size_t l1, std::size_t l23,
                            double min_wall) {
  sw::TrieEngine engine(l1 + 2 * l23);
  engine.reserve(1, l1);
  engine.reserve(2, l23);
  engine.reserve(3, l23);

  // Bijective key generators (odd multipliers): distinct keys, no key
  // array to hold in memory next to the 10M-entry base being measured.
  const auto l1_key = [](std::size_t i) {
    return static_cast<rtl::u32>(i) * 2654435761u;
  };
  const auto l23_key = [](std::size_t i) {
    return (static_cast<rtl::u32>(i) * 40503u) & 0xFFFFFu;
  };

  MillionResult r;
  r.entries = l1 + 2 * l23;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < l1; ++i) {
    engine.write_pair(1, mpls::LabelPair{l1_key(i),
                                         static_cast<rtl::u32>(i & 0xFFFFF),
                                         mpls::LabelOp::kPush});
  }
  for (std::size_t i = 0; i < l23; ++i) {
    engine.write_pair(2, mpls::LabelPair{l23_key(i),
                                         static_cast<rtl::u32>(i & 0xFFFFF),
                                         mpls::LabelOp::kSwap});
    engine.write_pair(3, mpls::LabelPair{l23_key(i),
                                         static_cast<rtl::u32>(i & 0xFFFFF),
                                         mpls::LabelOp::kPop});
  }
  r.installs_per_sec = static_cast<double>(r.entries) / seconds_since(t0);
  const auto stats = engine.memory_stats();
  r.bytes_per_entry = stats.bytes_per_entry();

  // Lookup throughput: uniform over the whole base, levels drawn
  // proportionally to their share of it.
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t sink = 0;
  std::uint64_t done = 0;
  const auto t1 = std::chrono::steady_clock::now();
  double elapsed = 0;
  do {
    for (int i = 0; i < 2000; ++i) {
      x ^= x >> 12;
      x ^= x << 25;
      x ^= x >> 27;
      const auto draw = (x * 0x2545F4914F6CDD1DULL) >> 33;
      const std::size_t idx = draw % r.entries;
      std::optional<mpls::LabelPair> hit;
      if (idx < l1) {
        hit = engine.lookup(1, l1_key(idx));
      } else {
        const unsigned level = idx < l1 + l23 ? 2u : 3u;
        hit = engine.lookup(level, l23_key(idx % l23));
      }
      sink += hit ? hit->new_label : 0;
    }
    done += 2000;
    elapsed = seconds_since(t1);
  } while (elapsed < min_wall);
  r.lookups_per_sec = static_cast<double>(done) / elapsed;
  if (sink == 0x51ab) {
    std::printf("~");  // never: defeats dead-code elimination
  }
  return r;
}

std::string human(double v) {
  char buf[32];
  if (v >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.2fM", v / 1e6);
  } else if (v >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.1fk", v / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  }
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    }
  }

  std::printf("== lookup throughput + trie FIB + flow cache (X6)%s ==\n\n",
              quick ? " [quick]" : "");

  bench::BenchJson json("lookup");
  json.set("quick", quick);

  // Part 1: occupancy sweep.  Each engine runs kRounds windows per
  // occupancy, each on a freshly built and programmed engine, and the
  // table shows its median.  In every round the gated pair (linear,
  // trie) runs back to back, the one going first alternating round by
  // round, so a contention spike lands on both sides of a pair; "trie
  // vs linear" is the median of the per-round ratios.
  constexpr int kRounds = 5;
  const double min_wall = quick ? 0.02 : 0.2;
  const std::vector<std::size_t> occupancies{64, 256, 1024};
  const std::vector<std::string> engines{"linear", "hash", "cam", "trie"};
  constexpr std::size_t kLinear = 0;
  constexpr std::size_t kTrie = 3;
  const std::vector<std::vector<std::size_t>> round_orders{{0, 3, 1, 2},
                                                           {3, 0, 1, 2}};
  bench::Table sweep({"entries/level", "linear up/s", "hash up/s",
                      "cam up/s", "trie up/s", "trie B/entry",
                      "trie vs linear"});
  double ratio_1024 = 0;
  for (const auto occ : occupancies) {
    std::vector<std::vector<double>> windows(engines.size());
    std::vector<double> ratios;
    double trie_bpe = 0;
    for (int round = 0; round < kRounds; ++round) {
      for (const std::size_t e : round_orders[round % 2]) {
        auto engine = make_engine(engines[e]);
        windows[e].push_back(updates_per_sec(*engine, occ, min_wall));
        if (e == kTrie) {
          // Per-entry slab memory at this occupancy, from the arena
          // stats (updates_per_sec left the level programmed).
          trie_bpe = static_cast<sw::TrieEngine&>(*engine)
                         .memory_stats()
                         .bytes_per_entry();
        }
      }
      ratios.push_back(windows[kTrie].back() / windows[kLinear].back());
    }
    json.set("sweep." + std::to_string(occ) + ".trie_bytes_per_entry",
             trie_bpe);
    std::vector<double> rates;
    for (std::size_t e = 0; e < engines.size(); ++e) {
      rates.push_back(median(windows[e]));
      json.set("sweep." + std::to_string(occ) + "." + engines[e], rates[e]);
    }
    const double ratio = median(ratios);
    if (occ == 1024) {
      ratio_1024 = ratio;
    }
    char ratio_text[32];
    std::snprintf(ratio_text, sizeof ratio_text, "%.2fx", ratio);
    char bpe[32];
    std::snprintf(bpe, sizeof bpe, "%.1f", trie_bpe);
    sweep.add_row({std::to_string(occ), human(rates[0]), human(rates[1]),
                   human(rates[2]), human(rates[3]), bpe, ratio_text});
  }
  sweep.print();
  json.set("gate.trie_vs_linear_1024", ratio_1024);

  // Part 3: million-entry FIB sweep (quick: 1M; full: 1M + 10M).
  std::printf("\n");
  bench::Table million({"trie FIB", "entries", "installs/s", "lookups/s",
                        "bytes/entry"});
  std::vector<std::pair<std::size_t, std::size_t>> cases{{600000, 200000}};
  if (!quick) {
    cases.emplace_back(9200000, 400000);  // 10M: scale lives in level 1
  }
  double bpe_1m = 0;
  for (const auto& [l1, l23] : cases) {
    const auto r = million_sweep(l1, l23, min_wall);
    if (r.entries == 1000000) {
      bpe_1m = r.bytes_per_entry;
    }
    char bpe[32];
    std::snprintf(bpe, sizeof bpe, "%.1f", r.bytes_per_entry);
    million.add_row({human(static_cast<double>(l1)) + " l1 + 2x" +
                         human(static_cast<double>(l23)),
                     human(static_cast<double>(r.entries)),
                     human(r.installs_per_sec), human(r.lookups_per_sec),
                     bpe});
    const std::string prefix = "million." + std::to_string(r.entries);
    json.set(prefix + ".installs_per_sec", r.installs_per_sec);
    json.set(prefix + ".lookups_per_sec", r.lookups_per_sec);
    json.set(prefix + ".bytes_per_entry", r.bytes_per_entry);
  }
  million.print();

  // Part 2: flow cache on the 8-node line.
  const double stop_s = quick ? 0.1 : 0.5;
  const auto uncached = run_line("trie", "off", stop_s);
  const auto cached = run_line("trie", "1024", stop_s);
  const auto golden = run_line("linear", "off", stop_s);

  const auto& cache_rows = cached.report.routers;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t invalidations = 0;
  for (const auto& r : cache_rows) {
    hits += r.cache.hits;
    misses += r.cache.misses;
    invalidations += r.cache.invalidations;
  }
  const double hit_rate =
      hits + misses == 0
          ? 0.0
          : static_cast<double>(hits) / static_cast<double>(hits + misses);

  std::printf("\n");
  bench::Table line({"8-node line (trie)", "wall s", "delivered",
                     "engine cycles R1", "cache hit rate"});
  auto row = [&](const char* label, const LineRun& run, bool with_cache) {
    char rate[32] = "-";
    if (with_cache) {
      std::snprintf(rate, sizeof rate, "%.1f%%", hit_rate * 100.0);
    }
    line.add_row({label, std::to_string(run.wall_s),
                  std::to_string(run.report.flows.flow(1).delivered),
                  std::to_string(run.report.routers.at(1).engine_cycles),
                  rate});
  };
  row("cache=off", uncached, false);
  row("cache=1024", cached, true);
  row("linear golden", golden, false);
  line.print();

  json.set("cache.hit_rate", hit_rate);
  json.set("cache.hits", hits);
  json.set("cache.misses", misses);
  json.set("cache.invalidations", invalidations);
  json.set("cache.wall_s_off", uncached.wall_s);
  json.set("cache.wall_s_on", cached.wall_s);
  json.set("cache.delivered",
           cached.report.flows.flow(1).delivered);
  json.write();

  bench::Checks checks;
  checks.expect_true("cache=1024 books identical to cache=off",
                     same_books(cached.report, uncached.report));
  checks.expect_true("trie books identical to linear golden",
                     same_books(uncached.report, golden.report));
  checks.expect_true("steady-state hit rate >= 90%", hit_rate >= 0.90);
#ifdef NDEBUG
  char gate[96];
  std::snprintf(gate, sizeof gate,
                "trie >= 2x linear at 1024, median of %d paired windows "
                "(%.2fx)",
                kRounds, ratio_1024);
  checks.expect_true(gate, ratio_1024 >= 2.0);
  char mem_gate[64];
  std::snprintf(mem_gate, sizeof mem_gate,
                "trie <= 64 bytes/entry at 1M (%.1f)", bpe_1m);
  checks.expect_true(mem_gate, bpe_1m > 0 && bpe_1m <= 64.0);
#else
  std::printf("  [SKIP] 2x + bytes/entry gates (debug build; run Release "
              "to enforce)\n");
#endif
  return checks.exit_code();
}
