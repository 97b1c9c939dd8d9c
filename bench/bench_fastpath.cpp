// Extension experiment X5: the simulator's own fast path.
//
// Three measurements:
//
//   1. Event scheduling (events/sec): a self-rescheduling timer-wheel
//      workload on (a) the seed's structure — a binary heap of
//      std::function events, kept here as the baseline — and (b) the
//      simulator's EventQueue (a key heap over a slab of InlineEvents).
//   2. End-to-end forwarding (packets/sec): an 8-node line of routers
//      under CBR load on the pooled packet transport.  Wire validation
//      is off so the figure isolates the transport, not serialisation
//      checks.
//   3. Multi-core scaling (events/sec): 8 disconnected 8-node lines
//      partitioned into 1/2/4/8 free-running event domains
//      (net/domain.hpp) — the embarrassingly-parallel shape where the
//      per-domain queues and pools should scale with cores.
//
// Correctness checks run in every build: the line delivers every packet
// its sources sent, and neither the line nor the sweep schedules
// heap-fallback events or grows a pool past its bound.  The one speed
// gate (Release builds only): 8 domains must run at least 4x the
// events/sec of the unpartitioned run (skipped when the host has fewer
// than 8 hardware threads).  Results are also written to
// BENCH_fastpath.json for CI artifacts; `--quick` runs a smaller
// workload for the CI smoke job.
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/embedded_router.hpp"
#include "net/domain.hpp"
#include "net/ldp.hpp"
#include "net/network.hpp"
#include "net/traffic.hpp"
#include "sw/linear_engine.hpp"

using namespace empls;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// ---------------------------------------------------------------------
// Part 1: event scheduling microbenchmark.

/// The seed's event queue, reconstructed for the baseline measurement:
/// std::function callbacks (heap-allocating for non-trivial captures,
/// copy-out on pop) in a std::priority_queue binary heap.
class SeedEventQueue {
 public:
  template <typename F>
  void schedule_in(double delay, F&& fn) {
    queue_.push(Event{now_ + delay, next_seq_++, std::forward<F>(fn)});
  }
  [[nodiscard]] double now() const { return now_; }
  std::uint64_t run() {
    std::uint64_t executed = 0;
    while (!queue_.empty()) {
      Event ev = queue_.top();  // std::priority_queue: copy, then pop
      queue_.pop();
      now_ = ev.time;
      ev.fn();
      ++executed;
    }
    return executed;
  }

 private:
  struct Event {
    double time;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

/// One self-rescheduling timer.  32 bytes of captured state — a couple
/// of pointers plus bookkeeping, the typical simulator event — which
/// overflows std::function's 16-byte inline buffer (one heap allocation
/// per scheduled event, as in the seed) but sits comfortably inside
/// InlineEvent's 64.
template <typename Queue>
struct Tick {
  Queue* q;
  std::uint64_t* remaining;
  double period;
  std::uint64_t fired = 0;
  void operator()() {
    if (*remaining == 0) {
      return;
    }
    --*remaining;
    ++fired;
    q->schedule_in(period, *this);
  }
};

/// Timer-wheel workload: `timers` concurrent self-rescheduling timers
/// with staggered periods, until `total` events have run.  This is the
/// simulator's steady-state shape — many pending events, clustered
/// times, every callback scheduling a fresh closure.
template <typename Queue>
double events_per_sec(Queue& q, std::uint64_t total, unsigned timers) {
  std::uint64_t remaining = total;
  const auto t0 = std::chrono::steady_clock::now();
  for (unsigned i = 0; i < timers; ++i) {
    Tick<Queue> tick{&q, &remaining,
                     1e-6 * (1.0 + static_cast<double>(i % 7))};
    q.schedule_in(1e-7 * i, tick);
  }
  q.run();
  return static_cast<double>(total) / seconds_since(t0);
}

double bench_seed_events(std::uint64_t total, unsigned timers) {
  SeedEventQueue q;
  return events_per_sec(q, total, timers);
}

double bench_inline_events(std::uint64_t total, unsigned timers) {
  net::EventQueue q;
  return events_per_sec(q, total, timers);
}

// ---------------------------------------------------------------------
// Part 2: end-to-end forwarding on the 8-node line.

struct FastpathResult {
  double wall_s = 0;
  double packets_per_sec = 0;  // delivered end-to-end per wall second
  double hops_per_sec = 0;     // router forwardings per wall second
  double events_per_sec = 0;
  std::uint64_t sent = 0;       // packets the CBR sources emitted
  std::uint64_t delivered = 0;
  std::uint64_t events = 0;
  std::size_t pool_high_water = 0;
  std::uint64_t heap_fallback_events = 0;
};

FastpathResult run_line(double sim_seconds) {
  constexpr int kNodes = 8;
  net::QosConfig qos;
  qos.queue_capacity = 256;
  net::Network net(qos);
  net::ControlPlane cp(net);

  std::vector<net::NodeId> ids;
  for (int i = 0; i < kNodes; ++i) {
    core::RouterConfig cfg;
    cfg.type = (i == 0 || i == kNodes - 1) ? hw::RouterType::kLer
                                           : hw::RouterType::kLsr;
    // Wire validation off: the figure isolates the packet transport.
    cfg.validate_wire = false;
    std::string name = "R";
    name += std::to_string(i);
    auto r = std::make_unique<core::EmbeddedRouter>(
        name, std::make_unique<sw::LinearEngine>(), cfg);
    auto* raw = r.get();
    ids.push_back(net.add_node(std::move(r)));
    cp.register_router(ids.back(), &raw->routing());
  }
  for (int i = 0; i + 1 < kNodes; ++i) {
    net.connect(ids[i], ids[i + 1], 1e9, 100e-6);
  }
  cp.establish_lsp(ids, *mpls::Prefix::parse("10.1.0.0/16"));

  const auto dst = *mpls::Ipv4Address::parse("10.1.0.9");
  std::vector<std::unique_ptr<net::CbrSource>> sources;
  for (std::uint32_t flow = 1; flow <= 4; ++flow) {
    net::FlowSpec spec{flow, ids.front(), {}, dst,
                       static_cast<std::uint8_t>(flow), 256,
                       0.0,  sim_seconds};
    sources.push_back(std::make_unique<net::CbrSource>(
        net, spec, nullptr, /*interval=*/100e-6));
    sources.back()->start();
  }

  const auto t0 = std::chrono::steady_clock::now();
  net.run();
  FastpathResult r;
  r.wall_s = seconds_since(t0);
  for (const auto& source : sources) {
    r.sent += source->packets_sent();
  }
  r.delivered = net.delivered_count();
  r.events = net.events().stats().executed;
  std::uint64_t hops = 0;
  for (const auto id : ids) {
    hops += net.node_as<core::EmbeddedRouter>(id).stats().forwarded;
  }
  r.packets_per_sec = static_cast<double>(r.delivered) / r.wall_s;
  r.hops_per_sec = static_cast<double>(hops) / r.wall_s;
  r.events_per_sec = static_cast<double>(r.events) / r.wall_s;
  r.pool_high_water = net.pool().stats().high_water;
  r.heap_fallback_events = net.events().stats().events_heap_fallback;
  return r;
}

// ---------------------------------------------------------------------
// Part 3: multi-core scaling on 8 disconnected 8-node lines.

struct DomainResult {
  double wall_s = 0;
  double events_per_sec = 0;
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;
  std::uint64_t heap_fallback_events = 0;
  std::size_t pool_high_water = 0;  // summed over every domain pool
};

/// 64 routers in 8 disconnected lines, one LSP and 4 CBR flows per
/// line.  The block partition aligns with the lines (8 nodes per line,
/// 64/D per domain), so every domain is fully independent: no boundary
/// links, infinite lookahead, one unbounded free-running window each.
DomainResult run_disconnected_lines(std::size_t domains,
                                    double sim_seconds) {
  constexpr int kLines = 8;
  constexpr int kPerLine = 8;
  net::QosConfig qos;
  qos.queue_capacity = 256;
  net::Network net(qos);
  net::ControlPlane cp(net);

  std::vector<std::vector<net::NodeId>> lines(kLines);
  for (int l = 0; l < kLines; ++l) {
    for (int i = 0; i < kPerLine; ++i) {
      core::RouterConfig cfg;
      cfg.type = (i == 0 || i == kPerLine - 1) ? hw::RouterType::kLer
                                               : hw::RouterType::kLsr;
      cfg.validate_wire = false;
      std::string name = "L";
      name += std::to_string(l);
      name += 'R';
      name += std::to_string(i);
      auto r = std::make_unique<core::EmbeddedRouter>(
          name, std::make_unique<sw::LinearEngine>(), cfg);
      auto* raw = r.get();
      lines[l].push_back(net.add_node(std::move(r)));
      cp.register_router(lines[l].back(), &raw->routing());
    }
    for (int i = 0; i + 1 < kPerLine; ++i) {
      net.connect(lines[l][i], lines[l][i + 1], 1e9, 100e-6);
    }
  }
  if (domains > 1 && !net.partition(domains, net::SyncMode::kFree)) {
    std::printf("  partition(%zu) refused\n", domains);
    return {};
  }

  std::vector<std::unique_ptr<net::CbrSource>> sources;
  for (int l = 0; l < kLines; ++l) {
    const std::string prefix = "10." + std::to_string(l + 1) + ".0.0/16";
    cp.establish_lsp(lines[l], *mpls::Prefix::parse(prefix));
    const auto dst = *mpls::Ipv4Address::parse(
        "10." + std::to_string(l + 1) + ".0.9");
    for (std::uint32_t f = 1; f <= 4; ++f) {
      const std::uint32_t flow = static_cast<std::uint32_t>(l) * 8 + f;
      net::FlowSpec spec{flow, lines[l].front(), {}, dst,
                         static_cast<std::uint8_t>(f), 256,
                         0.0,  sim_seconds};
      sources.push_back(std::make_unique<net::CbrSource>(
          net, spec, nullptr, /*interval=*/100e-6));
      sources.back()->start();
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  net.run();
  DomainResult r;
  r.wall_s = seconds_since(t0);
  const net::SimStats sim = net.sim_stats();
  r.events = sim.events_executed;
  r.events_per_sec = static_cast<double>(r.events) / r.wall_s;
  r.delivered = net.delivered_count();
  r.heap_fallback_events = sim.events_heap_fallback;
  r.pool_high_water = sim.pool_high_water;
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

  std::printf("== simulator fast path (X5)%s ==\n\n",
              quick ? " [quick]" : "");

  // Part 1: events/sec.
  const std::uint64_t total = quick ? 200'000 : 2'000'000;
  const unsigned timers = 64;
  const double seed_eps = bench_seed_events(total, timers);
  const double heap_eps = bench_inline_events(total, timers);

  bench::Table events({"event queue", "events/sec", "vs seed"});
  auto ratio = [](double a, double b) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2fx", a / b);
    return std::string(buf);
  };
  events.add_row({"seed (pq + std::function)", human(seed_eps), "1.00x"});
  events.add_row({"EventQueue (key heap + InlineEvent)", human(heap_eps),
                  ratio(heap_eps, seed_eps)});
  events.print();

  // Part 2: packets/sec on the 8-node line.
  const double sim_seconds = quick ? 0.25 : 2.0;
  const auto pooled = run_line(sim_seconds);

  std::printf("\n");
  bench::Table line({"8-node line", "pkts/sec", "hops/sec", "events/sec",
                     "wall s", "pool hw", "heap-fallback ev"});
  line.add_row({"pooled", human(pooled.packets_per_sec),
                human(pooled.hops_per_sec), human(pooled.events_per_sec),
                std::to_string(pooled.wall_s),
                std::to_string(pooled.pool_high_water),
                std::to_string(pooled.heap_fallback_events)});
  line.print();
  std::printf("\n");

  // Part 3: the domain sweep.
  const double sweep_seconds = quick ? 0.25 : 1.0;
  const std::size_t sweep[] = {1, 2, 4, 8};
  std::vector<DomainResult> scaled;
  for (const std::size_t d : sweep) {
    scaled.push_back(run_disconnected_lines(d, sweep_seconds));
  }

  bench::Table sweep_table({"8x8 lines", "events/sec", "wall s",
                            "delivered", "pool hw", "vs 1 domain"});
  for (std::size_t i = 0; i < std::size(sweep); ++i) {
    const DomainResult& r = scaled[i];
    sweep_table.add_row(
        {std::to_string(sweep[i]) + (sweep[i] == 1 ? " domain" : " domains"),
         human(r.events_per_sec), std::to_string(r.wall_s),
         std::to_string(r.delivered), std::to_string(r.pool_high_water),
         ratio(r.events_per_sec, scaled[0].events_per_sec)});
  }
  sweep_table.print();
  const double domain_speedup =
      scaled.back().events_per_sec / scaled.front().events_per_sec;
  std::printf("\n8-domain scaling: %.2fx on %u hardware threads\n\n",
              domain_speedup, std::thread::hardware_concurrency());

  // JSON artifact for CI.
  bench::BenchJson json("fastpath");
  json.set("quick", quick);
  json.set("events_per_sec.seed_pq_function", seed_eps);
  json.set("events_per_sec.heap_inline", heap_eps);
  json.set("line8.pooled.packets_per_sec", pooled.packets_per_sec);
  json.set("line8.pooled.hops_per_sec", pooled.hops_per_sec);
  json.set("line8.pooled.wall_s", pooled.wall_s);
  json.set("line8.pooled.delivered", pooled.delivered);
  for (std::size_t i = 0; i < std::size(sweep); ++i) {
    const std::string key = "domains.d" + std::to_string(sweep[i]);
    json.set(key + ".events_per_sec", scaled[i].events_per_sec);
    json.set(key + ".wall_s", scaled[i].wall_s);
    json.set(key + ".delivered", scaled[i].delivered);
    json.set(key + ".pool_high_water", scaled[i].pool_high_water);
  }
  json.set("domains.speedup_8", domain_speedup);
  json.set("domains.hardware_threads", std::thread::hardware_concurrency());
  json.write();
  std::printf("\n");

  bench::Checks checks;
  checks.expect_true("the line delivers every packet its sources sent",
                     pooled.sent > 0 && pooled.delivered == pooled.sent);
  checks.expect_true("the line schedules no heap-fallback events",
                     pooled.heap_fallback_events == 0);
  checks.expect_true("pool high water is bounded (line depth, not load)",
                     pooled.pool_high_water < 4096);
  bool sweep_delivered_equal = true;
  bool sweep_no_heap_fallback = true;
  bool sweep_pools_bounded = true;
  for (const DomainResult& r : scaled) {
    sweep_delivered_equal &= r.delivered == scaled.front().delivered;
    sweep_no_heap_fallback &= r.heap_fallback_events == 0;
    sweep_pools_bounded &= r.pool_high_water < 4096;
  }
  checks.expect_true("every domain count delivers the same packets",
                     sweep_delivered_equal);
  checks.expect_true("partitioned runs schedule no heap-fallback events",
                     sweep_no_heap_fallback);
  checks.expect_true("domain pool high water stays bounded",
                     sweep_pools_bounded);
#ifdef NDEBUG
  // The scaling gate, meaningful only with optimisation on.
  if (std::thread::hardware_concurrency() >= 8) {
    checks.expect_true("8 domains >= 4x events/sec vs 1 domain",
                       domain_speedup >= 4.0);
  } else {
    std::printf("  [SKIP] 4x domain gate (fewer than 8 hardware threads)\n");
  }
#else
  std::printf("  [SKIP] 4x domain gate (debug build; run Release to enforce)\n");
#endif
  return checks.exit_code();
}
