// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file.json>] [--git <describe>]
//
// Runs one workload in repetitions until about --seconds of host time
// has been spent in timed run phases (at least kMinReps repetitions).
// Each repetition builds the network anew (timed set-up), runs
// to the warm-up mark, times the run phase, drains, and closes the
// books.  Every repetition of a seed must produce the same sim_digest.
//
// --trace 0 reports the end-to-end metrics: throughput and CPU per
// packet over all repetitions' run phases, the median set-up time (all
// in reference-host seconds, see reference_kernel_s), and the process's
// peak resident memory.
// --trace 1 spends half the budget untraced and half traced through the
// timing decorators, reports the per-layer metrics, checks that the
// decorators left sim_digest unchanged, and writes the kept spans as
// Chrome-trace JSON to --trace-out.
//
// The last line of standard output is one JSON object: correct,
// attempted (packets offered), failed (packets neither delivered nor
// dropped with a reason) and metrics.  The exit code is 0 only when
// every correctness check passed.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <malloc.h>
#include <sys/resource.h>
#include <thread>
#include <queue>
#include <utility>
#include <vector>

#include "inputs.hpp"
#include "spans.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

constexpr std::size_t kMinReps = 3;
constexpr std::size_t kMaxReps = 400;
// Stop starting repetitions past this much wall time, whatever the
// budget, so one run stays well inside three minutes.
constexpr double kHardStopS = 110;
constexpr std::size_t kKeptSpans = 60000;
constexpr std::size_t kSetupSamples = 41;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  Workload workload = Workload::kLine8Cbr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string git = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "line8_cbr|fib_1m_zipf|overload_guarded|split_line_2d "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] "
               "[--git DESCRIBE]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view key = argv[i];
    if (i + 1 >= argc) {
      usage("missing value");
    }
    const std::string_view val = argv[++i];
    if (key == "--workload") {
      const auto w = workload_from_string(val);
      if (!w) {
        usage("unknown workload");
      }
      a.workload = *w;
      have_workload = true;
    } else if (key == "--seed") {
      const auto r = std::from_chars(val.data(), val.data() + val.size(),
                                     a.seed);
      if (r.ec != std::errc{} || r.ptr != val.data() + val.size()) {
        usage("bad --seed");
      }
    } else if (key == "--seconds") {
      a.seconds = std::atof(std::string(val).c_str());
      if (!(a.seconds > 0 && a.seconds <= 60)) {
        usage("--seconds must be in (0, 60]");
      }
    } else if (key == "--trace") {
      if (val != "0" && val != "1") {
        usage("--trace must be 0 or 1");
      }
      a.trace = val == "1";
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else if (key == "--git") {
      a.git = val;
    } else {
      usage("unknown option");
    }
  }
  if (!have_workload) {
    usage("--workload is required");
  }
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// How many cores the host actually delivers to this process: n spin
/// threads against one, each doing the same fixed work.
double effective_cores(unsigned n) {
  const auto spin = [] {
    std::uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 15'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    return x;
  };
  std::vector<double> ratios;
  for (int round = 0; round < 3; ++round) {
    std::atomic<std::uint64_t> sink{0};  // keeps the spins from being elided
    auto t0 = Clock::now();
    sink += spin();
    const double one = seconds_since(t0);
    t0 = Clock::now();
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < n; ++i) {
      threads.emplace_back([&] { sink += spin(); });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    ratios.push_back(static_cast<double>(n) * one / seconds_since(t0));
  }
  return median(ratios);
}

// Host-speed calibration.  On shared VMs single-thread speed drifts by up
// to +-25 % over seconds to minutes (neighbours on the same physical
// cores), so a run's raw wall-clock rate mostly says which regime it
// landed in.  A fixed reference kernel, timed before and after every
// repetition, tracks that drift: scaling each repetition's times by the
// kernel's nominal / measured time expresses them in reference-host
// seconds.  The kernel mimics the simulator's inner loop — a binary-heap
// event queue, hashed table probes, payload copies over a 1 MiB arena —
// and belongs to the benchmark, so it stays fixed while the program
// changes.
// The kernel's median on a shared 4-vCPU Intel Xeon 2.1 GHz VM.
constexpr double kReferenceNominalS = 0.0374;

double reference_kernel_s() {
  static std::vector<std::uint64_t> table(1u << 16);
  static std::vector<std::uint8_t> arena(1u << 20);
  using Event = std::pair<double, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  for (std::uint32_t i = 0; i < 1024; ++i) {
    events.push({i * 1e-3, i});
  }
  std::uint64_t h = 1;
  std::uint8_t packet[256];
  const auto t0 = Clock::now();
  for (int i = 0; i < 200'000; ++i) {
    const auto [t, id] = events.top();
    events.pop();
    h = (h ^ id) * 0x9E3779B97F4A7C15ull;
    std::uint64_t& slot = table[(h >> 20) & (table.size() - 1)];
    slot += h;
    std::memcpy(packet, &arena[(h >> 8) & (arena.size() - 257)],
                sizeof packet);
    std::memcpy(&arena[(slot >> 12) & (arena.size() - 257)], packet,
                sizeof packet);
    events.push({t + 1e-3 * static_cast<double>((h >> 40) & 7), id});
  }
  const double s = seconds_since(t0);
  volatile std::uint64_t sink = h;
  static_cast<void>(sink);
  return s;
}

struct Rep {
  /// kReferenceNominalS over the reference kernel's time around this
  /// repetition: < 1 while the host runs slow.
  double host_speed = 1;
  SetupTimes setup;
  RunPhase run;
  Books books;
  std::uint64_t digest = 0;
  std::string digest_text;
  std::size_t pool_high_water = 0;
  std::uint64_t heap_fallback_total = 0;
  double fib_bytes_per_entry = 0;
  std::size_t domains = 1;
  Totals setup_spans{};
  Totals run_spans{};
};

Rep run_rep(const Plan& plan, SpanRecorder* rec, bool keep_spans) {
  Rep r;
  const Totals t0 = rec != nullptr ? rec->totals() : Totals{};
  Rig rig(plan, rec);
  const Totals t1 = rec != nullptr ? rec->totals() : Totals{};
  rig.warm();
  const Totals t2 = rec != nullptr ? rec->totals() : Totals{};
  if (rec != nullptr) {
    rec->set_keeping(keep_spans);
  }
  r.run = rig.run();
  if (rec != nullptr) {
    rec->set_keeping(false);
    r.setup_spans = t1 - t0;
    r.run_spans = rec->totals() - t2;
  }
  rig.drain();
  r.setup = rig.setup();
  r.books = rig.books();
  r.digest = rig.digest();
  r.digest_text = rig.digest_text();
  r.pool_high_water = rig.pool_high_water();
  r.heap_fallback_total = rig.snapshot().heap_fallback;
  r.fib_bytes_per_entry = rig.fib_bytes_per_entry();
  r.domains = rig.domains();
  return r;
}

/// Repetitions until `budget_s` of timed run phase (and kMinReps).
std::vector<Rep> run_reps(const Plan& plan, SpanRecorder* rec,
                          double budget_s, Clock::time_point start) {
  std::vector<Rep> reps;
  double spent = 0;
  double before = reference_kernel_s();
  while (reps.size() < kMaxReps &&
         (reps.size() < kMinReps ||
          (spent < budget_s && seconds_since(start) < kHardStopS))) {
    reps.push_back(run_rep(plan, rec, reps.empty()));
    const double after = reference_kernel_s();
    reps.back().host_speed = kReferenceNominalS / (0.5 * (before + after));
    before = after;
    spent += reps.back().run.wall_s;
  }
  return reps;
}

/// Set-up times of every repetition plus extra set-ups (built and torn
/// down, nothing run) until kSetupSamples are in hand or `budget_s` is
/// spent, so setup_s is a median of many samples even where one set-up
/// takes a fraction of a millisecond.
std::vector<SetupTimes> setup_samples(const Plan& plan,
                                      const std::vector<Rep>& reps,
                                      double budget_s) {
  std::vector<SetupTimes> out;
  for (const Rep& r : reps) {
    out.push_back(r.setup);
  }
  const auto t0 = Clock::now();
  while (out.size() < kSetupSamples && seconds_since(t0) < budget_s) {
    const Rig rig(plan, nullptr);
    out.push_back(rig.setup());
  }
  return out;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
    ok_ = ok_ && ok;
  }
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  bool ok_ = true;
};

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

void print_metrics(const char* title, const std::vector<Metric>& ms) {
  if (*title != '\0') {
    std::printf("%s\n", title);
  }
  for (const Metric& m : ms) {
    std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::string_view build_type = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  constexpr bool kAssertsOff = true;
#else
  constexpr bool kAssertsOff = false;
#endif
  if (build_type != "Release" || !kAssertsOff) {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a '%.*s' build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 static_cast<int>(build_type.size()), build_type.data());
    return 3;
  }

  // Pin the allocator policy: no heap trimming and no mmap below 1 GiB,
  // so repeated set-ups in one process reuse memory instead of timing
  // page faults whose cost depends on the allocation history.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  const auto start = Clock::now();
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::printf("stamp: build_type=%.*s git=%s nproc=%u "
              "host.effective_cores=%.2f\n",
              static_cast<int>(build_type.size()), build_type.data(),
              args.git.c_str(), nproc, effective_cores(nproc));
  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
              std::string(to_string(args.workload)).c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);

  // Inputs are generated before any set-up is timed.
  const Plan plan = make_plan(args.workload, args.seed);

  const double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<Rep> plain;
  std::vector<Rep> traced;
  SpanRecorder recorder(kKeptSpans);
  try {
    plain = run_reps(plan, nullptr, untraced_budget, start);
    if (args.trace) {
      traced = run_reps(plan, &recorder, args.seconds / 2, start);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  const std::vector<SetupTimes> setups =
      setup_samples(plan, plain, 0.2 * args.seconds);

  // ---- correctness -------------------------------------------------
  std::printf("sim_digest %s\n", plain.front().digest_text.c_str());
  Checks checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool books_close = true;
  bool digests_equal = true;
  bool pools_empty = true;
  bool no_heap_fallback = true;
  for (const std::vector<Rep>* set : {&plain, &traced}) {
    for (const Rep& r : *set) {
      attempted += r.books.offered();
      failed += r.books.unaccounted();
      for (const std::string& f : r.books.failures()) {
        std::printf("  books: %s\n", f.c_str());
        books_close = false;
      }
      digests_equal &= r.digest == plain.front().digest;
      pools_empty &= r.books.pool_in_use == 0;
      no_heap_fallback &= r.heap_fallback_total == 0;
    }
  }
  std::printf("checks (%zu untraced + %zu traced repetitions):\n",
              plain.size(), traced.size());
  checks.expect(books_close,
                "sent = delivered + attributed drops, per flow-id range "
                "and per flow");
  checks.expect(pools_empty, "packet pools back to 0 in use at quiesce");
  checks.expect(digests_equal,
                args.trace ? "sim_digest identical across repetitions, "
                             "traced and untraced"
                           : "sim_digest identical across repetitions");
  if (args.workload == Workload::kLine8Cbr) {
    checks.expect(no_heap_fallback, "zero heap-fallback events");
  }
  const double unaccounted_frac =
      attempted == 0 ? 1.0
                     : static_cast<double>(failed) /
                           static_cast<double>(attempted);
  checks.expect(attempted > 0 && failed == 0,
                "unaccounted_frac = " + fmt("%g", unaccounted_frac) +
                    " (failure share: packets neither delivered nor "
                    "dropped with a reason)");

  // ---- end-to-end --------------------------------------------------
  // Throughput is total retired over total run-phase time, in
  // reference-host seconds (each repetition's wall and CPU time scaled by
  // its host_speed), not a median of repetitions: a ratio of totals
  // averages over host-speed drift where a median snaps to one regime.
  double total_retired = 0;
  double total_wall = 0;
  double total_ref_wall = 0;
  double total_ref_cpu = 0;
  std::vector<double> pps, wall, speed;
  for (const Rep& r : plain) {
    const auto retired = static_cast<double>(r.run.retired());
    total_retired += retired;
    total_wall += r.run.wall_s;
    total_ref_wall += r.run.wall_s * r.host_speed;
    total_ref_cpu += r.run.cpu_s * r.host_speed;
    pps.push_back(retired / r.run.wall_s);
    wall.push_back(r.run.wall_s * r.host_speed);
    speed.push_back(r.host_speed);
  }
  const double host_speed = median(speed);
  std::printf("run phase: %zu repetitions, %.3f s wall, %.0f retired "
              "packets; host wall-clock pkts/s %.0f (per repetition min "
              "%.0f median %.0f max %.0f); host.speed median %.3f min %.3f "
              "max %.3f\n",
              plain.size(), total_wall, total_retired,
              total_retired / total_wall,
              *std::min_element(pps.begin(), pps.end()), median(pps),
              *std::max_element(pps.begin(), pps.end()), host_speed,
              *std::min_element(speed.begin(), speed.end()),
              *std::max_element(speed.begin(), speed.end()));
  // Set-up times, like run times, in reference-host seconds.
  const auto setup_ref_s = [&](double (*part)(const SetupTimes&)) {
    std::vector<double> v;
    for (const SetupTimes& s : setups) {
      v.push_back(part(s));
    }
    return host_speed * median(v);
  };
  const std::vector<Metric> e2e = {
      {"pkts_per_s", total_retired / total_ref_wall, "1/s"},
      {"cpu_us_per_pkt", total_ref_cpu * 1e6 / total_retired, "us"},
      {"setup_s",
       setup_ref_s([](const SetupTimes& s) { return s.total_s(); }), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  std::printf("end-to-end (times in reference-host seconds; throughput over "
              "all untraced repetitions; setup_s the median of %zu "
              "set-ups):\n",
              setups.size());
  print_metrics("", e2e);

  std::vector<Metric> layers;
  if (args.trace) {
    Totals t{};
    Totals setup_t{};
    double budget_ns = 0;
    double retired = 0;
    Snapshot d{};  // run-phase deltas summed over traced repetitions
    std::vector<double> traced_wall;
    std::size_t pool_hw = 0;
    for (const Rep& r : traced) {
      for (std::size_t i = 0; i < kLayerCount; ++i) {
        t[i].count += r.run_spans[i].count;
        t[i].total_ns += r.run_spans[i].total_ns;
        t[i].self_ns += r.run_spans[i].self_ns;
        setup_t[i].count += r.setup_spans[i].count;
        setup_t[i].total_ns += r.setup_spans[i].total_ns;
      }
      budget_ns += r.run.wall_s * 1e9;
      retired += static_cast<double>(r.run.retired());
      traced_wall.push_back(r.run.wall_s * r.host_speed);
      pool_hw = std::max(pool_hw, r.pool_high_water);
      const Snapshot& b = r.run.begin;
      const Snapshot& e = r.run.end;
      d.delivered += e.delivered - b.delivered;
      d.dropped += e.dropped - b.dropped;
      d.events += e.events - b.events;
      d.pool_acquired += e.pool_acquired - b.pool_acquired;
      d.arrivals += e.arrivals - b.arrivals;
      d.cache_hits += e.cache_hits - b.cache_hits;
      d.cache_misses += e.cache_misses - b.cache_misses;
      d.handoffs += e.handoffs - b.handoffs;
    }
    const Rep& first = traced.front();
    const Snapshot& b0 = first.run.begin;
    const Snapshot& e0 = first.run.end;
    const auto L = [&](Layer l) -> const LayerTotals& {
      return t[static_cast<std::size_t>(l)];
    };
    const auto per = [](double num, double den) {
      return den > 0 ? num / den : 0.0;
    };
    double self_sum = 0;
    for (const LayerTotals& lt : t) {
      self_sum += static_cast<double>(lt.self_ns);
    }
    std::vector<double> cpu_over_wall;
    for (const Rep& r : plain) {
      cpu_over_wall.push_back(r.domains > 1 ? r.run.cpu_s / r.run.wall_s : 0);
    }
    const auto ns = [](const LayerTotals& lt) {
      return static_cast<double>(lt.total_ns);
    };
    const auto self = [](const LayerTotals& lt) {
      return static_cast<double>(lt.self_ns);
    };
    const auto cnt = [](const LayerTotals& lt) {
      return static_cast<double>(lt.count);
    };
    const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
    const LayerTotals& install = setup_t[static_cast<std::size_t>(Layer::kWritePair)];
    layers = {
        {"core.receive_ns_per_pkt", per(self(L(Layer::kReceive)), retired),
         "ns/pkt"},
        {"core.arrivals_per_pkt", per(u(d.arrivals), retired), "1/pkt"},
        {"core.cache_hit_ratio",
         per(u(d.cache_hits), u(d.cache_hits + d.cache_misses)), "ratio"},
        {"core.slow_path_installs",
         u(e0.slow_path_installs - b0.slow_path_installs), "count"},
        {"sw.update_ns", per(ns(L(Layer::kUpdate)), cnt(L(Layer::kUpdate))),
         "ns"},
        {"sw.lookup_ns", per(ns(L(Layer::kLookup)), cnt(L(Layer::kLookup))),
         "ns"},
        {"sw.updates_per_pkt", per(cnt(L(Layer::kUpdate)), retired), "1/pkt"},
        {"sw.update_share", per(ns(L(Layer::kUpdate)), budget_ns), "ratio"},
        {"sw.install_ns", per(ns(install), cnt(install)), "ns"},
        {"sw.fib_bytes_per_entry", first.fib_bytes_per_entry, "B"},
        {"net.loop_self_ns_per_pkt", per(self(L(Layer::kRun)), retired),
         "ns/pkt"},
        {"net.events_per_pkt", per(u(d.events), retired), "1/pkt"},
        {"net.pool_acquired_per_pkt", per(u(d.pool_acquired), retired),
         "1/pkt"},
        {"net.pool_high_water", u(pool_hw), "count"},
        {"net.heap_fallback_events", u(e0.heap_fallback - b0.heap_fallback),
         "count"},
        {"net.clamped_schedules", u(e0.clamped - b0.clamped), "count"},
        {"net.drop_share", per(u(d.dropped), retired), "ratio"},
        {"net.guard_refusals", u(e0.guard_refusals - b0.guard_refusals),
         "count"},
        {"net.ledger_ns_per_pkt", per(self(L(Layer::kLedger)), retired),
         "ns/pkt"},
        {"net.domain.windows", u(e0.windows - b0.windows), "count"},
        {"net.domain.handoffs_per_pkt", per(u(d.handoffs), retired), "1/pkt"},
        {"net.domain.cpu_over_wall", median(cpu_over_wall), "ratio"},
        {"obs.sample_ns", per(ns(L(Layer::kSample)), cnt(L(Layer::kSample))),
         "ns"},
        {"obs.sample_share", per(ns(L(Layer::kSample)), budget_ns), "ratio"},
        {"setup.topology_s",
         setup_ref_s([](const SetupTimes& s) { return s.topology_s; }), "s"},
        {"setup.lsp_s",
         setup_ref_s([](const SetupTimes& s) { return s.lsp_s; }), "s"},
        {"setup.fib_s",
         setup_ref_s([](const SetupTimes& s) { return s.fib_s; }), "s"},
        {"setup.partition_s",
         setup_ref_s([](const SetupTimes& s) { return s.partition_s; }), "s"},
        {"trace.overhead", per(median(traced_wall), median(wall)), "ratio"},
        {"trace.unattributed_share", per(budget_ns - self_sum, budget_ns),
         "ratio"},
    };

    // Layer table: self time per layer plus the time no span covers adds
    // back up to the run-phase wall (every workload runs on one thread).
    std::printf("per-layer self time over %zu traced run phases "
                "(%.0f retired packets):\n",
                traced.size(), retired);
    std::printf("  %-16s %12s %12s %12s %8s\n", "layer", "count", "self_ms",
                "self_ns/pkt", "share");
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      std::printf("  %-16s %12llu %12.3f %12.1f %7.2f%%\n",
                  std::string(to_string(static_cast<Layer>(i))).c_str(),
                  static_cast<unsigned long long>(t[i].count),
                  self(t[i]) / 1e6, per(self(t[i]), retired),
                  100 * per(self(t[i]), budget_ns));
    }
    std::printf("  %-16s %12s %12.3f %12.1f %7.2f%%\n", "unattributed", "",
                (budget_ns - self_sum) / 1e6,
                per(budget_ns - self_sum, retired),
                100 * per(budget_ns - self_sum, budget_ns));
    std::printf("  %-16s %12s %12.3f %12.1f %7.2f%%\n", "run wall", "",
                budget_ns / 1e6, per(budget_ns, retired), 100.0);
    print_metrics("per-layer:", layers);

    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      recorder.write_chrome_trace(out);
      out.close();
      checks.expect(static_cast<bool>(out),
                    "span file written: " + args.trace_out + " (" +
                        std::to_string(recorder.kept()) + " spans)");
    }
  }

  // ---- result line -------------------------------------------------
  std::string json = "{\"correct\": ";
  json += checks.ok() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first_metric = true;
  for (const Metric& m : args.trace ? layers : e2e) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first_metric ? "" : ", ", m.name.c_str(), m.value,
                  m.unit.c_str());
    json += buf;
    first_metric = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return checks.ok() ? 0 : 1;
}
