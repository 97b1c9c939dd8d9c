// Self-tests of the benchmark's own machinery: seeded inputs reproduce
// byte for byte, the conservation check catches an unbalanced book,
// span self times add back up, and the timing decorators leave the
// simulated outcome (sim_digest) unchanged.
//
//   perfbench_selftest        (or: python3 perfbench/run.py --selftest)
#include <cstdio>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "net/attack.hpp"
#include "net/loadgen.hpp"
#include "spans.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

// Workloads shrunk for the tests: short horizons, a 16k-host FIB.
constexpr double kScale = 1.0 / 64;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("[%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
  failures += ok ? 0 : 1;
}

constexpr Workload kAll[] = {Workload::kLine8Cbr, Workload::kFib1mZipf,
                             Workload::kOverloadGuarded,
                             Workload::kSplitLine2d};

std::string name(Workload w) { return std::string(to_string(w)); }

void test_plans_reproduce() {
  for (const Workload w : kAll) {
    const auto a = plan_bytes(make_plan(w, 7, kScale));
    const auto b = plan_bytes(make_plan(w, 7, kScale));
    const auto c = plan_bytes(make_plan(w, 8, kScale));
    expect(a == b, name(w) + ": same seed gives byte-identical inputs");
    expect(a != c, name(w) + ": another seed gives other inputs");
  }
  const Plan fib = make_plan(Workload::kFib1mZipf, 3, kScale);
  expect(!fib.arrivals.at_s.empty() &&
             fib.arrivals.at_s.size() == fib.arrivals.host.size(),
         "fib_1m_zipf: arrival schedule is non-empty and consistent");
}

void test_zipf_shape() {
  // Zipf(1) over 1024 ranks: P(rank 1) = 1 / H(1024) ~ 0.1331.
  const ZipfSampler zipf(1024, 1.0);
  std::mt19937_64 rng(11);
  const int draws = 200000;
  int ones = 0;
  int twos = 0;
  bool in_range = true;
  for (int i = 0; i < draws; ++i) {
    const std::uint32_t k = zipf.sample(rng);
    in_range &= k >= 1 && k <= 1024;
    ones += k == 1;
    twos += k == 2;
  }
  const double p1 = static_cast<double>(ones) / draws;
  const double ratio = static_cast<double>(ones) / twos;
  expect(in_range, "zipf: every rank within [1, n]");
  expect(p1 > 0.125 && p1 < 0.141, "zipf: P(rank 1) ~ 1/H(1024) (got " +
                                       std::to_string(p1) + ")");
  expect(ratio > 1.85 && ratio < 2.15,
         "zipf: rank 1 twice as likely as rank 2 (got " +
             std::to_string(ratio) + ")");
}

/// Terminal node recording every packet it receives as bytes.
class Sink final : public empls::net::Node {
 public:
  Sink() : Node("sink") {}
  void receive(empls::net::PacketHandle p, empls::mpls::InterfaceId) override {
    const auto put = [this](const void* v, std::size_t n) {
      const auto* c = static_cast<const std::uint8_t*>(v);
      bytes.insert(bytes.end(), c, c + n);
    };
    put(&p->created_at, sizeof p->created_at);
    put(&p->flow_id, sizeof p->flow_id);
    put(&p->dst.value, sizeof p->dst.value);
    put(&p->cos, sizeof p->cos);
    put(&p->ip_ttl, sizeof p->ip_ttl);
    const std::size_t depth = p->stack.size();
    put(&depth, sizeof depth);
    const std::size_t size = p->payload.size();
    put(&size, sizeof size);
  }
  std::vector<std::uint8_t> bytes;
};

/// The overload workload's generated traffic (MMPP victim load plus the
/// attack campaigns) as it arrives, captured at a sink.
std::vector<std::uint8_t> overload_stream(std::uint64_t seed) {
  const Plan plan = make_plan(Workload::kOverloadGuarded, seed, kScale);
  empls::net::Network net;
  auto sink = std::make_unique<Sink>();
  Sink* raw = sink.get();
  const auto id = net.add_node(std::move(sink));
  empls::net::LoadGenConfig cfg = plan.mmpp;
  cfg.ingress = id;
  empls::net::OpenLoopGenerator gen(net, cfg, nullptr);
  gen.start();
  empls::net::AttackCampaign attacks(net);
  for (empls::net::AttackSpec spec : plan.attacks) {
    spec.ingress = id;
    attacks.launch(spec);
  }
  net.run();
  return raw->bytes;
}

void test_mmpp_reproduces() {
  const auto a = overload_stream(5);
  const auto b = overload_stream(5);
  const auto c = overload_stream(6);
  expect(!a.empty() && a == b,
         "overload_guarded: MMPP + attack packets byte-identical for one "
         "seed (" + std::to_string(a.size()) + " bytes)");
  expect(a != c, "overload_guarded: another seed gives another stream");
}

void test_books_detect_imbalance() {
  Books balanced;
  balanced.ranges = {{"cbr", 10, 7, 3}, {"attack", 5, 0, 5}};
  expect(balanced.failures().empty() && balanced.unaccounted() == 0,
         "books: a balanced book passes");

  Books missing = balanced;
  missing.ranges[0].dropped = 2;  // one packet vanished
  expect(!missing.failures().empty() && missing.unaccounted() == 1,
         "books: a packet neither delivered nor dropped fails the check");

  Books extra = balanced;
  extra.ranges[1].delivered = 1;  // one packet counted twice
  expect(!extra.failures().empty() && extra.unaccounted() == 1,
         "books: a packet counted twice fails the check");

  Books flow = balanced;
  flow.unbalanced_flows = 1;
  expect(!flow.failures().empty(),
         "books: one unbalanced flow fails even when ranges balance");

  Books pool = balanced;
  pool.pool_in_use = 1;
  expect(!pool.failures().empty(), "books: a leaked pooled packet fails");
}

void test_self_times_add_up() {
  SpanRecorder rec(16);
  rec.set_keeping(true);
  rec.begin(Layer::kRun);
  for (int i = 0; i < 3; ++i) {
    rec.begin(Layer::kReceive, 42);
    rec.begin(Layer::kUpdate);
    rec.end();
    rec.end();
  }
  rec.begin(Layer::kSample);
  rec.end();
  rec.end();
  const Totals t = rec.totals();
  std::uint64_t self = 0;
  for (const LayerTotals& l : t) {
    self += l.self_ns;
  }
  const LayerTotals& run = t[static_cast<std::size_t>(Layer::kRun)];
  expect(self == run.total_ns,
         "spans: self times of nested layers add up to the outer span");
  expect(t[static_cast<std::size_t>(Layer::kUpdate)].count == 3 &&
             rec.kept() == 8,
         "spans: every span counted and kept");
}

std::uint64_t digest_of(const Plan& plan, SpanRecorder* rec) {
  Rig rig(plan, rec);
  rig.warm();
  rig.run();
  rig.drain();
  const Books b = rig.books();
  if (!b.failures().empty()) {
    std::printf("  books do not close: %s\n", b.failures().front().c_str());
    return 0;
  }
  return rig.digest();
}

void test_decorators_keep_digest() {
  for (const Workload w : kAll) {
    const Plan plan = make_plan(w, 9, kScale);
    SpanRecorder rec;
    const std::uint64_t plain = digest_of(plan, nullptr);
    const std::uint64_t again = digest_of(plan, nullptr);
    const std::uint64_t traced = digest_of(plan, &rec);
    expect(plain != 0 && plain == again,
           name(w) + ": books close and sim_digest repeats");
    expect(plain == traced,
           name(w) + ": timing decorators leave sim_digest unchanged");
    const Totals t = rec.totals();
    expect(t[static_cast<std::size_t>(Layer::kReceive)].count > 0 &&
               t[static_cast<std::size_t>(Layer::kUpdate)].count > 0,
           name(w) + ": traced run records receive and update spans");
  }
}

}  // namespace

int main() {
  test_plans_reproduce();
  test_zipf_shape();
  test_mmpp_reproduces();
  test_books_detect_imbalance();
  test_self_times_add_up();
  test_decorators_keep_digest();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
