#include "workloads.hpp"

#include <chrono>
#include <cstdio>
#include <ctime>
#include <set>
#include <stdexcept>

#include "net/domain.hpp"
#include "net/fault_injector.hpp"
#include "net/ldp.hpp"
#include "net/traffic.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "sw/linear_engine.hpp"
#include "sw/trie_engine.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Flow-id ranges, each closed separately in the books.
constexpr const char* kRangeNames[4] = {"cbr", "zipf", "loadgen", "attack"};
constexpr std::uint32_t kRangeLo[4] = {0, kZipfFlowBase,
                                       net::kLoadGenFlowBase,
                                       net::kAttackFlowBase};
constexpr std::uint32_t kRangeHi[4] = {kZipfFlowBase, net::kLoadGenFlowBase,
                                       net::kAttackFlowBase, 0xFFFFFFFFu};

std::size_t range_of(std::uint32_t flow_id) {
  std::size_t r = 0;
  while (r + 1 < 4 && flow_id >= kRangeLo[r + 1]) {
    ++r;
  }
  return r;
}

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 0x100000001b3ull;
    }
  }
};

}  // namespace

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Replays a pre-drawn arrival schedule into the ingress node: one
/// self-rescheduling event per packet, the packet taken from the pool
/// and counted in the ledger as sent.
class ScheduleInjector {
 public:
  ScheduleInjector(net::Network& net, net::NodeId ingress,
                   const ArrivalSchedule& schedule, net::FlowLedger& ledger)
      : net_(&net), ingress_(ingress), s_(&schedule), ledger_(&ledger) {}

  void start() {
    if (!s_->at_s.empty()) {
      net_->events_for(ingress_).schedule_at(s_->at_s[0], [this] { fire(); });
    }
  }
  [[nodiscard]] std::uint64_t sent() const noexcept { return next_; }

 private:
  void fire() {
    const std::uint32_t host = s_->host[next_];
    net::PacketHandle p = net_->pool().acquire();
    p->l2 = mpls::L2Type::kEthernet;
    p->src = {};
    p->dst = mpls::Ipv4Address{kFibHostBase + host};
    p->cos = 0;
    p->ip_ttl = 64;
    p->payload.assign(64, 0xAB);
    p->id = next_;
    p->flow_id = kZipfFlowBase + (host >> 8);
    p->created_at = net_->now();
    ledger_->on_sent(p->flow_id);
    ++next_;
    net_->inject(ingress_, std::move(p));
    if (next_ < s_->at_s.size()) {
      net_->events().schedule_at(s_->at_s[next_], [this] { fire(); });
    }
  }

  net::Network* net_;
  net::NodeId ingress_;
  const ArrivalSchedule* s_;
  net::FlowLedger* ledger_;
  std::uint64_t next_ = 0;
};

// ---------------------------------------------------------------------
// Books.

std::uint64_t Books::offered() const {
  std::uint64_t n = 0;
  for (const FlowBook& b : ranges) {
    n += b.sent;
  }
  return n;
}

std::uint64_t Books::unaccounted() const {
  std::uint64_t n = 0;
  for (const FlowBook& b : ranges) {
    const std::uint64_t closed = b.delivered + b.dropped;
    n += b.sent > closed ? b.sent - closed : closed - b.sent;
  }
  return n;
}

std::vector<std::string> Books::failures() const {
  std::vector<std::string> out;
  char buf[256];
  for (const FlowBook& b : ranges) {
    if (b.sent != b.delivered + b.dropped) {
      std::snprintf(buf, sizeof buf,
                    "flow range %s: sent %llu != delivered %llu + dropped %llu",
                    b.name.c_str(), static_cast<unsigned long long>(b.sent),
                    static_cast<unsigned long long>(b.delivered),
                    static_cast<unsigned long long>(b.dropped));
      out.emplace_back(buf);
    }
  }
  if (unbalanced_flows != 0) {
    out.push_back(std::to_string(unbalanced_flows) +
                  " flows do not conserve packets");
  }
  if (pool_in_use != 0) {
    out.push_back(std::to_string(pool_in_use) +
                  " pooled packets still in use after the drain");
  }
  return out;
}

// ---------------------------------------------------------------------
// Set-up.

Rig::Rig(const Plan& plan, SpanRecorder* rec) : plan_(&plan), rec_(rec) {
  switch (plan.workload) {
    case Workload::kLine8Cbr:
      build_line8();
      break;
    case Workload::kFib1mZipf:
      build_fib();
      break;
    case Workload::kOverloadGuarded:
      build_overload();
      break;
    case Workload::kSplitLine2d:
      build_split();
      break;
  }
}

Rig::~Rig() = default;

core::EmbeddedRouter& Rig::add_router(const std::string& name,
                                      std::unique_ptr<sw::LabelEngine> engine,
                                      const core::RouterConfig& cfg) {
  std::unique_ptr<core::EmbeddedRouter> router;
  if (rec_ != nullptr) {
    router = std::make_unique<TimedRouter>(
        name, std::make_unique<TimedEngine>(std::move(engine), *rec_), cfg,
        *rec_);
  } else {
    router =
        std::make_unique<core::EmbeddedRouter>(name, std::move(engine), cfg);
  }
  core::EmbeddedRouter* raw = router.get();
  ids_.push_back(net_->add_node(std::move(router)));
  cp_->register_router(ids_.back(), &raw->routing());
  routers_.push_back(raw);
  return *raw;
}

/// Delivery side of the books every workload keeps: the ledger (the
/// timed net.ledger span) and the per-range delivered counts.
static void wire_books(net::Network& net, net::FlowLedger& ledger,
                       std::uint64_t* by_range, SpanRecorder* rec) {
  net.set_delivery_handler(
      [&net, &ledger, by_range, rec](net::NodeId, const mpls::Packet& p) {
        const SpanRecorder::Scope span(rec, Layer::kLedger, packet_key(p));
        ledger.on_delivered(p.flow_id, net.now() - p.created_at);
        ++by_range[range_of(p.flow_id)];
      });
}

void Rig::build_line(std::size_t nodes, bool validate_wire,
                     double first_bw_bps, double bw_bps, double delay_s) {
  for (std::size_t i = 0; i < nodes; ++i) {
    core::RouterConfig cfg;
    const bool edge = i == 0 || i + 1 == nodes;
    cfg.type = edge ? empls::hw::RouterType::kLer : empls::hw::RouterType::kLsr;
    cfg.validate_wire = validate_wire;
    cfg.label_base = static_cast<std::uint32_t>(1000 * (i + 1));
    std::unique_ptr<sw::LabelEngine> engine;
    if (plan_->workload == Workload::kFib1mZipf && i == 0) {
      cfg.flow_cache_entries = 1024;
      auto trie = std::make_unique<sw::TrieEngine>();
      trie_ = trie.get();
      engine = std::move(trie);
    } else {
      engine = std::make_unique<sw::LinearEngine>();
    }
    std::string name = "R";
    name += std::to_string(i);
    add_router(name, std::move(engine), cfg);
  }
  for (std::size_t i = 0; i + 1 < nodes; ++i) {
    net_->connect(ids_[i], ids_[i + 1], i == 0 ? first_bw_bps : bw_bps,
                  delay_s);
  }
}

void Rig::start_cbr() {
  for (const CbrFlow& f : plan_->cbr) {
    net::FlowSpec spec{f.flow_id,
                       ids_[f.ingress],
                       {},
                       mpls::Ipv4Address{f.dst},
                       f.cos,
                       f.payload_bytes,
                       f.start_s,
                       plan_->stop_s};
    cbr_.push_back(
        std::make_unique<net::CbrSource>(*net_, spec, nullptr, f.interval_s));
    cbr_.back()->start();
  }
}

void Rig::build_line8() {
  auto t0 = Clock::now();
  net::QosConfig qos;
  qos.queue_capacity = 256;
  net_ = std::make_unique<net::Network>(qos);
  cp_ = std::make_unique<net::ControlPlane>(*net_);
  build_line(8, /*validate_wire=*/true, 1e9, 1e9, 100e-6);
  ledger_ = std::make_unique<net::FlowLedger>();
  drops_ = std::make_unique<net::DropAccountant>(*net_);
  wire_books(*net_, *ledger_, delivered_by_range_, rec_);
  setup_.topology_s = seconds_since(t0);

  t0 = Clock::now();
  cp_->establish_lsp(ids_, *mpls::Prefix::parse("10.1.0.0/16"));
  setup_.lsp_s = seconds_since(t0);

  start_cbr();
}

void Rig::build_fib() {
  auto t0 = Clock::now();
  net_ = std::make_unique<net::Network>();
  cp_ = std::make_unique<net::ControlPlane>(*net_);
  build_line(4, /*validate_wire=*/false, 10e9, 10e9, 100e-6);
  ledger_ = std::make_unique<net::FlowLedger>();
  drops_ = std::make_unique<net::DropAccountant>(*net_);
  wire_books(*net_, *ledger_, delivered_by_range_, rec_);
  setup_.topology_s = seconds_since(t0);

  // One LSP carries the whole host block; the ingress LER learns its
  // push label from the signalled FTN binding.
  t0 = Clock::now();
  const auto fec = *mpls::Prefix::parse("10.0.0.0/8");
  cp_->establish_lsp(ids_, fec);
  setup_.lsp_s = seconds_since(t0);

  t0 = Clock::now();
  core::RoutingFunctionality& rf = routers_[0]->routing();
  const auto fec_id = rf.fec_table().lookup_exact(fec);
  const auto nhlfe = fec_id ? rf.ftn_table().lookup(*fec_id) : std::nullopt;
  if (!nhlfe) {
    throw std::runtime_error("ingress LER has no binding for the host block");
  }
  for (std::uint32_t h = 0; h < plan_->fib_hosts; ++h) {
    if (!rf.program_ingress_exact(kFibHostBase + h, nhlfe->out_label,
                                  nhlfe->out_interface)) {
      throw std::runtime_error("FIB install refused host " +
                               std::to_string(h));
    }
  }
  setup_.fib_s = seconds_since(t0);

  injector_ = std::make_unique<ScheduleInjector>(*net_, ids_[0],
                                                 plan_->arrivals, *ledger_);
  injector_->start();
}

void Rig::build_overload() {
  auto t0 = Clock::now();
  net::QosConfig qos;
  qos.queue_capacity = 64;
  net_ = std::make_unique<net::Network>(qos);
  cp_ = std::make_unique<net::ControlPlane>(*net_);
  // The bottleneck: the ingress LER's uplink runs at 100 Mb/s.
  build_line(3, /*validate_wire=*/true, 100e6, 1e9, 1e-3);
  net::GuardConfig guard;
  guard.enabled = true;
  guard.ttl_expiry_pps = 200;
  guard.reprogram_per_s = 100;
  for (core::EmbeddedRouter* r : routers_) {
    r->set_guard(guard);
  }
  ledger_ = std::make_unique<net::FlowLedger>();
  drops_ = std::make_unique<net::DropAccountant>(*net_);
  wire_books(*net_, *ledger_, delivered_by_range_, rec_);
  metrics_ = std::make_unique<empls::obs::MetricsRegistry>();
  net_->set_telemetry(metrics_.get(), nullptr);
  empls::obs::Timeline::Config tc;
  tc.interval_s = plan_->sample_interval_s;
  timeline_ = std::make_unique<empls::obs::Timeline>(tc);
  timeline_->track_histogram("loadgen_latency_ns", &ledger_->latency_ns());
  net_->set_timeline(timeline_.get());
  setup_.topology_s = seconds_since(t0);

  t0 = Clock::now();
  cp_->establish_lsp(ids_, *mpls::Prefix::parse("10.1.0.0/16"));
  setup_.lsp_s = seconds_since(t0);

  // Sampler ticks on a fixed sim cadence, pre-scheduled so the drain
  // ends when the traffic does.
  const double dt = plan_->sample_interval_s;
  const auto ticks = static_cast<std::uint64_t>(plan_->stop_s / dt + 1e-9);
  for (std::uint64_t k = 1; k <= ticks; ++k) {
    net_->events().schedule_at(dt * static_cast<double>(k), [this] {
      const SpanRecorder::Scope span(rec_, Layer::kSample);
      net_->export_metrics(*metrics_);
      timeline_->sample(*metrics_, net_->now());
    });
  }

  net::LoadGenConfig cfg = plan_->mmpp;
  cfg.ingress = ids_[cfg.ingress];
  loadgen_ = std::make_unique<net::OpenLoopGenerator>(*net_, cfg, ledger_.get());
  loadgen_->start();
  attacks_ = std::make_unique<net::AttackCampaign>(*net_);
  for (net::AttackSpec spec : plan_->attacks) {
    spec.ingress = ids_[spec.ingress];
    attacks_->launch(spec);
  }
}

void Rig::build_split() {
  auto t0 = Clock::now();
  net::QosConfig qos;
  qos.queue_capacity = 256;
  net_ = std::make_unique<net::Network>(qos);
  cp_ = std::make_unique<net::ControlPlane>(*net_);
  build_line(16, /*validate_wire=*/true, 1e9, 1e9, 100e-6);
  ledger_ = std::make_unique<net::FlowLedger>();
  drops_ = std::make_unique<net::DropAccountant>(*net_);
  wire_books(*net_, *ledger_, delivered_by_range_, rec_);
  setup_.topology_s = seconds_since(t0);

  t0 = Clock::now();
  cp_->establish_lsp(ids_, *mpls::Prefix::parse("10.1.0.0/16"));
  std::vector<net::NodeId> reverse(ids_.rbegin(), ids_.rend());
  cp_->establish_lsp(reverse, *mpls::Prefix::parse("10.2.0.0/16"));
  setup_.lsp_s = seconds_since(t0);

  // Two domains split at the middle link, merged deterministically on
  // one thread.  Free-running domains would measure how many cores the
  // host hands out, not the code: on a shared 4-vCPU host this workload
  // ran 3.1x slower in sync=free whenever the host delivered one core.
  t0 = Clock::now();
  std::vector<std::uint32_t> domain_of(ids_.size());
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    domain_of[i] = i < ids_.size() / 2 ? 0 : 1;
  }
  if (!net_->partition(std::move(domain_of), 2,
                       net::SyncMode::kDeterministic)) {
    throw std::runtime_error("the network refused the 2-domain partition");
  }
  domains_ = 2;
  setup_.partition_s = seconds_since(t0);

  start_cbr();
}

// ---------------------------------------------------------------------
// Running.

void Rig::warm() { net_->run_until(plan_->warm_s); }

RunPhase Rig::run() {
  RunPhase r;
  r.begin = snapshot();
  const double c0 = process_cpu_s();
  const auto t0 = Clock::now();
  {
    const SpanRecorder::Scope span(rec_, Layer::kRun);
    net_->run_until(plan_->stop_s);
  }
  r.wall_s = seconds_since(t0);
  r.cpu_s = process_cpu_s() - c0;
  r.end = snapshot();
  return r;
}

void Rig::drain() { net_->run(); }

Snapshot Rig::snapshot() const {
  Snapshot s;
  s.delivered = ledger_->delivered_total();
  s.dropped = drops_->total();
  const net::SimStats sim = net_->sim_stats();
  s.events = sim.events_executed;
  s.heap_fallback = sim.events_heap_fallback;
  s.clamped = sim.clamped_schedules;
  s.pool_acquired = sim.packets_acquired;
  for (core::EmbeddedRouter* r : routers_) {
    s.arrivals += r->stats().received;
    s.guard_refusals += r->stats().guard_drops;
    s.cache_hits += r->cache_stats().hits;
    s.cache_misses += r->cache_stats().misses;
    s.slow_path_installs += r->routing().slow_path_installs();
  }
  if (const net::DomainRuntime* d = net_->domain_runtime()) {
    s.windows = d->windows_sum();
    s.handoffs = d->handoffs_in_sum();
  }
  return s;
}

Books Rig::books() const {
  Books b;
  std::uint64_t sent[4] = {};
  for (const auto& src : cbr_) {
    sent[0] += src->packets_sent();
    const std::uint32_t id = src->spec().flow_id;
    if (src->packets_sent() != ledger_->delivered(id) + drops_->drops(id)) {
      ++b.unbalanced_flows;
    }
  }
  if (injector_) {
    sent[1] = injector_->sent();
  }
  if (loadgen_) {
    sent[2] = loadgen_->stats().packets_sent;
  }
  if (attacks_) {
    sent[3] = attacks_->injected_total();
    for (const net::AttackRecord& a : attacks_->records()) {
      if (a.injected !=
          ledger_->delivered(a.flow_id) + drops_->drops(a.flow_id)) {
        ++b.unbalanced_flows;
      }
    }
  }
  // Ledger-fed flows (Zipf stream, load generator): every flow exact.
  if (!ledger_->conserved(*drops_)) {
    ++b.unbalanced_flows;
  }
  for (std::size_t r = 0; r < 4; ++r) {
    b.ranges.push_back(FlowBook{kRangeNames[r], sent[r],
                                delivered_by_range_[r],
                                drops_->drops_in_range(kRangeLo[r],
                                                       kRangeHi[r])});
  }
  std::set<const net::PacketPool*> pools{&net_->pool()};
  for (const net::NodeId id : ids_) {
    pools.insert(&net_->pool_for(id));
  }
  for (const net::PacketPool* p : pools) {
    b.pool_in_use += p->stats().in_use;
  }
  return b;
}

std::uint64_t Rig::digest() const {
  Fnv f;
  for (const FlowBook& b : books().ranges) {
    f.add(b.sent);
    f.add(b.delivered);
    f.add(b.dropped);
  }
  for (const std::uint64_t n : drops_->reason_counts()) {
    f.add(n);
  }
  for (const double q : {0.5, 0.99, 0.999}) {
    f.add(ledger_->latency_ns().quantile(q));
  }
  for (const core::EmbeddedRouter* r : routers_) {
    f.add(r->stats().engine_cycles);
    f.add(r->stats().forwarded);
  }
  return f.h;
}

std::string Rig::digest_text() const {
  const Books b = books();
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  for (const FlowBook& r : b.ranges) {
    delivered += r.delivered;
    dropped += r.dropped;
  }
  std::uint64_t cycles = 0;
  for (const core::EmbeddedRouter* r : routers_) {
    cycles += r->stats().engine_cycles;
  }
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "%016llx (modelled: offered=%llu delivered=%llu dropped=%llu "
                "p99_latency_ms=%.3f engine_cycles=%llu)",
                static_cast<unsigned long long>(digest()),
                static_cast<unsigned long long>(b.offered()),
                static_cast<unsigned long long>(delivered),
                static_cast<unsigned long long>(dropped),
                ledger_->latency_quantile_s(0.99) * 1e3,
                static_cast<unsigned long long>(cycles));
  std::string out = buf;
  const auto& reasons = drops_->reason_counts();
  for (std::size_t i = 0; i < reasons.size(); ++i) {
    if (reasons[i] != 0) {
      out += " ";
      out += empls::obs::to_string(static_cast<empls::obs::DropReason>(i));
      out += '=';
      out += std::to_string(reasons[i]);
    }
  }
  return out;
}

std::size_t Rig::pool_high_water() const {
  return net_->sim_stats().pool_high_water;
}

double Rig::fib_bytes_per_entry() const {
  return trie_ != nullptr ? trie_->memory_stats().bytes_per_entry() : 0.0;
}

}  // namespace perfbench
