#include "spans.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <ostream>

namespace perfbench {

namespace {

constexpr std::string_view kLayerNames[kLayerCount] = {
    "net.run",       "core.receive", "sw.update", "sw.lookup",
    "sw.write_pair", "net.ledger",   "obs.sample"};

std::atomic<std::uint64_t> next_generation{1};

// The calling thread's log in the recorder of generation tl_generation.
thread_local std::uint64_t tl_generation = 0;
thread_local void* tl_log = nullptr;

}  // namespace

std::string_view to_string(Layer layer) noexcept {
  return kLayerNames[static_cast<std::size_t>(layer)];
}

Totals operator-(const Totals& a, const Totals& b) {
  Totals d{};
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    d[i].count = a[i].count - b[i].count;
    d[i].total_ns = a[i].total_ns - b[i].total_ns;
    d[i].self_ns = a[i].self_ns - b[i].self_ns;
  }
  return d;
}

std::uint64_t packet_key(const empls::mpls::Packet& p) noexcept {
  // Generators number packets per source; the flow id tells sources
  // apart.  splitmix64 keeps the keys well spread for trace viewers.
  std::uint64_t z = (std::uint64_t{p.flow_id} << 40) ^ p.id;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) | 1u;  // never 0: 0 means "inherit"
}

SpanRecorder::SpanRecorder(std::size_t keep)
    : generation_(next_generation.fetch_add(1)), keep_(keep) {}

SpanRecorder::ThreadLog& SpanRecorder::local() {
  if (tl_generation != generation_) {
    auto log = std::make_unique<ThreadLog>();
    log->stack.reserve(16);
    const std::lock_guard<std::mutex> lock(mu_);
    log->tid = static_cast<std::uint32_t>(logs_.size() + 1);
    tl_log = log.get();
    tl_generation = generation_;
    logs_.push_back(std::move(log));
  }
  return *static_cast<ThreadLog*>(tl_log);
}

void SpanRecorder::begin(Layer layer, std::uint64_t packet) {
  ThreadLog& log = local();
  if (packet == 0 && !log.stack.empty()) {
    packet = log.stack.back().packet;
  }
  log.stack.push_back(Frame{layer, packet, now_ns(), 0});
}

void SpanRecorder::end() {
  const std::int64_t t = now_ns();
  ThreadLog& log = local();
  const Frame f = log.stack.back();
  log.stack.pop_back();
  const auto dur = static_cast<std::uint64_t>(std::max<std::int64_t>(
      t - f.start_ns, 0));
  LayerTotals& tot = log.totals[static_cast<std::size_t>(f.layer)];
  ++tot.count;
  tot.total_ns += dur;
  tot.self_ns += dur - std::min(dur, f.child_ns);
  if (!log.stack.empty()) {
    log.stack.back().child_ns += dur;
  }
  if (keeping_.load(std::memory_order_relaxed) && kept_.load(std::memory_order_relaxed) < keep_ &&
      kept_.fetch_add(1, std::memory_order_relaxed) < keep_) {
    log.records.push_back(Record{f.layer, log.tid, f.packet, f.start_ns, dur});
  }
}

Totals SpanRecorder::totals() const {
  Totals sum{};
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& log : logs_) {
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      sum[i].count += log->totals[i].count;
      sum[i].total_ns += log->totals[i].total_ns;
      sum[i].self_ns += log->totals[i].self_ns;
    }
  }
  return sum;
}

std::size_t SpanRecorder::kept() const {
  std::size_t n = 0;
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& log : logs_) {
    n += log->records.size();
  }
  return n;
}

void SpanRecorder::write_chrome_trace(std::ostream& out) const {
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
         "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
         "\"args\":{\"name\":\"perfbench\"}}";
  const std::lock_guard<std::mutex> lock(mu_);
  char buf[256];
  for (const auto& log : logs_) {
    for (const Record& r : log->records) {
      std::snprintf(buf, sizeof buf,
                    ",\n{\"name\":\"%.*s\",\"cat\":\"layer\",\"ph\":\"X\","
                    "\"pid\":1,\"tid\":%" PRIu32 ",\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"packet\":\"%016" PRIx64 "\"}}",
                    static_cast<int>(to_string(r.layer).size()),
                    to_string(r.layer).data(), r.tid,
                    static_cast<double>(r.start_ns) / 1e3,
                    static_cast<double>(r.dur_ns) / 1e3, r.packet);
      out << buf;
    }
  }
  out << "\n]}\n";
}

}  // namespace perfbench
