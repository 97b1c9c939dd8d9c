#include "obs/trace.hpp"

#include <cinttypes>
#include <cstdio>
#include <ostream>

#include "net/mix.hpp"
#include "obs/drop_reason.hpp"

namespace empls::obs {

std::string_view to_string(SpanKind k) noexcept {
  switch (k) {
    case SpanKind::kJourney:
      return "journey-begin";
    case SpanKind::kIngress:
      return "ingress";
    case SpanKind::kEngineWait:
      return "engine-wait";
    case SpanKind::kEngineSearch:
      return "engine-search";
    case SpanKind::kLinkQueue:
      return "link-queue";
    case SpanKind::kLinkTransit:
      return "link-transit";
    case SpanKind::kDeliver:
      return "deliver";
    case SpanKind::kDrop:
      return "drop";
  }
  return "?";
}

namespace {

constexpr std::size_t round_up_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

// mix64 over the address bits: slab addresses share low-bit structure
// (fixed slot stride), so a strong mix is needed for the
// open-addressing table to probe well.  The golden-gamma pre-add keeps
// the null pointer off the finalizer's 0 → 0 fixed point.
std::size_t hash_ptr(const void* p) noexcept {
  const auto x = reinterpret_cast<std::uintptr_t>(p);
  return static_cast<std::size_t>(
      net::mix64(static_cast<std::uint64_t>(x) + net::kGoldenGamma));
}

}  // namespace

HopTracer::HopTracer(std::size_t capacity) {
  if (capacity == 0) {
    capacity = 1;
  }
  ring_.resize(round_up_pow2(capacity));
  table_.resize(1024);
}

std::size_t HopTracer::probe(const void* key) const noexcept {
  return hash_ptr(key) & (table_.size() - 1);
}

HopTracer::Slot* HopTracer::find(const void* key) noexcept {
  const std::size_t mask = table_.size() - 1;
  for (std::size_t i = probe(key);; i = (i + 1) & mask) {
    Slot& s = table_[i];
    if (s.key == key) {
      return &s;
    }
    if (s.key == nullptr) {
      return nullptr;
    }
  }
}

const HopTracer::Slot* HopTracer::find(const void* key) const noexcept {
  const std::size_t mask = table_.size() - 1;
  for (std::size_t i = probe(key);; i = (i + 1) & mask) {
    const Slot& s = table_[i];
    if (s.key == key) {
      return &s;
    }
    if (s.key == nullptr) {
      return nullptr;
    }
  }
}

HopTracer::Slot& HopTracer::insert(const void* key) {
  if ((table_used_ + 1) * 2 > table_.size()) {
    grow();
  }
  const std::size_t mask = table_.size() - 1;
  for (std::size_t i = probe(key);; i = (i + 1) & mask) {
    Slot& s = table_[i];
    if (s.key == key) {
      return s;
    }
    if (s.key == nullptr) {
      s.key = key;
      ++table_used_;
      return s;
    }
  }
}

void HopTracer::erase(Slot* slot) noexcept {
  // Backward-shift deletion keeps probe chains unbroken without
  // tombstones, so steady-state churn never degrades the table.
  const std::size_t mask = table_.size() - 1;
  std::size_t hole = static_cast<std::size_t>(slot - table_.data());
  std::size_t i = hole;
  for (;;) {
    i = (i + 1) & mask;
    Slot& cand = table_[i];
    if (cand.key == nullptr) {
      break;
    }
    const std::size_t home = probe(cand.key);
    // Move cand back into the hole iff the hole lies on its probe path.
    const bool movable = ((i - home) & mask) >= ((i - hole) & mask);
    if (movable) {
      table_[hole] = cand;
      hole = i;
    }
  }
  table_[hole] = Slot{};
  --table_used_;
}

void HopTracer::grow() {
  std::vector<Slot> old = std::move(table_);
  table_.assign(old.size() * 2, Slot{});
  table_used_ = 0;
  const std::size_t mask = table_.size() - 1;
  for (const Slot& s : old) {
    if (s.key == nullptr) {
      continue;
    }
    for (std::size_t i = probe(s.key);; i = (i + 1) & mask) {
      if (table_[i].key == nullptr) {
        table_[i] = s;
        ++table_used_;
        break;
      }
    }
  }
}

std::uint64_t HopTracer::begin(const void* packet, std::uint32_t flow,
                               std::uint64_t seq, std::uint32_t lane,
                               double ts) {
  if (!enabled_) {
    return 0;
  }
  Slot& s = insert(packet);
  if (s.trace_id == 0) {
    // Fresh slot — a recycled address whose journey already terminated,
    // or a brand-new packet.  A non-zero id here means the pool handed
    // the same slab address out again before the previous journey
    // ended; overwriting keeps the table self-healing.
    ++live_;
    if (live_ > live_high_water_) {
      live_high_water_ = live_;
    }
  }
  s.trace_id = ++journeys_;
  s.mark = -1.0;
  record(s.trace_id, SpanKind::kJourney, lane, ts, 0.0,
         static_cast<std::uint16_t>(seq & 0xffff), flow, 0);
  return s.trace_id;
}

std::uint64_t HopTracer::id_of(const void* packet) const noexcept {
  if (!enabled_) {
    return 0;
  }
  const Slot* s = find(packet);
  return s != nullptr ? s->trace_id : 0;
}

void HopTracer::end(const void* packet) noexcept {
  if (!enabled_) {
    return;
  }
  Slot* s = find(packet);
  if (s != nullptr) {
    erase(s);
    --live_;
  }
}

std::uint64_t HopTracer::detach(const void* packet) noexcept {
  if (!enabled_) {
    return 0;
  }
  Slot* s = find(packet);
  if (s == nullptr) {
    return 0;
  }
  const std::uint64_t id = s->trace_id;
  // The slot goes away but the journey stays live: live_ is not
  // decremented, attach() re-binds the same id at the new address.
  erase(s);
  return id;
}

void HopTracer::attach(const void* packet, std::uint64_t trace_id) {
  if (!enabled_ || trace_id == 0) {
    return;
  }
  Slot& s = insert(packet);
  if (s.trace_id != 0) {
    // The destination pool re-issued an address whose journey never
    // terminated; the newcomer wins, mirroring begin()'s self-healing.
    --live_;
  }
  s.trace_id = trace_id;
  s.mark = -1.0;
}

void HopTracer::mark(const void* packet, double ts) noexcept {
  if (!enabled_) {
    return;
  }
  Slot* s = find(packet);
  if (s != nullptr) {
    s->mark = ts;
  }
}

double HopTracer::take_mark(const void* packet) noexcept {
  if (!enabled_) {
    return -1.0;
  }
  Slot* s = find(packet);
  if (s == nullptr) {
    return -1.0;
  }
  const double m = s->mark;
  s->mark = -1.0;
  return m;
}

void HopTracer::record(std::uint64_t trace_id, SpanKind kind,
                       std::uint32_t lane, double ts, double dur,
                       std::uint16_t a, std::uint32_t b,
                       std::uint8_t flags) noexcept {
  if (!enabled_) {
    return;
  }
  TraceRecord& r = ring_[static_cast<std::size_t>(
      total_records_ & (ring_.size() - 1))];
  ++total_records_;
  r.ts = ts;
  r.dur = dur;
  r.trace_id = trace_id;
  r.lane = lane;
  r.b = b;
  r.a = a;
  r.kind = kind;
  r.flags = flags;
}

HopTracer::Stats HopTracer::stats() const noexcept {
  Stats s;
  s.journeys = journeys_;
  s.live = live_;
  s.live_high_water = live_high_water_;
  s.records = total_records_;
  s.dropped_records =
      total_records_ > ring_.size() ? total_records_ - ring_.size() : 0;
  return s;
}

std::vector<TraceRecord> HopTracer::snapshot() const {
  std::vector<TraceRecord> out;
  const std::uint64_t held =
      total_records_ < ring_.size() ? total_records_ : ring_.size();
  out.reserve(static_cast<std::size_t>(held));
  for (std::uint64_t i = total_records_ - held; i < total_records_; ++i) {
    out.push_back(ring_[static_cast<std::size_t>(i & (ring_.size() - 1))]);
  }
  return out;
}

namespace {

void write_json_string(std::ostream& out, std::string_view s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\r':
        out << "\\r";
        break;
      case '\t':
        out << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

// Sim seconds -> microseconds with a fixed format so output is
// byte-stable across runs and platforms.
void write_us(std::ostream& out, double seconds) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.4f", seconds * 1e6);
  out << buf;
}

void write_thread_meta(std::ostream& out, int pid, std::size_t tid,
                       std::string_view name, bool& first) {
  if (!first) {
    out << ",\n";
  }
  first = false;
  out << R"({"ph":"M","pid":)" << pid << R"(,"tid":)" << tid
      << R"(,"name":"thread_name","args":{"name":)";
  write_json_string(out, name);
  out << "}}";
}

}  // namespace

void HopTracer::write_chrome_trace(
    std::ostream& out, const std::vector<std::string>& node_names,
    const std::vector<std::string>& link_names,
    const ExtraEventsWriter& extra) const {
  out << "{\"traceEvents\":[\n";
  bool first = true;
  auto meta_process = [&](int pid, std::string_view name) {
    if (!first) {
      out << ",\n";
    }
    first = false;
    out << R"({"ph":"M","pid":)" << pid
        << R"(,"name":"process_name","args":{"name":)";
    write_json_string(out, name);
    out << "}}";
  };
  meta_process(1, "routers");
  if (!link_names.empty()) {
    meta_process(2, "links");
  }
  for (std::size_t i = 0; i < node_names.size(); ++i) {
    write_thread_meta(out, 1, i, node_names[i], first);
  }
  for (std::size_t i = 0; i < link_names.size(); ++i) {
    write_thread_meta(out, 2, i, link_names[i], first);
  }

  for (const TraceRecord& r : snapshot()) {
    if (!first) {
      out << ",\n";
    }
    first = false;
    const bool on_link = (r.flags & kSpanOnLink) != 0;
    const int pid = on_link ? 2 : 1;
    out << "{\"name\":";
    write_json_string(out, to_string(r.kind));
    out << R"(,"cat":"empls")";
    if (r.kind == SpanKind::kJourney) {
      out << R"(,"ph":"i","s":"t")";
    } else {
      out << R"(,"ph":"X")";
    }
    out << ",\"pid\":" << pid << ",\"tid\":" << r.lane << ",\"ts\":";
    write_us(out, r.ts);
    if (r.kind != SpanKind::kJourney) {
      out << ",\"dur\":";
      write_us(out, r.dur);
    }
    out << ",\"args\":{";
    bool first_arg = true;
    auto arg_u64 = [&](const char* key, std::uint64_t v) {
      if (!first_arg) {
        out << ',';
      }
      first_arg = false;
      out << '"' << key << "\":" << v;
    };
    auto arg_str = [&](const char* key, std::string_view v) {
      if (!first_arg) {
        out << ',';
      }
      first_arg = false;
      out << '"' << key << "\":";
      write_json_string(out, v);
    };
    if (r.trace_id != 0) {
      arg_u64("trace", r.trace_id);
    }
    switch (r.kind) {
      case SpanKind::kJourney:
        arg_u64("flow", r.b);
        arg_u64("seq", r.a);
        break;
      case SpanKind::kIngress:
        arg_u64("level", r.a);
        arg_u64("key", r.b);
        arg_u64("labeled", (r.flags & kSpanLabeled) != 0 ? 1 : 0);
        break;
      case SpanKind::kEngineSearch:
        arg_u64("level", r.a);
        arg_u64("cycles", r.b);
        arg_u64("hit", (r.flags & kSpanHit) != 0 ? 1 : 0);
        arg_u64("cached", (r.flags & kSpanCached) != 0 ? 1 : 0);
        break;
      case SpanKind::kLinkTransit:
        arg_u64("bytes", r.b);
        break;
      case SpanKind::kDrop:
        arg_str("reason",
                to_string(static_cast<DropReason>(
                    r.a < kDropReasonCount ? r.a
                                           : static_cast<std::uint16_t>(
                                                 DropReason::kOther))));
        break;
      case SpanKind::kEngineWait:
      case SpanKind::kLinkQueue:
      case SpanKind::kDeliver:
        break;
    }
    out << "}}";
  }
  if (extra) {
    extra(out, first);
  }
  out << "\n],\"displayTimeUnit\":\"ns\"}\n";
}

}  // namespace empls::obs
