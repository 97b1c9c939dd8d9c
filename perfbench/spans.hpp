// Outside-in span tracing for the benchmark's traced run.
//
// The benchmark times calls into each layer's public functions from its
// own code, never from inside the simulator:
//
//   net.run       Network::run_until, as called by the benchmark
//   core.receive  EmbeddedRouter::receive        (TimedRouter)
//   sw.update     LabelEngine::update            (TimedEngine)
//   sw.lookup     LabelEngine::lookup            (TimedEngine)
//   sw.write_pair LabelEngine::write_pair        (TimedEngine)
//   net.ledger    FlowLedger::on_delivered       (delivery handler)
//   obs.sample    export_metrics + Timeline::sample (sampler tick)
//
// Each thread keeps a stack of open spans, so a span's self time is its
// duration minus the time its children cover.  Totals are kept for
// every span; full records (start, duration, packet id) only for the
// first `keep` spans while keeping is switched on, and they are written
// out as Chrome-trace JSON (loadable in Perfetto) when the run ends.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "core/embedded_router.hpp"
#include "sw/engine.hpp"

namespace perfbench {

namespace core = empls::core;
namespace sw = empls::sw;

enum class Layer : std::uint8_t {
  kRun,
  kReceive,
  kUpdate,
  kLookup,
  kWritePair,
  kLedger,
  kSample,
};
inline constexpr std::size_t kLayerCount = 7;
[[nodiscard]] std::string_view to_string(Layer layer) noexcept;

struct LayerTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};
using Totals = std::array<LayerTotals, kLayerCount>;
/// Element-wise a - b (totals only grow, so a later snapshot minus an
/// earlier one is the interval between them).
[[nodiscard]] Totals operator-(const Totals& a, const Totals& b);

/// Identifier shared by every span of one packet.
[[nodiscard]] std::uint64_t packet_key(const empls::mpls::Packet& p) noexcept;

class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t keep = 0);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Open a span on the calling thread; `packet` 0 inherits the
  /// enclosing span's packet.
  void begin(Layer layer, std::uint64_t packet = 0);
  void end();

  /// Whether full span records are kept (still bounded by `keep`).
  void set_keeping(bool on) noexcept {
    keeping_.store(on, std::memory_order_relaxed);
  }

  /// Totals over every thread.  Call while no traced code runs.
  [[nodiscard]] Totals totals() const;
  [[nodiscard]] std::size_t kept() const;
  /// Chrome-trace JSON of the kept records, one pid, one tid per
  /// thread, the packet id in each event's args.
  void write_chrome_trace(std::ostream& out) const;

  class Scope {
   public:
    Scope(SpanRecorder* rec, Layer layer, std::uint64_t packet = 0)
        : rec_(rec) {
      if (rec_ != nullptr) {
        rec_->begin(layer, packet);
      }
    }
    ~Scope() {
      if (rec_ != nullptr) {
        rec_->end();
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
  };

 private:
  using Clock = std::chrono::steady_clock;
  struct Frame {
    Layer layer;
    std::uint64_t packet;
    std::int64_t start_ns;
    std::uint64_t child_ns;
  };
  struct Record {
    Layer layer;
    std::uint32_t tid;
    std::uint64_t packet;
    std::int64_t start_ns;
    std::uint64_t dur_ns;
  };
  struct ThreadLog {
    std::uint32_t tid = 0;
    std::vector<Frame> stack;
    Totals totals{};
    std::vector<Record> records;
  };

  [[nodiscard]] std::int64_t now_ns() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - t0_)
        .count();
  }
  ThreadLog& local();

  const std::uint64_t generation_;
  const Clock::time_point t0_ = Clock::now();
  const std::size_t keep_;
  std::atomic<std::size_t> kept_{0};
  std::atomic<bool> keeping_{false};
  mutable std::mutex mu_;  // guards logs_
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

/// LabelEngine decorator timing update / lookup / write_pair into the
/// recorder.  Behaviour is the wrapped engine's, call for call: the
/// decorator's own epoch advances on exactly the writes the inner
/// engine's would.
class TimedEngine final : public sw::LabelEngine {
 public:
  TimedEngine(std::unique_ptr<sw::LabelEngine> inner, SpanRecorder& rec)
      : inner_(std::move(inner)), rec_(&rec) {}

  [[nodiscard]] sw::LabelEngine& inner() noexcept { return *inner_; }

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  [[nodiscard]] std::optional<empls::mpls::LabelPair> lookup(
      unsigned level, empls::rtl::u32 key) override {
    const SpanRecorder::Scope span(rec_, Layer::kLookup);
    return inner_->lookup(level, key);
  }
  [[nodiscard]] empls::rtl::u64 last_lookup_cost_cycles()
      const noexcept override {
    return inner_->last_lookup_cost_cycles();
  }
  [[nodiscard]] bool cacheable() const noexcept override {
    return inner_->cacheable();
  }
  sw::UpdateOutcome update(empls::mpls::Packet& packet, unsigned level,
                           empls::hw::RouterType router_type) override {
    const SpanRecorder::Scope span(rec_, Layer::kUpdate, packet_key(packet));
    return inner_->update(packet, level, router_type);
  }
  [[nodiscard]] unsigned parallelism() const noexcept override {
    return inner_->parallelism();
  }
  [[nodiscard]] std::size_t level_size(unsigned level) const override {
    return inner_->level_size(level);
  }

 protected:
  void do_clear() override { inner_->clear(); }
  bool do_write_pair(unsigned level,
                     const empls::mpls::LabelPair& pair) override {
    const SpanRecorder::Scope span(rec_, Layer::kWritePair);
    return inner_->write_pair(level, pair);
  }
  bool do_corrupt_entry(unsigned level, empls::rtl::u32 key,
                        empls::rtl::u32 new_label) override {
    return inner_->corrupt_entry(level, key, new_label);
  }

 private:
  std::unique_ptr<sw::LabelEngine> inner_;
  SpanRecorder* rec_;
};

/// EmbeddedRouter whose receive() is timed into the recorder.
class TimedRouter final : public core::EmbeddedRouter {
 public:
  TimedRouter(std::string name, std::unique_ptr<sw::LabelEngine> engine,
              core::RouterConfig config, SpanRecorder& rec)
      : EmbeddedRouter(std::move(name), std::move(engine), config),
        rec_(&rec) {}

  void receive(empls::net::PacketHandle packet,
               empls::mpls::InterfaceId in_if) override {
    const SpanRecorder::Scope span(rec_, Layer::kReceive,
                                   packet_key(*packet));
    EmbeddedRouter::receive(std::move(packet), in_if);
  }

 private:
  SpanRecorder* rec_;
};

}  // namespace perfbench
