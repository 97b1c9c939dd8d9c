// The four benchmark workloads, built through the simulator's public API.
//
// A Rig is one repetition of a workload: its constructor is the timed
// set-up (topology, LSP signalling, FIB install, partition), warm()
// runs to the warm-up mark, run() is the timed run phase, drain() runs
// the network idle, and books()/digest() close and fingerprint the
// simulated outcome.  With a SpanRecorder the routers, engines, ledger
// and sampler are the timed variants from spans.hpp; without one they
// are the plain production classes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "spans.hpp"

namespace empls::net {
class ControlPlane;
class CbrSource;
class DropAccountant;
}  // namespace empls::net
namespace empls::obs {
class MetricsRegistry;
class Timeline;
}  // namespace empls::obs
namespace empls::sw {
class TrieEngine;
}  // namespace empls::sw

namespace perfbench {

struct SetupTimes {
  double topology_s = 0;
  double lsp_s = 0;
  double fib_s = 0;
  double partition_s = 0;
  [[nodiscard]] double total_s() const {
    return topology_s + lsp_s + fib_s + partition_s;
  }
};

/// Books of one flow-id range: what its sources sent, what the network
/// delivered, and what it dropped with an attributed reason.
struct FlowBook {
  std::string name;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
};

struct Books {
  std::vector<FlowBook> ranges;
  /// Flows whose own sent != delivered + dropped.
  std::uint64_t unbalanced_flows = 0;
  /// Pooled packets still held after the drain (must be 0).
  std::size_t pool_in_use = 0;

  [[nodiscard]] std::uint64_t offered() const;
  /// Packets neither delivered nor dropped with a reason.
  [[nodiscard]] std::uint64_t unaccounted() const;
  /// One line per violated rule; empty when the books close.
  [[nodiscard]] std::vector<std::string> failures() const;
};

/// Cumulative simulator counters at one instant.
struct Snapshot {
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t events = 0;
  std::uint64_t heap_fallback = 0;
  std::uint64_t clamped = 0;
  std::uint64_t pool_acquired = 0;
  std::uint64_t arrivals = 0;  // EmbeddedRouter::receive calls
  std::uint64_t guard_refusals = 0;
  std::uint64_t slow_path_installs = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t windows = 0;
  std::uint64_t handoffs = 0;
  [[nodiscard]] std::uint64_t retired() const { return delivered + dropped; }
};

struct RunPhase {
  double wall_s = 0;
  double cpu_s = 0;  // process user + system
  Snapshot begin;
  Snapshot end;
  [[nodiscard]] std::uint64_t retired() const {
    return end.retired() - begin.retired();
  }
};

/// Process CPU time (user + system) in seconds.
[[nodiscard]] double process_cpu_s();

class ScheduleInjector;

class Rig {
 public:
  /// Builds the workload; the time this takes, per phase, is setup().
  Rig(const Plan& plan, SpanRecorder* rec);
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig();

  [[nodiscard]] const SetupTimes& setup() const noexcept { return setup_; }
  /// Number of event domains (1 when unpartitioned).
  [[nodiscard]] std::size_t domains() const noexcept { return domains_; }

  void warm();
  RunPhase run();
  void drain();

  [[nodiscard]] Snapshot snapshot() const;
  [[nodiscard]] Books books() const;
  /// FNV-1a over the modelled outcome: per-range books, drops per
  /// reason, delivery-latency quantiles, modelled engine cycles.
  [[nodiscard]] std::uint64_t digest() const;
  /// The digested values in readable form (all modelled, not speed).
  [[nodiscard]] std::string digest_text() const;
  [[nodiscard]] std::size_t pool_high_water() const;
  /// Bytes per FIB entry of the trie engine (0 without one).
  [[nodiscard]] double fib_bytes_per_entry() const;

 private:
  core::EmbeddedRouter& add_router(const std::string& name,
                                   std::unique_ptr<sw::LabelEngine> engine,
                                   const core::RouterConfig& cfg);
  /// A line of `nodes` routers (LERs at both ends); link 0 runs at
  /// `first_bw_bps`, the rest at `bw_bps`.
  void build_line(std::size_t nodes, bool validate_wire, double first_bw_bps,
                  double bw_bps, double delay_s);
  void build_line8();
  void build_fib();
  void build_overload();
  void build_split();
  void start_cbr();

  const Plan* plan_;
  SpanRecorder* rec_;
  SetupTimes setup_;
  std::size_t domains_ = 1;

  // Declaration order is destruction order in reverse: everything that
  // holds a reference into the network goes after it.
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<net::ControlPlane> cp_;
  std::vector<net::NodeId> ids_;
  std::vector<core::EmbeddedRouter*> routers_;
  empls::sw::TrieEngine* trie_ = nullptr;
  std::unique_ptr<net::FlowLedger> ledger_;
  std::unique_ptr<net::DropAccountant> drops_;
  std::uint64_t delivered_by_range_[4] = {};
  std::vector<std::unique_ptr<net::CbrSource>> cbr_;
  std::unique_ptr<ScheduleInjector> injector_;
  std::unique_ptr<net::OpenLoopGenerator> loadgen_;
  std::unique_ptr<net::AttackCampaign> attacks_;
  std::unique_ptr<empls::obs::MetricsRegistry> metrics_;
  std::unique_ptr<empls::obs::Timeline> timeline_;
};

}  // namespace perfbench
