// Open-loop traffic generation at scale.
//
// The existing sources in net/traffic.hpp are closed-loop convenience
// generators: one C++ object per flow, a FlowStats entry per flow that
// keeps every latency sample.  Pushing the simulator past its
// saturation knee needs the opposite shape — offered load that does not
// slow down when the network congests (open loop), millions of
// concurrent flows, heavy-tailed flow sizes — with bookkeeping that
// stays O(1) per packet and allocation-free at that scale.
//
//   * OpenLoopGenerator — Poisson or MMPP (Markov-modulated Poisson)
//     packet arrivals over a fixed population of flow slots held in
//     flat arrays (no per-flow heap objects).  Each arrival picks a
//     slot uniformly; when a slot's flow finishes its Pareto-sized
//     packet budget, a fresh flow id takes the slot — so flow churn is
//     unbounded while live state stays flat.
//   * FlowLedger — per-flow sent/delivered tallies in open-addressing
//     flat tables plus one HDR histogram of delivery latency (p99/p999
//     at bucket resolution), replacing FlowStats' per-flow sample
//     vectors, which are unusable at this flow count.
//
// Flow-id space partitioning (so victim statistics stay clean):
//   scripted / victim flows  <  kLoadGenFlowBase
//   open-loop generators     [kLoadGenFlowBase, kAttackFlowBase)
//   attack campaigns         [kAttackFlowBase, kOamFlowBase)
//   OAM probes               >= kOamFlowBase (0xFFF00000)
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "mpls/packet.hpp"
#include "net/fault_injector.hpp"
#include "net/flat_counts.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"

namespace empls::net {

inline constexpr std::uint32_t kLoadGenFlowBase = 0x40000000;
inline constexpr std::uint32_t kAttackFlowBase = 0x80000000;
/// Id block per generator: 16M flows before a generator would wrap.
inline constexpr std::uint32_t kLoadGenFlowStride = 0x01000000;

/// Allocation-light flow accounting for open-loop runs: flat tables for
/// per-flow sent/delivered and one histogram for latency quantiles.
class FlowLedger {
 public:
  FlowLedger() : sent_(1 << 16), delivered_(1 << 16) {}

  void on_sent(std::uint32_t flow_id) {
    ++sent_[flow_id];
    ++sent_total_;
  }

  void on_delivered(std::uint32_t flow_id, double latency_s) {
    ++delivered_[flow_id];
    ++delivered_total_;
    latency_ns_.record(static_cast<std::uint64_t>(latency_s * 1e9));
  }

  [[nodiscard]] std::uint64_t sent_total() const noexcept {
    return sent_total_;
  }
  [[nodiscard]] std::uint64_t delivered_total() const noexcept {
    return delivered_total_;
  }
  [[nodiscard]] std::uint64_t sent(std::uint32_t flow_id) const {
    return sent_.get(flow_id);
  }
  [[nodiscard]] std::uint64_t delivered(std::uint32_t flow_id) const {
    return delivered_.get(flow_id);
  }
  [[nodiscard]] const obs::Histogram& latency_ns() const noexcept {
    return latency_ns_;
  }
  /// Delivery-latency quantile in seconds (bucket resolution).
  [[nodiscard]] double latency_quantile_s(double q) const noexcept {
    return static_cast<double>(latency_ns_.quantile(q)) * 1e-9;
  }

  /// Exact flow conservation against the drop ledger: every flow this
  /// ledger saw must satisfy sent == delivered + accounted drops.
  [[nodiscard]] bool conserved(const DropAccountant& drops) const {
    bool ok = true;
    sent_.for_each([&](std::uint32_t flow, std::uint64_t sent) {
      if (sent != delivered_.get(flow) + drops.drops(flow)) {
        ok = false;
      }
    });
    return ok;
  }

 private:
  FlatCounts sent_;
  FlatCounts delivered_;
  obs::Histogram latency_ns_;
  std::uint64_t sent_total_ = 0;
  std::uint64_t delivered_total_ = 0;
};

struct LoadGenConfig {
  enum class Arrivals : std::uint8_t {
    kPoisson,  // exponential inter-arrival gaps at rate_pps
    kMmpp,     // two-state MMPP: base rate_pps / burst_rate_pps
  };

  Arrivals arrivals = Arrivals::kPoisson;
  NodeId ingress = 0;
  mpls::Ipv4Address dst{};
  /// Mean aggregate arrival rate (base state for MMPP).
  double rate_pps = 10000;
  /// MMPP burst-state rate; 0 defaults to 4x rate_pps.
  double burst_rate_pps = 0;
  /// MMPP mean dwell time per state (exponential sojourns).
  SimTime mean_sojourn = 100e-3;
  /// Live flow population (slot count; flat arrays of this size are the
  /// generator's only per-flow state).
  std::size_t concurrent_flows = 1024;
  /// Pareto(alpha, min) flow sizes in packets — heavy-tailed: most
  /// flows are mice, the tail carries the bytes.
  double pareto_alpha = 1.5;
  unsigned pareto_min_packets = 4;
  std::uint8_t cos = 0;
  std::size_t payload_bytes = 160;
  std::uint64_t seed = 1;
  /// First flow id this generator hands out (block of
  /// kLoadGenFlowStride ids).
  std::uint32_t flow_id_base = kLoadGenFlowBase;
  SimTime start = 0;
  SimTime stop = 1.0;
};

class OpenLoopGenerator {
 public:
  /// `ledger` may be shared by several generators; it must outlive the
  /// run.
  OpenLoopGenerator(Network& net, const LoadGenConfig& cfg,
                    FlowLedger* ledger);
  OpenLoopGenerator(const OpenLoopGenerator&) = delete;
  OpenLoopGenerator& operator=(const OpenLoopGenerator&) = delete;

  /// Arm the arrival process (first event at cfg.start).
  void start();

  struct GenStats {
    std::uint64_t packets_sent = 0;
    std::uint64_t flows_started = 0;
    std::uint64_t flows_completed = 0;
    std::uint64_t state_switches = 0;  // MMPP only
  };
  [[nodiscard]] const GenStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const LoadGenConfig& config() const noexcept { return cfg_; }
  /// Half-open id range this generator draws from.
  [[nodiscard]] std::uint32_t flow_id_lo() const noexcept {
    return cfg_.flow_id_base;
  }
  [[nodiscard]] std::uint32_t flow_id_hi() const noexcept {
    return cfg_.flow_id_base + kLoadGenFlowStride;
  }

 private:
  void arrival();
  void toggle_state();
  void refill_slot(std::size_t slot);
  [[nodiscard]] double current_rate() const noexcept;
  [[nodiscard]] std::uint32_t pareto_packets();

  Network* net_;
  LoadGenConfig cfg_;
  FlowLedger* ledger_;
  // Per-slot flat state: the live flow's id and its remaining packet
  // budget.  No other per-flow storage exists in the generator.
  std::vector<std::uint32_t> slot_flow_;
  std::vector<std::uint32_t> slot_remaining_;
  std::mt19937_64 rng_;
  GenStats stats_;
  std::uint32_t next_flow_offset_ = 0;
  bool bursting_ = false;
};

}  // namespace empls::net
