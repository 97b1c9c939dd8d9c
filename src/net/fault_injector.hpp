// Deterministic fault-injection campaigns for the simulated network.
//
// Robustness claims need adversarial inputs, not just the one scripted
// cut: FaultInjector schedules link cuts, sub-detection-window flaps,
// whole-node crashes and information-base corruptions (single-event
// upsets that garble a programmed label while the software binding table
// stays intact) against the running simulation.  Campaigns are generated from
// a seed (std::mt19937_64) over the actual topology, so a failing run
// reproduces exactly from its seed.
//
// DropAccountant closes the books: subscribing to both the router
// discard handlers and the link drop hooks, it attributes every lost
// packet to a flow and a reason, so a campaign can assert flow
// conservation — sent = delivered + accounted drops — for every flow
// that survives the run.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/flat_counts.hpp"
#include "net/ldp.hpp"
#include "net/network.hpp"
#include "net/stats.hpp"
#include "obs/drop_reason.hpp"

namespace empls::net {

enum class FaultKind : std::uint8_t {
  kCut,      // connection down, up again after `duration` (0: forever)
  kFlap,     // short down/up blip, meant to undercut the dead interval
  kCrash,    // every connection of node `a` down, up after `duration`
  kCorrupt,  // garble a programmed binding at `a`; resync after `duration`
};

[[nodiscard]] constexpr std::string_view to_string(FaultKind k) noexcept {
  switch (k) {
    case FaultKind::kCut:
      return "cut";
    case FaultKind::kFlap:
      return "flap";
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kCorrupt:
      return "corrupt";
  }
  return "?";
}

struct FaultSpec {
  FaultKind kind = FaultKind::kCut;
  SimTime at = 0;
  NodeId a = 0;
  NodeId b = 0;          // peer (kCut / kFlap only)
  SimTime duration = 0;  // repair delay; 0 = never repaired
  std::uint64_t salt = 0;  // corruption target selector (kCorrupt)
};

struct FaultRecord {
  FaultSpec spec;
  bool injected = false;
  bool cleared = false;    // repair/recovery action ran
  bool corrupted = false;  // kCorrupt: a binding was actually garbled
  unsigned resynced = 0;   // kCorrupt: divergent entries the audit fixed
};

class FaultInjector {
 public:
  FaultInjector(Network& net, ControlPlane& cp) : net_(&net), cp_(&cp) {}
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedule one fault (and its repair, when duration > 0) on the
  /// network's event queue.  Returns the index of its record.
  std::size_t inject(const FaultSpec& spec);

  /// Seeded mixed campaign over the current topology: `count` faults at
  /// uniform times in [start, horizon), targets drawn from the actual
  /// connections and routers.  Flap durations are kept below
  /// `detection_window` so a hello protocol tuned to it must NOT declare
  /// them; other durations are long enough that it must.
  [[nodiscard]] std::vector<FaultSpec> generate_campaign(
      std::uint64_t seed, unsigned count, SimTime start, SimTime horizon,
      SimTime detection_window = 30e-3) const;

  /// inject() every spec.  Returns the number scheduled.
  std::size_t schedule_campaign(const std::vector<FaultSpec>& specs);

  [[nodiscard]] const std::vector<FaultRecord>& records() const noexcept {
    return records_;
  }

  /// "faults=50 cut=18 flap=14 crash=8 corrupt=10 corrupted=9 resynced=9"
  [[nodiscard]] std::string summary() const;

 private:
  void apply(std::size_t index);
  void repair(std::size_t index);

  Network* net_;
  ControlPlane* cp_;
  std::vector<FaultRecord> records_;
};

/// Per-flow drop ledger: every packet a router discards or a link drops,
/// attributed to its flow.  With the event queue drained, each flow must
/// satisfy sent = delivered + drops(flow) — anything else means a packet
/// vanished without a notification, which is a simulator bug.
class DropAccountant {
 public:
  explicit DropAccountant(Network& net);
  DropAccountant(const DropAccountant&) = delete;
  DropAccountant& operator=(const DropAccountant&) = delete;

  [[nodiscard]] std::uint64_t drops(std::uint32_t flow_id) const;
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  /// Per-reason totals indexed by obs::DropReason.
  [[nodiscard]] const obs::DropCounts& reason_counts() const noexcept {
    return reasons_;
  }

  /// Aggregate drops over a half-open flow-id range (used to close the
  /// books on an open-loop generator's id block without walking a map).
  [[nodiscard]] std::uint64_t drops_in_range(std::uint32_t lo,
                                             std::uint32_t hi) const;

  /// True when every flow in `stats` conserves packets.
  [[nodiscard]] bool conserved(const FlowStats& stats) const;

 private:
  void account(std::uint32_t flow_id, obs::DropReason reason);

  FlatCounts by_flow_;
  obs::DropCounts reasons_{};
  std::uint64_t total_ = 0;
};

}  // namespace empls::net
