// Hello-protocol failure detection and automatic LSP restoration.
//
// Real MPLS deployments do not reroute by divine intervention: an IGP
// hello protocol notices a dead link after a dead-interval, and the
// control plane then re-signals the affected LSPs.  FailureDetector
// models exactly that: it polls watched connections every
// `hello_interval`; a connection down for `dead_multiplier` consecutive
// hellos is declared failed, and every live LSP crossing it is rerouted
// through ControlPlane::reroute_lsp.  Detection latency — the window in
// which traffic blackholes — is therefore hello_interval x
// dead_multiplier, the standard IGP tuning knob.
//
// Recovered links are noticed the same way and simply become available
// to future path computations (no automatic re-optimisation).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/ldp.hpp"
#include "net/network.hpp"

namespace empls::net {

class FailureDetector {
 public:
  FailureDetector(Network& net, ControlPlane& cp,
                  SimTime hello_interval = 10e-3,
                  unsigned dead_multiplier = 3)
      : net_(&net),
        cp_(&cp),
        hello_(hello_interval),
        dead_multiplier_(dead_multiplier) {}
  FailureDetector(const FailureDetector&) = delete;
  FailureDetector& operator=(const FailureDetector&) = delete;

  /// Watch the connection a—b (both directions).
  void watch(NodeId a, NodeId b);

  /// Watch every connection in the network's current topology.
  void watch_all();

  /// Arm the hello timer (idempotent).  The timer stops rescheduling
  /// past `stop_at`, so event-queue drains terminate — pass the
  /// simulation horizon.  A horizon closer than one hello interval is
  /// an explicit no-op: the detector stays un-started (and says so via
  /// the return value) so a later start() with a real horizon arms the
  /// timer instead of silently never polling.
  bool start(SimTime stop_at);

  [[nodiscard]] bool started() const noexcept { return started_; }

  /// Extra notification on each declared failure (before rerouting) —
  /// e.g. LinkStateRouting::notify_link_change to flood the bad news,
  /// or ProtectionManager::on_connection_down to switch locally.
  /// Hooks are multicast: each add_ appends one.
  using FailureHook = std::function<void(NodeId a, NodeId b)>;
  void add_on_failure(FailureHook hook) {
    on_failure_.push_back(std::move(hook));
  }

  /// Veto per-LSP global restoration: when the filter returns false the
  /// LSP is left alone (counted as locally_protected).  Local protection
  /// installs one so an LSP already flipped to its bypass is not torn
  /// down and re-signalled behind the point of local repair's back.
  using RerouteFilter = std::function<bool(LspId)>;
  void set_reroute_filter(RerouteFilter filter) {
    reroute_filter_ = std::move(filter);
  }

  struct FailureEvent {
    SimTime detected_at;
    NodeId a;
    NodeId b;
    unsigned rerouted;       // LSPs successfully moved
    unsigned unrestorable;   // LSPs with no alternative path
    unsigned locally_protected = 0;  // left to the protection switch
  };
  [[nodiscard]] const std::vector<FailureEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] SimTime detection_time() const noexcept {
    return hello_ * dead_multiplier_;
  }

 private:
  struct Watch {
    NodeId a;
    NodeId b;
    unsigned missed = 0;
    bool declared = false;
  };

  [[nodiscard]] bool connection_up(const Watch& w) const;
  void poll();

  Network* net_;
  ControlPlane* cp_;
  SimTime hello_;
  unsigned dead_multiplier_;
  std::vector<Watch> watches_;
  std::vector<FailureEvent> events_;
  std::vector<FailureHook> on_failure_;
  RerouteFilter reroute_filter_;
  SimTime stop_at_ = 0;
  bool started_ = false;
};

}  // namespace empls::net
