// Scenario description language: a small line-oriented text format that
// declares a topology, label switched paths and traffic, so whole
// experiments can be written as config files instead of C++ (see
// examples/scenario_sim.cpp and examples/*.scn).
//
//   # comments and blank lines are ignored
//   qos strict|fifo|wrr [capacity=64] [red]
//   domains <N>|auto              # event domains, 1 = off (also domains=..)
//   sync deterministic|free       # domain sync mode (also sync=..)
//   router <name> ler|lsr [engine=linear|hash|cam|trie|hw]
//          [clock=50M] [cache=<entries>|off]
//   link <a> <b> <bandwidth> <delay>          # e.g. link A B 100M 1ms
//   lsp <prefix> <n1> <n2> ... [bw=2M] [php] [merge]
//   lsp-cspf <prefix> <ingress> <egress> [bw=2M]
//   tunnel <name> <n1> <n2> <n3> ...
//   lsp-via-tunnel <prefix> pre <n..> tunnel <name> post <n..> [bw=1M]
//   flow cbr <id> <ingress> <dst> [cos=6] [size=160] [interval=20ms]
//            [start=0s] [stop=1s]
//   flow poisson <id> <ingress> <dst> [rate=500] [seed=1] [...]
//   flow video <id> <ingress> <dst> [fps=30] [ppf=8] [...]
//   fail <time> <a> <b>        # cut both directions of a connection
//   restore <time> <a> <b>
//   flap <time> <a> <b> <down-for>   # cut that heals after <down-for>
//   crash <time> <node> [for=100ms]  # all of a node's links at once
//   corrupt <time> <node> [salt=N] [resync=20ms]  # info-base bit flip
//   loadgen poisson|mmpp <ingress> <dst> [rate=10k] [flows=1024]
//           [alpha=1.5] [minpkts=4] [cos=0] [size=160] [seed=1]
//           [start=0] [stop=1] [burst-rate=40k] [sojourn=100ms]
//   attack spoof|ttl_flood|reserved|exhaust <time> <ingress> [rate=10k]
//          [for=500ms] [seed=1] [dst=10.1.0.5] [cos=7]
//          # also spelled attack=<kind> <time> <ingress> ...
//   guard <router>|* [ttl=1000] [reprogram=200] [demote=0.5]
//         [shed=0.75] [maxcos=3] [reserved=on|off] [spoof=on|off]
//   autorepair <hello> [dead=3]   # failure detection + auto reroute
//   protect [bw=1M]            # pre-signal detours for every lsp
//   police <ingress> <flow-id> <rate> [burst=1500] [demote]
//   ping <time> <ingress> <dst>        # OAM reachability probe
//   traceroute <time> <ingress> <dst>  # OAM path mapping
//   trace <path>|off           # per-hop Chrome-trace JSON (also trace=..)
//   metrics <path>|off         # Prometheus snapshot (also metrics=..)
//   sample <interval>          # arm the telemetry timeline at this
//                              # sim-time cadence; needs `run` (also
//                              # sample=..)
//   timeline <path>|off        # write the sampled series there; .json
//                              # switches to JSON, else CSV (also
//                              # timeline=..)
//   profile [on|off]           # per-domain execution profiler
//   expect <metric> <op> <value> [during <t0>..<t1>]
//                              # self-verifying SLO assertion, checked
//                              # at run end; op is < <= > >= == !=.
//                              # <metric> is name[{labels}] with an
//                              # optional .p50/.p99/.p999/.count suffix
//                              # for histograms.  `during` checks every
//                              # timeline sample in [t0,t1] (needs
//                              # `sample`); without it, the end-of-run
//                              # registry value is checked.
//   run <duration>             # optional; defaults to run-to-idle
//
// This header is the pure data model + parser; execution lives in
// core/scenario_runner.hpp (the runner needs the router classes).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "mpls/fec.hpp"
#include "net/event_queue.hpp"
#include "net/guard.hpp"
#include "net/qos.hpp"

namespace empls::net {

// Fixed-underlying-type forward declaration; the full enum (and the
// runtime it configures) lives in net/domain.hpp.
enum class SyncMode : std::uint8_t;

struct ScenarioError {
  int line = 0;
  std::string message;
};

/// The label engines a router may name (`engine=<kind>`): the golden
/// linear model, the trie FIB and the RTL adapter.  The parser accepts
/// exactly the names in kEngineKindNames, and the runner's engine
/// factory switches over this enum, so the two cannot drift.
enum class EngineKind : std::uint8_t { kLinear, kTrie, kHw };
inline constexpr std::array<std::string_view, 3> kEngineKindNames{
    "linear", "trie", "hw"};

[[nodiscard]] constexpr std::optional<EngineKind> parse_engine_kind(
    std::string_view name) noexcept {
  for (std::size_t i = 0; i < kEngineKindNames.size(); ++i) {
    if (name == kEngineKindNames[i]) {
      return static_cast<EngineKind>(i);
    }
  }
  return std::nullopt;
}

struct RouterDecl {
  std::string name;
  bool is_ler = false;
  EngineKind engine = EngineKind::kLinear;
  double clock_hz = 50e6;
  /// Flow-cache entries (`cache=<entries>`, `cache=off` → 0 = off).
  std::size_t cache = 0;
};

struct LinkDecl {
  std::string a;
  std::string b;
  double bandwidth_bps = 0;
  SimTime delay = 0;
};

struct LspDecl {
  mpls::Prefix fec;
  std::vector<std::string> path;  // explicit route, or {ingress, egress}
  bool cspf = false;
  double bw = 0;
  bool php = false;
  bool merge = false;
};

struct TunnelDecl {
  std::string name;
  std::vector<std::string> path;
};

struct LspViaTunnelDecl {
  mpls::Prefix fec;
  std::vector<std::string> pre;
  std::string tunnel;
  std::vector<std::string> post;
  double bw = 0;
};

struct FlowDecl {
  std::string kind;  // cbr | poisson | video | onoff
  std::uint32_t id = 0;
  std::string ingress;
  std::string dst;  // dotted quad
  std::uint8_t cos = 0;
  std::size_t size = 160;
  SimTime start = 0;
  SimTime stop = 1.0;
  // kind-specific:
  SimTime interval = 20e-3;  // cbr
  double rate = 100;         // poisson / onoff packets per second
  std::uint64_t seed = 1;    // poisson / onoff
  double fps = 30;           // video frames per second
  unsigned ppf = 8;          // video packets per frame
  SimTime mean_on = 50e-3;   // onoff
  SimTime mean_off = 50e-3;  // onoff
};

struct LinkEventDecl {
  SimTime at = 0;
  std::string a;
  std::string b;
  bool up = false;
};

/// `flap <time> <a> <b> <down-for>`: a cut that heals by itself —
/// shorter than the dead interval it must not trigger restoration.
struct FlapDecl {
  SimTime at = 0;
  std::string a;
  std::string b;
  SimTime down_for = 0;
};

/// `crash <time> <node> [for=dur]`: every connection of `node` goes
/// dark at once; recovers after `for` (0 = stays dead).
struct CrashDecl {
  SimTime at = 0;
  std::string node;
  SimTime duration = 0;
};

/// `corrupt <time> <node> [salt=N] [resync=dur]`: garble one programmed
/// information-base binding (single-event upset); the audit-and-repair
/// pass runs after `resync` (0 = never).
struct CorruptDecl {
  SimTime at = 0;
  std::string node;
  std::uint64_t salt = 0;
  SimTime resync = 0;
};

/// `loadgen poisson|mmpp <ingress> <dst> [opts]`: open-loop offered
/// load at scale (net/loadgen.hpp); the runner assigns each generator
/// its own flow-id block and one shared FlowLedger.
struct LoadGenDecl {
  std::string kind;  // poisson | mmpp
  std::string ingress;
  std::string dst;  // dotted quad
  double rate_pps = 10000;
  double burst_rate_pps = 0;  // mmpp burst state; 0 = 4x rate
  SimTime sojourn = 100e-3;   // mmpp mean state dwell
  std::size_t flows = 1024;
  double alpha = 1.5;
  unsigned min_packets = 4;
  std::uint8_t cos = 0;
  std::size_t size = 160;
  std::uint64_t seed = 1;
  SimTime start = 0;
  SimTime stop = 1.0;
};

/// `attack <kind> <time> <ingress> [opts]` (kind also spelled
/// `attack=<kind>`): one seeded adversarial injection (net/attack.hpp).
struct AttackDecl {
  std::string kind;  // spoof | ttl_flood | reserved | exhaust
  SimTime at = 0;
  std::string ingress;
  double rate_pps = 10000;
  SimTime duration = 0.5;
  std::uint64_t seed = 1;
  std::string dst;  // optional victim address (ttl_flood / exhaust)
  std::uint8_t cos = 7;
};

/// `guard <router>|* [opts]`: arm the ingress guard on one router (or
/// every router) with the given thresholds.
struct GuardDecl {
  std::string router;  // "*" = all routers
  GuardConfig config;  // parsed with enabled=true
};

/// `ping <time> <ingress> <dst>` / `traceroute <time> <ingress> <dst>`:
/// run an OAM probe during the simulation; results appear in the report.
struct OamDecl {
  SimTime at = 0;
  bool traceroute = false;
  std::string ingress;
  std::string dst;
};

/// `expect <metric> <op> <value> [during <t0>..<t1>]`: an SLO assertion
/// the runner checks at run end.  Windowed assertions check every
/// timeline sample whose time falls in [t0, t1] (and fail when the
/// window holds no samples); unwindowed ones check the end-of-run
/// registry value.  Violations mark the report failed (see
/// Report::expects) and the scenario driver exits non-zero.
struct ExpectDecl {
  enum class Op : std::uint8_t { kLt, kLe, kGt, kGe, kEq, kNe };
  /// name[{labels}] plus an optional .p50/.p99/.p999/.count suffix for
  /// histogram series, matching the timeline's column names.
  std::string metric;
  Op op = Op::kLt;
  double value = 0;
  bool windowed = false;
  SimTime t0 = 0;
  SimTime t1 = 0;
  int line = 0;        // source line, for diagnostics
  std::string source;  // the directive text, echoed in the report
};

[[nodiscard]] std::string_view to_string(ExpectDecl::Op op) noexcept;

class Scenario {
 public:
  /// Parse scenario text; ScenarioError carries the offending line.
  static std::variant<Scenario, ScenarioError> parse(std::string_view text);

  QosConfig qos;
  /// `domains <N>|auto` (or `domains=..`): partition the topology into
  /// N event domains (net/domain.hpp).  1 (the default) runs the plain
  /// single-queue simulator; 0 means "auto" — one domain per hardware
  /// thread, capped by the node count.  The runner may downgrade (see
  /// Report::domain_note) when a directive requires it.
  std::size_t domains = 1;
  /// `sync deterministic|free` (or `sync=..`): how partitioned domains
  /// synchronise.  Deterministic merges events in global (time, domain)
  /// order — books identical to the unpartitioned run; free runs one
  /// thread per domain under conservative-lookahead windows.
  SyncMode sync = SyncMode{0};  // kDeterministic
  std::vector<RouterDecl> routers;
  std::vector<LinkDecl> links;
  std::vector<LspDecl> lsps;
  std::vector<TunnelDecl> tunnels;
  std::vector<LspViaTunnelDecl> tunnel_lsps;
  /// `police <ingress> <flow-id> <rate> [burst=1500] [demote]`.
  struct PolicerDecl {
    std::string ingress;
    std::uint32_t flow_id = 0;
    double rate_bps = 0;
    double burst_bytes = 1500;
    bool demote = false;
  };

  std::vector<FlowDecl> flows;
  std::vector<LinkEventDecl> link_events;
  std::vector<FlapDecl> flaps;
  std::vector<CrashDecl> crashes;
  std::vector<CorruptDecl> corruptions;
  std::vector<OamDecl> oam_probes;
  std::vector<PolicerDecl> policers;
  std::vector<LoadGenDecl> loadgens;
  std::vector<AttackDecl> attacks;
  std::vector<GuardDecl> guards;
  std::optional<SimTime> run_duration;
  /// `autorepair <hello_interval> [dead=N]`: arm a failure detector
  /// over all links that reroutes LSPs off dead connections.
  std::optional<SimTime> autorepair_hello;
  unsigned autorepair_dead = 3;
  /// `protect [bw=X]`: pre-signal RFC 4090 detours for every explicit
  /// LSP and switch locally on link-down.
  bool protect = false;
  double protect_bw = 0;
  /// `trace <path>` (or `trace=<path>`): arm the hop tracer and write
  /// Chrome-trace JSON there after the run.  "off" / unset disables —
  /// and must leave the simulation bit-identical to one never traced.
  std::string trace_path;
  /// `metrics <path>` (or `metrics=<path>`): write a Prometheus
  /// text-format snapshot of the metrics registry there after the run.
  std::string metrics_path;
  /// `sample <interval>` (or `sample=..`): arm the telemetry timeline
  /// (obs/timeline.hpp) at this sim-time cadence.  Requires a `run`
  /// duration — the runner pre-schedules the ticks.  Unset = off.
  std::optional<SimTime> sample_interval;
  /// `timeline <path>` (or `timeline=..`): write the sampled series
  /// there after the run; a ".json" suffix selects the column-major
  /// JSON export, anything else CSV.  "off" / unset writes nothing
  /// (the series still feed `expect during` checks).
  std::string timeline_path;
  /// `profile [on|off]`: arm the per-domain execution profiler
  /// (DomainRuntime::PhaseProfile; needs domains > 1 to report).
  bool profile = false;
  /// `expect ...` assertions, in declaration order.
  std::vector<ExpectDecl> expects;

  [[nodiscard]] bool has_router(const std::string& name) const;
};

/// "100M" → 1e8, "2.5G" → 2.5e9, "64k" → 64000, bare number → bits/s.
std::optional<double> parse_bandwidth(std::string_view text);

/// "20ms" → 0.02, "50us" → 5e-5, "1s"/"1" → 1.0, "3ns" → 3e-9.
std::optional<SimTime> parse_time(std::string_view text);

}  // namespace empls::net
