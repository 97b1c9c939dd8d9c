// Label distribution and path computation — the "routing functionality
// is assumed to be software based" half of the paper's architecture.
//
// The paper declares label path creation and distribution out of scope
// ("several protocols exist — LDP, OSPF, RSVP") but its hardware is only
// usable once someone populates the information bases.  ControlPlane is
// that someone: a centralised explicit-route label distribution protocol
// in the spirit of CR-LDP, with
//
//   * downstream label allocation (each router hands out the labels it
//     expects to receive),
//   * constraint-based path computation (Dijkstra on propagation delay
//     with bandwidth admission, i.e. CSPF),
//   * per-link bandwidth reservation bookkeeping (traffic engineering),
//   * hierarchical LSPs: tunnels with penultimate-hop popping, and inner
//     LSPs routed across them.  Because the hardware PUSH flow re-pushes
//     the inner label unchanged, the control plane reserves the same
//     inner label value at the tunnel head and tail.
#pragma once

#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "mpls/fec.hpp"
#include "net/mpls_node.hpp"
#include "net/network.hpp"

namespace empls::net {

struct LspId {
  std::uint32_t value = 0;
  friend bool operator==(LspId, LspId) = default;
};
struct TunnelId {
  std::uint32_t value = 0;
  friend bool operator==(TunnelId, TunnelId) = default;
};

struct LspOptions {
  double bw = 0.0;
  /// Penultimate-hop popping: the next-to-last router pops and the
  /// egress (which receives the packet unlabeled) delivers it locally.
  /// Requires a path of at least 3 nodes.
  bool php = false;
  /// Label merging (RFC 3031 aggregation): if a previous LSP for the
  /// same FEC already flows through a node on this path, swap into its
  /// label there and reuse the established downstream segment.
  bool allow_merge = false;
};

struct LspRecord {
  std::vector<NodeId> path;        // node sequence as signalled
  std::vector<rtl::u32> labels;    // labels[i] = label expected by path[i+1]
  mpls::Prefix fec;
  double reserved_bw = 0.0;
  std::optional<TunnelId> via_tunnel;
  bool php = false;
  /// Index into `path` where this LSP merged into an existing one
  /// (labels/programming beyond it belong to the merged-into LSP).
  std::optional<std::size_t> merged_at;
};

struct TunnelRecord {
  std::vector<NodeId> path;             // head .. tail
  std::vector<rtl::u32> outer_labels;   // outer_labels[i] expected by path[i+1]
  double reserved_bw = 0.0;
};

struct ProtectOptions {
  /// Bandwidth reserved along each bypass.  0 (the default) admits the
  /// backup best-effort, the usual facility-bypass economics: the
  /// detour only carries traffic during a failure.
  double bw = 0.0;
};

/// One pre-signalled RFC 4090-style detour: protects a single link of a
/// single LSP.  The detour's transit bindings are installed in the
/// information bases at protect time (they use fresh labels, so they
/// coexist with the primary); the point of local repair's own binding
/// cannot be — its key is the primary's key — so the record carries both
/// NHLFEs and switching is one local rebind (the paper's
/// reset-and-reprogram flow), not a re-signalling round trip.
struct BackupRecord {
  LspId lsp;
  std::size_t hop = 0;             // protects path[hop] -> path[hop+1]
  NodeId plr = 0;                  // point of local repair: path[hop]
  NodeId merge = 0;                // merge point: path[hop+1]
  std::vector<NodeId> bypass;      // plr .. merge, avoiding the link
  /// detour_labels[j] is expected by bypass[j+1]; the last detour hop
  /// swaps into the label the merge point already serves for the LSP
  /// (or pops, when the primary's own action at the PLR was the
  /// penultimate-hop pop).
  std::vector<rtl::u32> detour_labels;
  mpls::Prefix fec;
  /// What the PLR's primary binding does (and therefore what the flip
  /// must replace / the revert must restore).
  enum class PlrOp : std::uint8_t { kIngress, kSwap, kPop };
  PlrOp plr_op = PlrOp::kSwap;
  rtl::u32 in_label = 0;        // key the PLR matches (kSwap/kPop only)
  rtl::u32 backup_label = 0;    // first detour label
  mpls::InterfaceId backup_port = 0;
  rtl::u32 primary_label = 0;   // label the primary binding emits
  mpls::InterfaceId primary_port = 0;
  double reserved_bw = 0.0;
  bool active = false;          // traffic currently on the bypass

  [[nodiscard]] bool live() const noexcept { return !bypass.empty(); }
};

class ControlPlane {
 public:
  explicit ControlPlane(Network& net) : net_(&net) {}
  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  /// Make `router` (the node's routing functionality) programmable.
  void register_router(NodeId id, MplsNode* router);

  // ---- path computation ----

  /// CSPF: minimum propagation delay path from `from` to `to` over links
  /// with at least `bw` residual bandwidth.  nullopt when disconnected.
  [[nodiscard]] std::optional<std::vector<NodeId>> compute_path(
      NodeId from, NodeId to, double bw = 0.0) const;

  /// CSPF with the connection avoid_a—avoid_b (both directions, every
  /// parallel link) pruned — backup path computation around the
  /// protected link, which is still up when the backup is signed.
  [[nodiscard]] std::optional<std::vector<NodeId>> compute_path_avoiding(
      NodeId from, NodeId to, NodeId avoid_a, NodeId avoid_b,
      double bw = 0.0) const;

  /// Residual (unreserved) bandwidth on the first link from → to.
  [[nodiscard]] double residual_bw(NodeId from, NodeId to) const;

  // ---- LSP establishment ----

  /// Explicit-route LSP: consecutive path nodes must be adjacent.
  /// Programs ingress (FEC prefix → push), transit swaps, egress pop;
  /// reserves `bw` on every hop.  nullopt on any admission failure
  /// (nothing is programmed or reserved in that case).
  std::optional<LspId> establish_lsp(const std::vector<NodeId>& path,
                                     const mpls::Prefix& fec,
                                     double bw = 0.0) {
    return establish_lsp(path, fec, LspOptions{bw, false, false});
  }
  std::optional<LspId> establish_lsp(const std::vector<NodeId>& path,
                                     const mpls::Prefix& fec,
                                     const LspOptions& options);

  /// Tear the LSP down and re-establish it for the same FEC over the
  /// best currently feasible path (CSPF over up links with residual
  /// bandwidth) — restoration after a failure.  The LSP's ingress and
  /// egress are kept; nullopt when no alternative exists (the original
  /// is still torn down: its path is broken anyway).
  std::optional<LspId> reroute_lsp(LspId id);

  /// Make-before-break re-optimisation: when a better path exists (e.g.
  /// a link recovered), sign a replacement LSP first — the ingress FTN
  /// rebind switches traffic over — and only then tear the old one
  /// down, so no packet is ever blackholed.  nullopt (old LSP kept)
  /// when CSPF finds no different path or the replacement cannot be
  /// admitted (note: shared hops are double-counted during the overlap,
  /// the usual cost of make-before-break without shared-explicit
  /// reservations).
  std::optional<LspId> reoptimize_lsp(LspId id);

  /// Compute the path with CSPF, then establish.
  std::optional<LspId> establish_lsp_cspf(NodeId ingress, NodeId egress,
                                          const mpls::Prefix& fec,
                                          double bw = 0.0);

  /// Establish over the path the INGRESS's own IGP database currently
  /// believes in (distributed routing, possibly stale during
  /// convergence) instead of the omniscient topology.  Admission still
  /// applies, so a stale path over a dead link is refused.
  template <typename LinkStateView>
  std::optional<LspId> establish_lsp_igp(const LinkStateView& igp,
                                         NodeId ingress, NodeId egress,
                                         const mpls::Prefix& fec,
                                         double bw = 0.0) {
    const auto path = igp.path_from(ingress, egress);
    if (!path) {
      return std::nullopt;
    }
    return establish_lsp(*path, fec, LspOptions{bw, false, false});
  }

  /// Hierarchical tunnel over `path` (head, ≥1 interior node, tail).
  /// Interior swaps run at information-base level 3; the penultimate hop
  /// pops the outer label (PHP) so the tail receives the inner packet.
  std::optional<TunnelId> establish_tunnel(const std::vector<NodeId>& path,
                                           double bw = 0.0);

  /// LSP whose middle segment rides `tunnel`: ingress..head over
  /// `pre_path` (adjacent hops, ≥2 nodes), tunnel head→tail, then
  /// tail..egress over `post_path` (adjacent hops, tail first).
  std::optional<LspId> establish_lsp_via_tunnel(
      const std::vector<NodeId>& pre_path, TunnelId tunnel,
      const std::vector<NodeId>& post_path, const mpls::Prefix& fec,
      double bw = 0.0);

  // ---- fast reroute (RFC 4090-style local protection) ----

  /// Pre-signal a one-to-one detour around every link of `id`'s path
  /// that has one: compute a bypass avoiding the link, allocate detour
  /// labels, install the detour's transit bindings in the information
  /// bases *now* (ahead of any failure), and record the standby NHLFE
  /// the point of local repair flips to when the link dies.  Links with
  /// no alternative path are simply left unprotected (global
  /// restoration still covers them).  Returns the number of links that
  /// gained a backup; tunnelled and merged LSPs are not handled.
  unsigned protect_lsp(LspId id, const ProtectOptions& options = {});

  [[nodiscard]] BackupRecord& backup(std::size_t index);
  [[nodiscard]] const BackupRecord& backup(std::size_t index) const;

  /// Indices of live backups whose protected link is a—b (either
  /// direction) — what the PLR consults on a link-down signal.
  [[nodiscard]] std::vector<std::size_t> backups_for(NodeId a,
                                                     NodeId b) const;
  /// Indices of live backups belonging to `id`.
  [[nodiscard]] std::vector<std::size_t> backups_of(LspId id) const;

  /// Release the LSP's labels and bandwidth reservations.  Hardware
  /// information bases are append-only (the paper's design); stale
  /// entries remain until an architecture reset + reprogram, exactly the
  /// reprogramming flow the paper's worst-case analysis costs out.
  /// Backups protecting the LSP are released with it.
  void teardown_lsp(LspId id);

  [[nodiscard]] const LspRecord& lsp(LspId id) const;
  [[nodiscard]] const TunnelRecord& tunnel(TunnelId id) const;
  [[nodiscard]] std::size_t num_lsps() const noexcept { return lsps_.size(); }

  /// Live (not torn down) LSPs whose path crosses the connection a—b in
  /// either direction.  The failure detector reroutes these.
  [[nodiscard]] std::vector<LspId> lsps_using(NodeId a, NodeId b) const;

  // ---- hooks for the message-based signaling protocol ----
  // (net/signaling.hpp performs setup hop by hop over simulated time and
  // uses these instead of the instantaneous establish_* calls.)

  /// The programmable interface registered for `id`, or nullptr.
  [[nodiscard]] MplsNode* router_for(NodeId id) const { return router(id); }

  /// Admission check for one hop: the first up link from→to with `bw`
  /// residual.  Does not reserve.
  [[nodiscard]] std::optional<std::pair<mpls::InterfaceId, double>>
  admit_hop(NodeId from, NodeId to, double bw) const;

  /// Reserve / release bandwidth on a specific port.
  void reserve_hop(NodeId from, mpls::InterfaceId port, double bw) {
    reserve(from, port, bw);
  }
  void release_hop(NodeId from, mpls::InterfaceId port, double bw);

  /// Adopt an externally signalled LSP into the record table so
  /// teardown_lsp / reroute_lsp / lsp() work on it.
  LspId adopt(LspRecord record);

 private:
  struct Hop {
    mpls::InterfaceId port;
    double bandwidth;
  };

  [[nodiscard]] MplsNode* router(NodeId id) const;
  /// First port from → to with at least `bw` residual; nullopt if none.
  [[nodiscard]] std::optional<Hop> find_hop(NodeId from, NodeId to,
                                            double bw) const;
  /// Sign and install one detour for `id`'s hop-th link.
  bool install_backup(LspId id, std::size_t hop,
                      const ProtectOptions& options);
  /// Release a backup's labels and reservations (teardown path).
  void release_backup(BackupRecord& rec);
  void reserve(NodeId from, mpls::InterfaceId port, double bw);
  /// Allocate a label owned by `owner` that is also reservable at
  /// `also_at` (tunnel-crossing inner labels).
  std::optional<rtl::u32> allocate_shared(MplsNode& owner, MplsNode& also_at);

  Network* net_;
  std::unordered_map<NodeId, MplsNode*> routers_;
  std::map<std::pair<NodeId, mpls::InterfaceId>, double> reserved_;
  std::vector<LspRecord> lsps_;
  std::vector<TunnelRecord> tunnels_;
  std::vector<BackupRecord> backups_;
  /// Label a node expects for a FEC, for merge-enabled LSPs:
  /// (fec canonical text, node) → label.
  std::map<std::pair<std::string, NodeId>, rtl::u32> fec_labels_;
};

}  // namespace empls::net
