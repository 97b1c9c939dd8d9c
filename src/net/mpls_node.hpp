// Programming interface the control plane (LDP) uses to install
// forwarding state on a router — implemented by the routing
// functionality of core/embedded_router.
//
// This is the paper's hardware/software boundary: the control plane
// stores label pairs (index, new label, operation) in the information
// base and keeps the next-hop resolution (which the hardware does not
// hold) in software tables.
#pragma once

#include <cstdint>

#include "mpls/fec.hpp"
#include "mpls/tables.hpp"
#include "rtl/types.hpp"

namespace empls::net {

class MplsNode {
 public:
  MplsNode() = default;
  MplsNode(const MplsNode&) = delete;
  MplsNode& operator=(const MplsNode&) = delete;
  virtual ~MplsNode() = default;

  /// Ingress binding for one exact destination (hardware level-1 entry:
  /// packet identifier → PUSH out_label).
  virtual bool program_ingress_exact(rtl::u32 packet_id, rtl::u32 out_label,
                                     mpls::InterfaceId out_port) = 0;

  /// Ingress binding for a destination prefix.  Kept in the software FEC
  /// table; exact hardware entries are installed on demand when traffic
  /// arrives (flow-cache slow path).
  virtual bool program_ingress_prefix(const mpls::Prefix& fec,
                                      rtl::u32 out_label,
                                      mpls::InterfaceId out_port) = 0;

  /// Transit swap at an information-base level (2 or 3).
  virtual bool program_swap(unsigned level, rtl::u32 in_label,
                            rtl::u32 out_label,
                            mpls::InterfaceId out_port) = 0;

  /// Pop; `out_port` is a real port for penultimate-hop popping or
  /// mpls::kLocalDeliver for egress to the layer-2 network.
  virtual bool program_pop(unsigned level, rtl::u32 in_label,
                           mpls::InterfaceId out_port) = 0;

  /// Tunnel entry: push `outer_label` on packets whose top label is
  /// `in_label` (which the push flow preserves underneath).
  virtual bool program_push(unsigned level, rtl::u32 in_label,
                            rtl::u32 outer_label,
                            mpls::InterfaceId out_port) = 0;

  /// Mark a destination prefix as locally attached: unlabeled packets
  /// for it that arrive on a real interface leave the MPLS domain here.
  /// Needed by penultimate-hop-popping LSPs, whose egress receives the
  /// packet already unlabeled.
  virtual bool program_local(const mpls::Prefix& fec) = 0;

  /// This router's label space (downstream allocation: a router hands
  /// out the labels it expects to receive).
  virtual mpls::LabelAllocator& label_allocator() = 0;

  // ---- fault injection and repair (default: unsupported no-ops) ----

  /// Garble one programmed hardware binding chosen by `salt`, modelling
  /// a single-event upset in the information-base memory.  The software
  /// binding table is left intact — that divergence is exactly what
  /// resync_hardware() exists to find.  Returns false when the node has
  /// no corruptible hardware state.
  virtual bool corrupt_binding(std::uint64_t /*salt*/) { return false; }

  /// Audit the hardware against the software bindings and reprogram when
  /// they diverge.  Returns the number of divergent entries repaired.
  virtual unsigned resync_hardware() { return 0; }
};

}  // namespace empls::net
