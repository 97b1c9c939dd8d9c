// The label-update semantics shared by every software engine — a direct
// transcription of the control unit's REMOVE TOP / UPDATE TTL /
// VERIFY INFO / apply flow (Figure 9), factored out so the linear, hash
// and CAM engines differ only in how they find the pair, never in what
// they do with it.  Differential tests pin the hardware model to this
// function.
#pragma once

#include <optional>

#include "hw/commands.hpp"
#include "mpls/packet.hpp"
#include "mpls/tables.hpp"
#include "sw/engine.hpp"

namespace empls::sw {

/// The search key / level the update flow uses for `packet`:
/// empty stack → (level 1, packet identifier); otherwise → (caller's
/// level, top label).
struct UpdateKey {
  unsigned level = 1;
  rtl::u32 key = 0;
};
[[nodiscard]] UpdateKey update_key(const mpls::Packet& packet,
                                   unsigned level) noexcept;

/// The information-base level ingress classification selects for
/// `packet`: empty stack → 1 (packet-identifier table); depth-d stack →
/// min(d+1, 3), since level 1 is reserved for identifiers and the
/// deepest nestings share level 3 (DESIGN.md §5.6).  This is the level
/// the embedded router passes to update().
[[nodiscard]] unsigned classify_level(const mpls::Packet& packet) noexcept;

/// Apply the verify + modify portion of the update flow, given the pair
/// the search produced (`found == nullopt` means a miss).  Mutates
/// `packet.stack` exactly as the hardware datapath would; on any
/// discard, the stack is reset.  Does not fill UpdateOutcome::hw_cycles.
UpdateOutcome apply_update(mpls::Packet& packet,
                           const std::optional<mpls::LabelPair>& found,
                           hw::RouterType router_type);

/// The Table 6 cycle cost of the update flow AFTER the search: the
/// discard tails and the per-operation apply tails.  `was_empty` is the
/// stack state before the update, `found` whether the search hit.
/// LinearEngine composes hw_cycles = search_cycles(k) + this; the
/// embedded router's flow cache uses the same composition with a cached
/// search cost, which keeps cached and uncached outcomes bit-identical.
[[nodiscard]] rtl::u64 update_tail_cycles(const UpdateOutcome& out,
                                          bool was_empty,
                                          bool found) noexcept;

}  // namespace empls::sw
