#include "sw/hw_engine.hpp"

#include <cassert>

#include "hw/cycle_model.hpp"
#include "sw/semantics.hpp"

namespace empls::sw {

void HwEngine::do_clear() { hw_.do_reset(); }

bool HwEngine::do_write_pair(unsigned level, const mpls::LabelPair& pair) {
  if (hw_.level_count(level) >= hw::kLevelDepth) {
    return false;
  }
  hw_.write_pair(level, pair);
  return true;
}

std::optional<mpls::LabelPair> HwEngine::lookup(unsigned level,
                                                rtl::u32 key) {
  const auto r = hw_.search(level, key);
  last_lookup_cycles_ = r.cycles;
  if (!r.found) {
    return std::nullopt;
  }
  return mpls::LabelPair{key, r.label,
                         static_cast<mpls::LabelOp>(r.operation)};
}

UpdateOutcome HwEngine::update(mpls::Packet& packet, unsigned level,
                               hw::RouterType router_type) {
  assert(hw_.stack_size() == 0 && "hardware stack must start empty");
  rtl::u64 cycles = 0;

  // Ingress packet processing: deliver the label stack to the modifier,
  // bottom entry first so the hardware rebuilds it in order.
  const std::size_t depth = packet.stack.size();
  for (std::size_t i = 0; i < depth; ++i) {
    cycles += hw_.user_push(packet.stack.at(depth - 1 - i));
  }

  // Captured before the stack is overwritten: needed to classify a
  // discard (the RTL only exposes found / not-found directly).
  const rtl::u8 orig_ttl =
      packet.stack.empty() ? packet.ip_ttl : packet.stack.top().ttl;

  const auto r = hw_.update(level, router_type, packet.packet_identifier(),
                            packet.cos, packet.ip_ttl);
  last_update_only_ = r.cycles;
  cycles += r.cycles;

  // Egress packet processing: read the modified stack back and drain the
  // hardware for the next packet.
  packet.stack = hw_.stack_view();
  while (hw_.stack_size() > 0) {
    cycles += hw_.user_pop();
  }

  UpdateOutcome out;
  out.discarded = r.discarded;
  if (r.discarded) {
    out.reason = !hw_.item_found()      ? DiscardReason::kMiss
                 : orig_ttl <= 1        ? DiscardReason::kTtlExpired
                                        : DiscardReason::kInconsistent;
  }
  out.applied = r.applied;
  out.ttl_after = static_cast<rtl::u8>(hw_.datapath().ttl());
  out.hw_cycles = cycles;
  return out;
}

std::size_t HwEngine::level_size(unsigned level) const {
  return static_cast<std::size_t>(hw_.level_count(level));
}

bool HwEngine::do_corrupt_entry(unsigned level, rtl::u32 key,
                                rtl::u32 new_label) {
  if (!hw::InfoBase::valid_level(level)) {
    return false;
  }
  auto& lvl = hw_.datapath().info_base().level(level);
  const rtl::u64 mask =
      level == 1 ? ~rtl::u32{0} : static_cast<rtl::u64>(mpls::kMaxLabel);
  for (rtl::u64 addr = 0; addr < lvl.count(); ++addr) {
    if (lvl.peek_index(addr) == (key & mask)) {
      lvl.poke_label(addr, new_label);
      return true;
    }
  }
  return false;
}

}  // namespace empls::sw
