#include "sw/linear_engine.hpp"

#include <cassert>

#include "hw/cycle_model.hpp"
#include "sw/semantics.hpp"

namespace empls::sw {

std::vector<mpls::LabelPair>& LinearEngine::level_ref(unsigned level) {
  assert(level >= 1 && level <= 3);
  return levels_[level - 1];
}

const std::vector<mpls::LabelPair>& LinearEngine::level_ref(
    unsigned level) const {
  assert(level >= 1 && level <= 3);
  return levels_[level - 1];
}

void LinearEngine::do_clear() {
  for (auto& l : levels_) {
    l.clear();
  }
}

bool LinearEngine::do_write_pair(unsigned level, const mpls::LabelPair& pair) {
  auto& l = level_ref(level);
  if (l.size() >= capacity_) {
    return false;
  }
  l.push_back(pair);
  return true;
}

std::optional<mpls::LabelPair> LinearEngine::lookup(unsigned level,
                                                    rtl::u32 key) {
  const auto& l = level_ref(level);
  // Level 1 compares the full 32-bit packet identifier; levels 2 and 3
  // compare 20-bit labels, matching the datapath's comparators.
  const rtl::u32 mask =
      level == 1 ? ~rtl::u32{0} : static_cast<rtl::u32>(mpls::kMaxLabel);
  for (std::size_t i = 0; i < l.size(); ++i) {
    if ((l[i].index & mask) == (key & mask)) {
      last_examined_ = i + 1;
      return l[i];
    }
  }
  last_examined_ = l.size();
  return std::nullopt;
}

UpdateOutcome LinearEngine::update(mpls::Packet& packet, unsigned level,
                                   hw::RouterType router_type) {
  const UpdateKey k = update_key(packet, level);
  const bool was_empty = packet.stack.empty();
  const auto found = lookup(k.level, k.key);
  UpdateOutcome out = apply_update(packet, found, router_type);

  // Modelled hardware cost of the identical run (Table 6).
  out.hw_cycles = hw::search_cycles(last_examined_) +
                  update_tail_cycles(out, was_empty, found.has_value());
  return out;
}

rtl::u64 LinearEngine::last_lookup_cost_cycles() const noexcept {
  return hw::search_cycles(last_examined_);
}

std::size_t LinearEngine::level_size(unsigned level) const {
  return level_ref(level).size();
}

bool LinearEngine::do_corrupt_entry(unsigned level, rtl::u32 key,
                                    rtl::u32 new_label) {
  auto& l = level_ref(level);
  const rtl::u32 mask =
      level == 1 ? ~rtl::u32{0} : static_cast<rtl::u32>(mpls::kMaxLabel);
  for (auto& pair : l) {
    if ((pair.index & mask) == (key & mask)) {
      pair.new_label = new_label & static_cast<rtl::u32>(mpls::kMaxLabel);
      return true;
    }
  }
  return false;
}

}  // namespace empls::sw
