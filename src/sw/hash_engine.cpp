#include "sw/hash_engine.hpp"

#include <cassert>

#include "mpls/label.hpp"
#include "sw/semantics.hpp"

namespace empls::sw {

std::unordered_map<rtl::u32, HashEngine::Stored>& HashEngine::level_ref(
    unsigned level) {
  assert(level >= 1 && level <= 3);
  return levels_[level - 1];
}

const std::unordered_map<rtl::u32, HashEngine::Stored>& HashEngine::level_ref(
    unsigned level) const {
  assert(level >= 1 && level <= 3);
  return levels_[level - 1];
}

rtl::u32 HashEngine::key_mask(unsigned level) noexcept {
  return level == 1 ? ~rtl::u32{0} : static_cast<rtl::u32>(mpls::kMaxLabel);
}

void HashEngine::do_clear() {
  for (auto& l : levels_) {
    l.clear();
  }
}

bool HashEngine::do_write_pair(unsigned level, const mpls::LabelPair& pair) {
  auto& l = level_ref(level);
  if (l.size() >= capacity_) {
    return false;
  }
  // try_emplace keeps the first binding, matching scan order.
  l.try_emplace(pair.index & key_mask(level),
                Stored{pair.new_label, pair.op});
  return true;
}

std::optional<mpls::LabelPair> HashEngine::lookup(unsigned level,
                                                  rtl::u32 key) {
  const auto& l = level_ref(level);
  const auto it = l.find(key & key_mask(level));
  if (it == l.end()) {
    return std::nullopt;
  }
  return mpls::LabelPair{it->first, it->second.new_label, it->second.op};
}

UpdateOutcome HashEngine::update(mpls::Packet& packet, unsigned level,
                                 hw::RouterType router_type) {
  const UpdateKey k = update_key(packet, level);
  const auto found = lookup(k.level, k.key);
  UpdateOutcome out = apply_update(packet, found, router_type);
  out.hw_cycles = 0;  // pure software: measure with wall clock
  return out;
}

std::size_t HashEngine::level_size(unsigned level) const {
  return level_ref(level).size();
}

bool HashEngine::do_corrupt_entry(unsigned level, rtl::u32 key,
                                  rtl::u32 new_label) {
  auto& l = level_ref(level);
  const auto it = l.find(key & key_mask(level));
  if (it == l.end()) {
    return false;
  }
  it->second.new_label = new_label & static_cast<rtl::u32>(mpls::kMaxLabel);
  return true;
}

}  // namespace empls::sw
