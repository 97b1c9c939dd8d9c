// Benchmark baselines: the two label engines the simulator does not
// offer, kept for the experiments that compare the paper's design
// against them.  The simulator's engines are the golden linear model,
// the RTL adapters and the trie FIB (src/sw/); these two live here.
//
//   * HashEngine — a modern hash-map software router: O(1) expected
//     lookups regardless of occupancy, no hardware cost model (X1's
//     software baseline, bench_lookup's sweep).
//   * CamEngine  — the paper's hardware with a content-addressable
//     information base: the linear engine's store and behaviour, with
//     the search charged at a constant kCamSearchCycles (X3, X7).
#pragma once

#include <array>
#include <cassert>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "hw/cycle_model.hpp"
#include "mpls/label.hpp"
#include "sw/engine.hpp"
#include "sw/linear_engine.hpp"
#include "sw/semantics.hpp"

namespace empls::bench {

/// Hash-map software baseline: what a modern software MPLS router (e.g.
/// a kernel forwarding table) does instead of a linear scan.
///
/// Duplicate-index writes keep the FIRST binding, matching the
/// hardware's first-match-wins scan order, so all engines stay
/// bit-identical in behaviour.
class HashEngine : public sw::LabelEngine {
 public:
  explicit HashEngine(std::size_t level_capacity = 1024)
      : capacity_(level_capacity) {}

  [[nodiscard]] std::string_view name() const override { return "hash"; }

  [[nodiscard]] std::optional<mpls::LabelPair> lookup(unsigned level,
                                                      rtl::u32 key) override {
    const auto& l = level_ref(level);
    const auto it = l.find(key & key_mask(level));
    if (it == l.end()) {
      return std::nullopt;
    }
    return mpls::LabelPair{it->first, it->second.new_label, it->second.op};
  }

  sw::UpdateOutcome update(mpls::Packet& packet, unsigned level,
                           hw::RouterType router_type) override {
    const sw::UpdateKey k = sw::update_key(packet, level);
    const auto found = lookup(k.level, k.key);
    sw::UpdateOutcome out = sw::apply_update(packet, found, router_type);
    out.hw_cycles = 0;  // pure software: measure with wall clock
    return out;
  }

  [[nodiscard]] std::size_t level_size(unsigned level) const override {
    return level_ref(level).size();
  }
  [[nodiscard]] bool cacheable() const noexcept override { return true; }

 protected:
  void do_clear() override {
    for (auto& l : levels_) {
      l.clear();
    }
  }

  bool do_write_pair(unsigned level, const mpls::LabelPair& pair) override {
    auto& l = level_ref(level);
    if (l.size() >= capacity_) {
      return false;
    }
    // try_emplace keeps the first binding, matching scan order.
    l.try_emplace(pair.index & key_mask(level),
                  Stored{pair.new_label, pair.op});
    return true;
  }

  /// The single-event-upset model for the hash store: garble the mapped
  /// value's outgoing label in place (the key and operation survive, as
  /// in the other engines), so corruption campaigns hit this engine too
  /// instead of silently no-oping through the default.
  bool do_corrupt_entry(unsigned level, rtl::u32 key,
                        rtl::u32 new_label) override {
    auto& l = level_ref(level);
    const auto it = l.find(key & key_mask(level));
    if (it == l.end()) {
      return false;
    }
    it->second.new_label = new_label & static_cast<rtl::u32>(mpls::kMaxLabel);
    return true;
  }

 private:
  struct Stored {
    rtl::u32 new_label;
    mpls::LabelOp op;
  };
  using Level = std::unordered_map<rtl::u32, Stored>;

  Level& level_ref(unsigned level) {
    assert(level >= 1 && level <= 3);
    return levels_[level - 1];
  }
  [[nodiscard]] const Level& level_ref(unsigned level) const {
    assert(level >= 1 && level <= 3);
    return levels_[level - 1];
  }
  [[nodiscard]] static rtl::u32 key_mask(unsigned level) noexcept {
    return level == 1 ? ~rtl::u32{0} : static_cast<rtl::u32>(mpls::kMaxLabel);
  }

  std::size_t capacity_;
  std::array<Level, 3> levels_;
};

/// Constant CAM search cost: broadcast key (1), parallel compare (1),
/// priority encode (1), read match (1), register result (1) — plus the
/// same 2-cycle dispatch handshake as the paper's design.
inline constexpr rtl::u64 kCamSearchCycles = 7;

/// Rough resource proxy: comparator bit-slices per level (one n-bit
/// comparator per entry vs. the paper's single shared one).
inline constexpr rtl::u64 cam_comparator_bits(rtl::u64 entries,
                                              unsigned index_bits) noexcept {
  return entries * index_bits;
}

/// Ablation: the information base as a content-addressable memory.  The
/// paper's single shared comparator scans a level in 3n+5 cycles; one
/// comparator per entry resolves any lookup in kCamSearchCycles, at the
/// area cost cam_comparator_bits() counts.  Behaviour and store are the
/// linear engine's; only the modelled search cost differs.
class CamEngine : public sw::LinearEngine {
 public:
  using LinearEngine::LinearEngine;

  [[nodiscard]] std::string_view name() const override { return "cam"; }

  sw::UpdateOutcome update(mpls::Packet& packet, unsigned level,
                           hw::RouterType router_type) override {
    sw::UpdateOutcome out = LinearEngine::update(packet, level, router_type);
    // Replace the linear search component of the modelled cost with the
    // CAM's constant-time search.
    out.hw_cycles = out.hw_cycles - hw::search_cycles(last_entries_examined()) +
                    kCamSearchCycles;
    return out;
  }

  [[nodiscard]] rtl::u64 last_lookup_cost_cycles() const noexcept override {
    return kCamSearchCycles;
  }
};

}  // namespace empls::bench
