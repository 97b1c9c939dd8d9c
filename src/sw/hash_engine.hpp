// Hash-map software baseline: what a modern software MPLS router (e.g. a
// kernel forwarding table) does instead of a linear scan.  O(1) expected
// lookups regardless of table occupancy — the comparison point for the
// paper's linear-time hardware search.
//
// Duplicate-index writes keep the FIRST binding, matching the hardware's
// first-match-wins scan order, so all engines stay bit-identical in
// behaviour.
#pragma once

#include <array>
#include <unordered_map>

#include "sw/engine.hpp"

namespace empls::sw {

class HashEngine : public LabelEngine {
 public:
  explicit HashEngine(std::size_t level_capacity = 1024)
      : capacity_(level_capacity) {}

  [[nodiscard]] std::string_view name() const override { return "hash"; }

  [[nodiscard]] std::optional<mpls::LabelPair> lookup(unsigned level,
                                                      rtl::u32 key) override;
  UpdateOutcome update(mpls::Packet& packet, unsigned level,
                       hw::RouterType router_type) override;
  [[nodiscard]] std::size_t level_size(unsigned level) const override;
  [[nodiscard]] bool cacheable() const noexcept override { return true; }

 protected:
  void do_clear() override;
  bool do_write_pair(unsigned level, const mpls::LabelPair& pair) override;
  /// The single-event-upset model for the hash store: garble the mapped
  /// value's outgoing label in place (the key and operation survive, as
  /// in the other engines), so corruption campaigns hit this engine too
  /// instead of silently no-oping through the default.
  bool do_corrupt_entry(unsigned level, rtl::u32 key,
                        rtl::u32 new_label) override;

 private:
  struct Stored {
    rtl::u32 new_label;
    mpls::LabelOp op;
  };

  std::unordered_map<rtl::u32, Stored>& level_ref(unsigned level);
  [[nodiscard]] const std::unordered_map<rtl::u32, Stored>& level_ref(
      unsigned level) const;
  [[nodiscard]] static rtl::u32 key_mask(unsigned level) noexcept;

  std::size_t capacity_;
  std::array<std::unordered_map<rtl::u32, Stored>, 3> levels_;
};

}  // namespace empls::sw
