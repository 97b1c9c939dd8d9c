// Software mirror of the hardware algorithm: three append-only levels
// scanned linearly, first match wins.  This is both (a) the "entirely
// software based" MPLS the paper contrasts against, doing exactly what
// the hardware does, and (b) the golden model differential tests compare
// the RTL against.
//
// UpdateOutcome::hw_cycles carries the Table 6 cost the equivalent
// hardware run would take (3k+5 search + tail), so the engine can stand
// in for the RTL in large simulations at identical modelled cost.
#pragma once

#include <array>
#include <vector>

#include "sw/engine.hpp"

namespace empls::sw {

class LinearEngine : public LabelEngine {
 public:
  explicit LinearEngine(std::size_t level_capacity = 1024)
      : capacity_(level_capacity) {
    // The capacity is a hard bound (write_pair refuses past it), so the
    // levels can be sized once here and never reallocate mid-run.
    for (auto& level : levels_) {
      level.reserve(capacity_);
    }
  }

  [[nodiscard]] std::string_view name() const override { return "linear"; }

  [[nodiscard]] std::optional<mpls::LabelPair> lookup(unsigned level,
                                                      rtl::u32 key) override;
  UpdateOutcome update(mpls::Packet& packet, unsigned level,
                       hw::RouterType router_type) override;
  [[nodiscard]] std::size_t level_size(unsigned level) const override;
  [[nodiscard]] bool cacheable() const noexcept override { return true; }
  [[nodiscard]] rtl::u64 last_lookup_cost_cycles() const noexcept override;

  /// 1-based position of the hit of the last lookup, or the stored count
  /// on a miss — the `k`/`n` of the 3k+5 cost formula.
  [[nodiscard]] rtl::u64 last_entries_examined() const noexcept {
    return last_examined_;
  }

 protected:
  void do_clear() override;
  bool do_write_pair(unsigned level, const mpls::LabelPair& pair) override;
  bool do_corrupt_entry(unsigned level, rtl::u32 key,
                        rtl::u32 new_label) override;

 private:
  std::vector<mpls::LabelPair>& level_ref(unsigned level);
  [[nodiscard]] const std::vector<mpls::LabelPair>& level_ref(
      unsigned level) const;

  std::size_t capacity_;
  std::array<std::vector<mpls::LabelPair>, 3> levels_;
  rtl::u64 last_examined_ = 0;
};

}  // namespace empls::sw
