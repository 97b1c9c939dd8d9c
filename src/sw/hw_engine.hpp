// LabelEngine adapter over the cycle-accurate RTL label stack modifier.
//
// Per packet, the adapter plays the role of the ingress/egress packet
// processing interfaces of Figure 6: it loads the packet's label stack
// into the hardware with direct user pushes (3 cycles each), runs the
// update flow, and reads the modified stack back.  hw_cycles reports the
// full cost including the load — exactly what the embedded router spends.
#pragma once

#include "hw/label_stack_modifier.hpp"
#include "sw/engine.hpp"

namespace empls::sw {

class HwEngine : public LabelEngine {
 public:
  HwEngine() = default;

  [[nodiscard]] std::string_view name() const override { return "hw-rtl"; }

  [[nodiscard]] std::optional<mpls::LabelPair> lookup(unsigned level,
                                                      rtl::u32 key) override;
  /// Modelled search cost of the most recent lookup(), straight from
  /// the hardware's SearchResult — the VCD-aligned per-lookup figure.
  [[nodiscard]] rtl::u64 last_lookup_cost_cycles() const noexcept override {
    return last_lookup_cycles_;
  }
  UpdateOutcome update(mpls::Packet& packet, unsigned level,
                       hw::RouterType router_type) override;
  [[nodiscard]] std::size_t level_size(unsigned level) const override;

  hw::LabelStackModifier& modifier() noexcept { return hw_; }

  /// Cycles of the most recent update spent inside the modifier's update
  /// flow itself (excluding the stack load/unload the adapter performs).
  [[nodiscard]] rtl::u64 last_update_only_cycles() const noexcept {
    return last_update_only_;
  }

 protected:
  void do_clear() override;
  bool do_write_pair(unsigned level, const mpls::LabelPair& pair) override;
  bool do_corrupt_entry(unsigned level, rtl::u32 key,
                        rtl::u32 new_label) override;

 private:
  hw::LabelStackModifier hw_;
  rtl::u64 last_update_only_ = 0;
  rtl::u64 last_lookup_cycles_ = 0;
};

}  // namespace empls::sw
