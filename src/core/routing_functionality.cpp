#include "core/routing_functionality.hpp"

#include <algorithm>

namespace empls::core {

using mpls::LabelOp;
using mpls::LabelPair;

void RoutingFunctionality::reprogram_hardware() {
  engine_->clear();
  for (const auto& slot : table_.sorted()) {
    engine_->write_pair(slot.level(), slot.pair());
  }
  ++hardware_reprograms_;
}

bool RoutingFunctionality::bind(unsigned level, const LabelPair& pair,
                                mpls::InterfaceId out_port) {
  if (pair.new_label > mpls::kMaxLabel) {
    return false;  // not a 20-bit label: no information-base slot holds it
  }
  const auto* slot = table_.find(level, pair.index);
  const bool rebind = slot != nullptr;
  if (rebind && slot->pair() == pair && slot->port == out_port) {
    return true;  // identical binding: nothing to do
  }
  if (!rebind && !engine_->write_pair(level, pair)) {
    return false;  // information-base level full
  }
  table_.assign(level, pair, out_port);
  if (rebind) {
    // The append-only, first-match hardware would keep serving the stale
    // entry: run the reset + reprogram flow the paper's worst case costs.
    reprogram_hardware();
  }
  return true;
}

bool RoutingFunctionality::program_ingress_exact(rtl::u32 packet_id,
                                                 rtl::u32 out_label,
                                                 mpls::InterfaceId out_port) {
  return bind(1, LabelPair{packet_id, out_label, LabelOp::kPush}, out_port);
}

bool RoutingFunctionality::program_ingress_prefix(const mpls::Prefix& fec,
                                                  rtl::u32 out_label,
                                                  mpls::InterfaceId out_port) {
  // Software-only: hardware entries are installed per packet identifier
  // by the slow path.  Reuse the FEC id if the prefix is already known.
  std::uint32_t fec_id;
  if (const auto existing = fec_.lookup_exact(fec)) {
    fec_id = *existing;
  } else {
    fec_id = next_fec_id_++;
    fec_.insert(fec, fec_id);
  }
  const mpls::Nhlfe nhlfe{LabelOp::kPush, out_label, out_port};
  const auto previous = ftn_.bind(fec_id, nhlfe);
  if (previous && !(*previous == nhlfe)) {
    // The prefix now maps elsewhere: exact level-1 entries the slow
    // path derived from the old binding are stale.  Drop any entry the
    // prefix covers and reprogram; traffic re-installs them on demand.
    bool purged = false;
    for (const auto& slot : table_.entries()) {
      if (slot.level() == 1 && fec.contains(mpls::Ipv4Address{slot.key})) {
        table_.erase(1, slot.key);
        purged = true;
      }
    }
    if (purged) {
      reprogram_hardware();
    }
  }
  return true;
}

bool RoutingFunctionality::program_local(const mpls::Prefix& fec) {
  if (!local_.lookup_exact(fec)) {
    local_.insert(fec, next_fec_id_++);
  }
  return true;
}

bool RoutingFunctionality::program_swap(unsigned level, rtl::u32 in_label,
                                        rtl::u32 out_label,
                                        mpls::InterfaceId out_port) {
  return bind(level, LabelPair{in_label, out_label, LabelOp::kSwap}, out_port);
}

bool RoutingFunctionality::program_pop(unsigned level, rtl::u32 in_label,
                                       mpls::InterfaceId out_port) {
  return bind(level, LabelPair{in_label, 0, LabelOp::kPop}, out_port);
}

bool RoutingFunctionality::program_push(unsigned level, rtl::u32 in_label,
                                        rtl::u32 outer_label,
                                        mpls::InterfaceId out_port) {
  return bind(level, LabelPair{in_label, outer_label, LabelOp::kPush},
              out_port);
}

bool RoutingFunctionality::corrupt_binding(std::uint64_t salt) {
  // The (salt % n)-th binding in (level, key) order.
  auto slots = table_.entries();
  if (slots.empty()) {
    return false;
  }
  const auto nth =
      slots.begin() + static_cast<std::ptrdiff_t>(salt % slots.size());
  std::nth_element(slots.begin(), nth, slots.end());
  const LabelPair pair = nth->pair();
  // Flip label bits derived from the salt; never a no-op garble.
  rtl::u32 garbled = (pair.new_label ^ static_cast<rtl::u32>(1 + salt / 7)) &
                     static_cast<rtl::u32>(mpls::kMaxLabel);
  if (garbled == pair.new_label) {
    garbled ^= 1;
  }
  // The engine's stored entry diverges; `table_` deliberately does not —
  // that is the fault model.
  if (!engine_->corrupt_entry(nth->level(), pair.index, garbled)) {
    return false;
  }
  ++corruptions_;
  return true;
}

unsigned RoutingFunctionality::resync_hardware() {
  // Audit in replay order: an RTL-backed engine runs each lookup.
  unsigned divergent = 0;
  for (const auto& slot : table_.sorted()) {
    const auto stored = engine_->lookup(slot.level(), slot.key);
    if (!stored || !(*stored == slot.pair())) {
      ++divergent;
    }
  }
  if (divergent > 0) {
    reprogram_hardware();
    ++resyncs_;
  }
  return divergent;
}

bool RoutingFunctionality::slow_path_install(rtl::u32 packet_id) {
  const auto fec_id = fec_.lookup(mpls::Ipv4Address{packet_id});
  if (!fec_id) {
    return false;
  }
  const auto nhlfe = ftn_.lookup(*fec_id);
  if (!nhlfe) {
    return false;
  }
  if (!program_ingress_exact(packet_id, nhlfe->out_label,
                             nhlfe->out_interface)) {
    return false;
  }
  ++slow_path_installs_;
  return true;
}

}  // namespace empls::core
