#include "core/ingress.hpp"

#include "sw/semantics.hpp"

namespace empls::core {

IngressProcessor::Classification IngressProcessor::classify(
    const mpls::Packet& packet) noexcept {
  // Level selection is shared with the engines (sw::classify_level), so
  // an engine driven directly classifies exactly as this ingress path.
  Classification c;
  c.level = sw::classify_level(packet);
  if (packet.stack.empty()) {
    c.key = packet.packet_identifier();
    c.labeled = false;
  } else {
    c.key = packet.stack.top().label;
    c.labeled = true;
  }
  return c;
}

std::optional<mpls::Packet> IngressProcessor::parse(
    std::span<const std::uint8_t> bytes) {
  return mpls::Packet::parse(bytes);
}

bool IngressProcessor::wire_round_trip_ok(const mpls::Packet& packet) {
  // The exact condition under which Packet::parse(packet.serialize())
  // reproduces the packet, checked on the fields in place (no buffer, no
  // copy).  Everything else — addresses, CoS, IP TTL, entry TTLs, the
  // payload bytes — is carried verbatim by the wire format.
  //   * parse rejects an l2 byte beyond the last L2Type;
  //   * the 16-bit payload length field truncates a larger payload;
  //   * parse rebuilds the stack at the hardware capacity, so a stack of
  //     any other capacity compares unequal (and no stack is ever deeper
  //     than its capacity);
  //   * encode truncates labels and CoS wider than their fields;
  //   * parse stops at the first S bit and re-derives S bottom-up, so only
  //     an S bit on exactly the bottom entry survives unchanged.
  const auto& stack = packet.stack;
  if (packet.l2 > mpls::L2Type::kFrameRelay ||
      packet.payload.size() > 0xFFFF ||
      stack.capacity() != mpls::LabelStack::kHardwareDepth) {
    return false;
  }
  for (std::size_t i = 0; i < stack.size(); ++i) {
    if (!mpls::is_well_formed(stack.at(i))) {
      return false;
    }
  }
  return stack.s_bit_invariant_holds();
}

}  // namespace empls::core
