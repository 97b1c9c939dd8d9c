// Software forwarding tables kept by the routing functionality.
//
// Standard MPLS data structures (RFC 3031 terminology):
//   * NHLFE — Next Hop Label Forwarding Entry: the operation to perform,
//     the outgoing label (for PUSH/SWAP), next hop and outgoing interface.
//   * FTN — FEC-To-NHLFE: FEC id → NHLFE (used by ingress LERs).
// The label pairs an LSR's incoming label map programs into hardware live,
// with their out ports, in the routing functionality's core::BindingTable.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "mpls/label.hpp"
#include "mpls/operations.hpp"

namespace empls::mpls {

/// Identifies a neighbour port; the network simulator maps this to a
/// link.  kLocalDeliver means the packet leaves the MPLS domain here.
using InterfaceId = std::uint32_t;
inline constexpr InterfaceId kLocalDeliver = 0xFFFFFFFF;

struct Nhlfe {
  LabelOp op = LabelOp::kNop;
  std::uint32_t out_label = 0;  // meaningful for kPush / kSwap
  InterfaceId out_interface = kLocalDeliver;

  friend bool operator==(const Nhlfe&, const Nhlfe&) = default;

  [[nodiscard]] std::string to_string() const;
};

/// One (index, new label, operation) triple as stored in a hardware
/// information-base level (Figure 13 memory components).
struct LabelPair {
  std::uint32_t index = 0;      // packet identifier (level 1) or label
  std::uint32_t new_label = 0;  // 20 bits
  LabelOp op = LabelOp::kNop;

  friend bool operator==(const LabelPair&, const LabelPair&) = default;
};

/// FEC-To-NHLFE: FEC id → NHLFE (ingress LER only).
class FtnTable {
 public:
  std::optional<Nhlfe> bind(std::uint32_t fec_id, const Nhlfe& nhlfe);

  bool unbind(std::uint32_t fec_id);

  [[nodiscard]] std::optional<Nhlfe> lookup(std::uint32_t fec_id) const;

  [[nodiscard]] std::size_t size() const noexcept { return map_.size(); }

 private:
  std::unordered_map<std::uint32_t, Nhlfe> map_;
};

/// Allocates locally-unique unreserved labels for LSP setup.  Supports
/// reserving a specific value — the control plane uses this to keep an
/// inner label valid across a tunnel, since the hardware PUSH flow
/// re-pushes the inner label unchanged.
class LabelAllocator {
 public:
  explicit LabelAllocator(std::uint32_t first = kFirstUnreservedLabel)
      : next_(first) {}

  /// Allocate a fresh label; nullopt when the 20-bit space is exhausted.
  std::optional<std::uint32_t> allocate();

  /// Claim a specific label value; false when it is already in use or
  /// out of range.
  bool reserve(std::uint32_t label);

  /// True when `label` is currently allocated.
  [[nodiscard]] bool is_allocated(std::uint32_t label) const {
    return in_use_.contains(label);
  }

  /// Return `label` to the pool.  Releasing a free label is ignored.
  void release(std::uint32_t label);

  [[nodiscard]] std::size_t allocated() const noexcept {
    return in_use_.size();
  }

 private:
  std::uint32_t next_;
  std::unordered_set<std::uint32_t> in_use_;
};

}  // namespace empls::mpls
