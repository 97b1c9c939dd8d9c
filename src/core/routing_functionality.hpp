// The router's software control-plane agent (Figure 6's "routing
// functionality"): programs label pairs into the engine's information
// base, keeps the software-side state the hardware cannot hold (FEC
// prefixes, the label space), and serves the ingress slow path that
// installs exact hardware entries on demand.
//
// Every programmed pair is kept once, with its out port, in a
// BindingTable with three jobs: the next hop (out_port), the intended
// state the fault model garbles the engine against (corrupt_binding,
// resync_hardware), and the list reprogram_hardware() replays in
// ascending (level, key) order — the linear and RTL engines charge 3k+5
// cycles by a pair's position, so the order reaches every cycle count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <vector>

#include "mpls/fec.hpp"
#include "mpls/tables.hpp"
#include "net/mpls_node.hpp"
#include "sw/engine.hpp"

namespace empls::core {

/// Every label pair the control plane programmed, keyed (level, key), with
/// its next-hop port as action data (DESIGN.md §5, item 7).  One flat
/// array of 12-byte slots: linear probing from a multiply-shift home
/// (sequential host keys land a golden-ratio stride apart), doubling past
/// a 7/8 load, and backward-shift deletion, so prefix purges leave no
/// tombstones.  A slot does not store the pair's index: it always equals
/// the key.
class BindingTable {
 public:
  struct Slot {
    rtl::u32 key = 0;
    rtl::u32 word = 0;  // label [0,20) | op [20,22) | level [22,24); 0 = empty
    mpls::InterfaceId port = 0;

    [[nodiscard]] unsigned level() const noexcept { return word >> 22; }
    [[nodiscard]] mpls::LabelPair pair() const noexcept {
      return {key, word & mpls::kMaxLabel,
              static_cast<mpls::LabelOp>((word >> 20) & 3u)};
    }
    /// (level, key) as one integer; ascending order is replay order.
    [[nodiscard]] std::uint64_t order() const noexcept {
      return std::uint64_t{level()} << 32 | key;
    }
    friend bool operator<(const Slot& a, const Slot& b) noexcept {
      return a.order() < b.order();
    }
  };

  [[nodiscard]] const Slot* find(unsigned level, rtl::u32 key) const noexcept {
    const Slot& s = slots_[probe(std::uint64_t{level} << 32 | key)];
    return s.word == 0 ? nullptr : &s;
  }

  /// Insert or overwrite (level, pair.index): level 1..3, label ≤ 20 bits.
  void assign(unsigned level, const mpls::LabelPair& pair,
              mpls::InterfaceId port) {
    const Slot slot{pair.index,
                    pair.new_label | static_cast<rtl::u32>(pair.op) << 20 |
                        level << 22,
                    port};
    if (find(level, pair.index) == nullptr &&
        ++size_ * 8 > slots_.size() * 7) {
      grow();
    }
    slots_[probe(slot.order())] = slot;
  }

  /// Remove (level, key), if stored.
  void erase(unsigned level, rtl::u32 key) {
    std::size_t hole = probe(std::uint64_t{level} << 32 | key);
    if (slots_[hole].word == 0) {
      return;
    }
    // Backward shift: pull each later member of the probe run whose home
    // does not lie cyclically after the hole back into the hole.
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t j = (hole + 1) & mask; slots_[j].word != 0;
         j = (j + 1) & mask) {
      if (((j - home(slots_[j].order())) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
  }

  /// Every stored binding, in slot order.
  [[nodiscard]] std::vector<Slot> entries() const {
    std::vector<Slot> out;
    out.reserve(size_);
    std::copy_if(slots_.begin(), slots_.end(), std::back_inserter(out),
                 [](const Slot& s) { return s.word != 0; });
    return out;
  }
  /// Every stored binding, in ascending (level, key) order.
  [[nodiscard]] std::vector<Slot> sorted() const {
    auto out = entries();
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Bytes held by the slot array (capacity × slot size).
  [[nodiscard]] std::size_t bytes() const noexcept {
    return slots_.size() * sizeof(Slot);
  }

 private:
  [[nodiscard]] std::size_t home(std::uint64_t order) const noexcept {
    return static_cast<std::size_t>((order * 0x9e3779b97f4a7c15ULL) >> shift_);
  }
  /// Slot holding `order`, or the empty slot that ends its probe run.
  [[nodiscard]] std::size_t probe(std::uint64_t order) const noexcept {
    std::size_t i = home(order);
    while (slots_[i].word != 0 && slots_[i].order() != order) {
      i = (i + 1) & (slots_.size() - 1);
    }
    return i;
  }
  void grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    --shift_;
    for (const Slot& s : old) {
      if (s.word != 0) {
        slots_[probe(s.order())] = s;
      }
    }
  }

  std::vector<Slot> slots_ = std::vector<Slot>(16);  // power-of-two length
  std::size_t size_ = 0;
  unsigned shift_ = 60;  // 64 - log2(slots_.size())
};

static_assert(sizeof(BindingTable::Slot) == 12);

class RoutingFunctionality : public net::MplsNode {
 public:
  /// `first_label` seeds this router's label space.  Label spaces are
  /// per-router, so overlapping values across routers are legal; a
  /// distinct base per router just makes traces easier to read.
  explicit RoutingFunctionality(
      sw::LabelEngine& engine,
      std::uint32_t first_label = mpls::kFirstUnreservedLabel)
      : engine_(&engine), allocator_(first_label) {}

  // ---- net::MplsNode (control-plane programming) ----
  bool program_ingress_exact(rtl::u32 packet_id, rtl::u32 out_label,
                             mpls::InterfaceId out_port) override;
  bool program_ingress_prefix(const mpls::Prefix& fec, rtl::u32 out_label,
                              mpls::InterfaceId out_port) override;
  bool program_swap(unsigned level, rtl::u32 in_label, rtl::u32 out_label,
                    mpls::InterfaceId out_port) override;
  bool program_pop(unsigned level, rtl::u32 in_label,
                   mpls::InterfaceId out_port) override;
  bool program_push(unsigned level, rtl::u32 in_label, rtl::u32 outer_label,
                    mpls::InterfaceId out_port) override;
  bool program_local(const mpls::Prefix& fec) override;
  mpls::LabelAllocator& label_allocator() override { return allocator_; }
  bool corrupt_binding(std::uint64_t salt) override;
  unsigned resync_hardware() override;

  /// True when `dst` falls in a locally attached prefix (PHP egress).
  [[nodiscard]] bool is_local(mpls::Ipv4Address dst) const {
    return local_.lookup(dst).has_value();
  }

  // ---- data-plane support ----

  /// Next-hop resolution for the entry keyed (level, key); nullopt when
  /// the control plane never programmed it.
  [[nodiscard]] std::optional<mpls::InterfaceId> out_port(
      unsigned level, rtl::u32 key) const noexcept {
    const BindingTable::Slot* slot = table_.find(level, key);
    return slot != nullptr ? std::optional{slot->port} : std::nullopt;
  }

  /// Bytes held by the binding table (slot capacity × slot size).
  [[nodiscard]] std::size_t table_bytes() const noexcept {
    return table_.bytes();
  }

  /// Ingress slow path: an unlabeled packet missed the hardware level-1
  /// table.  Consult the software FEC prefixes; on a hit, install the
  /// exact (packet identifier → push) pair in hardware so subsequent
  /// packets — and the immediate retry — take the fast path.
  bool slow_path_install(rtl::u32 packet_id);

  [[nodiscard]] std::uint64_t slow_path_installs() const noexcept {
    return slow_path_installs_;
  }

  /// Times the hardware was fully reprogrammed (a rebind of an existing
  /// entry forces the paper's reset + rewrite flow, Section 4's worst
  /// case).
  [[nodiscard]] std::uint64_t hardware_reprograms() const noexcept {
    return hardware_reprograms_;
  }

  /// Bindings garbled by corrupt_binding / divergences repaired by
  /// resync_hardware since construction.
  [[nodiscard]] std::uint64_t corruptions() const noexcept {
    return corruptions_;
  }
  [[nodiscard]] std::uint64_t resyncs() const noexcept { return resyncs_; }

  /// Software FEC state, exposed for tests and inspection.
  [[nodiscard]] const mpls::FecTable& fec_table() const noexcept {
    return fec_;
  }
  [[nodiscard]] const mpls::FtnTable& ftn_table() const noexcept {
    return ftn_;
  }

 private:
  bool bind(unsigned level, const mpls::LabelPair& pair,
            mpls::InterfaceId out_port);

  /// Rebind-aware hardware programming: the hardware information base
  /// is append-only with first-match-wins lookups, so changing an
  /// existing binding requires the paper's reset-and-reprogram flow.
  void reprogram_hardware();

  sw::LabelEngine* engine_;
  mpls::LabelAllocator allocator_;
  mpls::FecTable fec_;    // prefix → fec id
  mpls::FtnTable ftn_;    // fec id → NHLFE (ingress bindings)
  mpls::FecTable local_;  // locally attached prefixes (PHP egress)
  BindingTable table_;    // every programmed pair, with its out port
  std::uint32_t next_fec_id_ = 1;
  std::uint64_t slow_path_installs_ = 0;
  std::uint64_t hardware_reprograms_ = 0;
  std::uint64_t corruptions_ = 0;
  std::uint64_t resyncs_ = 0;
};

}  // namespace empls::core
