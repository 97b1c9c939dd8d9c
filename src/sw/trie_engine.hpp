// Scalable FIB tier: the million-entry information base the paper's
// 3x1K-pair memories cannot hold.
//
// The paper caps each information-base level at 1024 pairs; production
// LSRs (and the P4/ASIC-scale tables of the MNA line of work) carry
// millions of bindings.  This engine keeps the LabelEngine contract —
// same first-match-wins semantics, same epoch discipline, same exact
// Table 6 cycle accounting on paper-sized bases — while storing the
// base in structures that scale:
//
//   * Level 1 (ingress classification by packet identifier) is a
//     path-compressed binary patricia trie over the 32-bit key.  Every
//     write_pair installs a /32 host route, so on bases the linear
//     engine can also hold the trie is bit-identical to it; the
//     trie-only write_prefix() additionally installs real prefix
//     routes, looked up longest-prefix-match (nested, overlapping and
//     default routes compose the way an IP FIB does).
//   * Levels 2 and 3 (label tables, 20-bit keys) are compact
//     open-addressing tables: splitmix32 spread, linear probing, 0.7
//     load factor — the FlatCounts pattern with a label-pair payload.
//
// All storage is slab-backed (contiguous arrays grown only at
// power-of-two rehash points, never on the lookup path, kept across
// clear()), so steady-state forwarding and reprogram churn allocate
// nothing — the PacketPool discipline applied to the FIB.
//
// Modelled cost (DESIGN.md section 12): while a level holds no more
// pairs than the paper's hardware could (<= 1024 accepted writes), a
// lookup charges exactly the linear engine's Table 6 cost — 3k+5 with
// k the 1-based position the equivalent linear scan would have
// examined (each stored binding remembers its write sequence number).
// Past 1024 the linear hardware no longer exists to mirror, and the
// cost model switches to the scalable hardware the structures
// transcribe: 3 cycles per trie node visited (level 1) or per probe
// slot inspected (levels 2/3), plus the same 5-cycle search setup.
// The two regimes meet at the paper boundary, so differential suites
// against LinearEngine stay cycle-exact wherever both engines can
// represent the base.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "sw/engine.hpp"

namespace empls::sw {

class TrieEngine : public LabelEngine {
 public:
  /// The paper's per-level hardware capacity: at or below this many
  /// accepted writes a level charges exact Table 6 linear-scan cycles;
  /// above it the scalable cost model applies.
  static constexpr std::size_t kPaperLevelEntries = 1024;

  /// Default per-level capacity: 1M pairs, the scale the ROADMAP's
  /// "millions of users" scenarios need (the ctor argument overrides,
  /// e.g. 1024 to mirror LinearEngine exactly in differential tests).
  static constexpr std::size_t kDefaultLevelCapacity = 1u << 20;

  explicit TrieEngine(std::size_t level_capacity = kDefaultLevelCapacity);

  [[nodiscard]] std::string_view name() const override { return "trie"; }

  [[nodiscard]] std::optional<mpls::LabelPair> lookup(unsigned level,
                                                      rtl::u32 key) override;
  UpdateOutcome update(mpls::Packet& packet, unsigned level,
                       hw::RouterType router_type) override;
  [[nodiscard]] std::size_t level_size(unsigned level) const override;
  [[nodiscard]] bool cacheable() const noexcept override { return true; }
  [[nodiscard]] rtl::u64 last_lookup_cost_cycles() const noexcept override;

  /// Trie-only: install a level-1 prefix route.  `pair.index` holds the
  /// prefix value (host byte order, low bits ignored), `prefix_len` its
  /// length 0..32 (0 = default route).  Lookups return the
  /// longest-prefix match; among entries for the same exact prefix the
  /// first binding wins, like every other write path here.  Counts
  /// against the level-1 capacity and advances the epoch exactly as
  /// write_pair does.  Returns false when level 1 is full or
  /// `prefix_len` is out of range.
  bool write_prefix(unsigned prefix_len, const mpls::LabelPair& pair);

  /// The k of the most recent lookup's 3k+5 cost: the linear-equivalent
  /// position on paper-sized bases, the nodes-visited / slots-probed
  /// count past them (see the header comment).
  [[nodiscard]] rtl::u64 last_entries_examined() const noexcept {
    return last_examined_;
  }

  /// Pre-size a level's slabs for `entries` bindings so programming a
  /// known-size base never rehashes mid-load (benches use this; growth
  /// works without it, just with amortized doubling along the way).
  void reserve(unsigned level, std::size_t entries);

  /// Slab accounting for the bytes-per-entry gate: capacity bytes of
  /// every backing array (trie nodes, entry records, table lanes) and
  /// the distinct bindings they hold.
  struct MemoryStats {
    std::size_t bytes = 0;
    std::size_t entries = 0;
    std::size_t trie_nodes = 0;
    [[nodiscard]] double bytes_per_entry() const {
      return entries == 0 ? 0.0
                          : static_cast<double>(bytes) /
                                static_cast<double>(entries);
    }
  };
  [[nodiscard]] MemoryStats memory_stats() const;

 protected:
  void do_clear() override;
  bool do_write_pair(unsigned level, const mpls::LabelPair& pair) override;
  bool do_corrupt_entry(unsigned level, rtl::u32 key,
                        rtl::u32 new_label) override;

 private:
  static constexpr rtl::u32 kNil = 0xFFFFFFFFu;

  /// One patricia node: the prefix it stands for (value left-aligned,
  /// `len` significant bits), two children keyed by the bit after the
  /// prefix, and the binding installed at exactly this prefix (kNil =
  /// pure branch point).  20 bytes; a base of N prefixes needs at most
  /// 2N+1 nodes (one leaf each plus at most one split, plus the root).
  struct TrieNode {
    rtl::u32 value = 0;
    rtl::u32 child[2] = {kNil, kNil};
    rtl::u32 entry = kNil;
    rtl::u8 len = 0;
  };

  /// A level-1 binding: the pair as written plus its prefix length and
  /// linear-equivalent write sequence number (1-based).
  struct TrieEntry {
    rtl::u32 raw_index = 0;
    rtl::u32 new_label = 0;
    rtl::u32 seq = 0;
    mpls::LabelOp op = mpls::LabelOp::kNop;
    rtl::u8 prefix_len = 32;
  };

  /// Levels 2/3: open-addressing label table, structure-of-arrays so
  /// the probe loop touches only the key lane (the FlatCounts layout).
  struct OpenTable {
    std::vector<rtl::u32> keys;  // masked key; kNil marks an empty slot
    std::vector<rtl::u32> raw_index;
    std::vector<rtl::u32> new_labels;
    std::vector<rtl::u32> seq;
    std::vector<mpls::LabelOp> ops;
    std::size_t distinct = 0;
  };

  struct LpmResult {
    rtl::u32 entry = kNil;   // index into entries_
    rtl::u64 nodes_visited = 0;
  };

  [[nodiscard]] static rtl::u32 prefix_mask(unsigned len) noexcept {
    return len == 0 ? 0u : ~rtl::u32{0} << (32u - len);
  }
  [[nodiscard]] static unsigned bit_at(rtl::u32 value, unsigned pos) noexcept {
    return (value >> (31u - pos)) & 1u;
  }
  [[nodiscard]] static std::size_t table_hash(rtl::u32 key) noexcept;

  /// Insert (value, len) into the trie; returns the entry slot to fill,
  /// or kNil when an entry for this exact prefix already exists (first
  /// binding wins).
  rtl::u32 trie_insert(rtl::u32 value, unsigned len);
  [[nodiscard]] LpmResult trie_lpm(rtl::u32 key) const;
  bool level1_write(unsigned prefix_len, const mpls::LabelPair& pair);

  OpenTable& table_ref(unsigned level);
  [[nodiscard]] const OpenTable& table_ref(unsigned level) const;
  /// Probe for `masked_key`: the slot index (empty or matching) and the
  /// 1-based number of slots inspected.
  [[nodiscard]] static std::pair<std::size_t, rtl::u64> table_probe(
      const OpenTable& t, rtl::u32 masked_key) noexcept;
  static void table_rehash(OpenTable& t, std::size_t slots);
  bool table_write(unsigned level, const mpls::LabelPair& pair);

  /// The k the cost model charges for the most recent search at
  /// `level`: linear-equivalent below the paper boundary, the
  /// structural cost above it.
  [[nodiscard]] rtl::u64 cost_entries(unsigned level, bool hit,
                                      rtl::u64 hit_seq,
                                      rtl::u64 structural) const noexcept;

  std::size_t capacity_;
  /// Accepted writes per level — the length of the equivalent linear
  /// level (duplicate-key writes count: the linear engine appends
  /// them), which is what level_size(), the capacity check, the paper
  /// boundary and the miss cost all key off.
  std::array<rtl::u64, 3> writes_{0, 0, 0};

  std::vector<TrieNode> nodes_;    // level 1; node 0 is the len-0 root
  std::vector<TrieEntry> entries_;

  std::array<OpenTable, 2> tables_;  // levels 2 and 3

  rtl::u64 last_examined_ = 0;
};

}  // namespace empls::sw
