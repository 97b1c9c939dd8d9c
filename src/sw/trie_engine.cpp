#include "sw/trie_engine.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "hw/cycle_model.hpp"
#include "mpls/label.hpp"
#include "net/mix.hpp"
#include "sw/semantics.hpp"

namespace empls::sw {

namespace {

constexpr rtl::u32 label_mask() noexcept {
  return static_cast<rtl::u32>(mpls::kMaxLabel);
}

}  // namespace

TrieEngine::TrieEngine(std::size_t level_capacity)
    : capacity_(level_capacity) {
  nodes_.push_back(TrieNode{});  // the len-0 root (default-route slot)
  for (auto& t : tables_) {
    table_rehash(t, 16);
  }
}

std::size_t TrieEngine::table_hash(rtl::u32 key) noexcept {
  // mix32, as in net::FlatCounts: full-avalanche spread so sequentially
  // allocated labels do not chain into one probe run.
  return net::mix32(key);
}

TrieEngine::OpenTable& TrieEngine::table_ref(unsigned level) {
  assert(level >= 2 && level <= 3);
  return tables_[level - 2];
}

const TrieEngine::OpenTable& TrieEngine::table_ref(unsigned level) const {
  assert(level >= 2 && level <= 3);
  return tables_[level - 2];
}

std::pair<std::size_t, rtl::u64> TrieEngine::table_probe(
    const OpenTable& t, rtl::u32 masked_key) noexcept {
  const std::size_t mask = t.keys.size() - 1;
  std::size_t i = table_hash(masked_key) & mask;
  rtl::u64 probed = 1;
  while (t.keys[i] != kNil && t.keys[i] != masked_key) {
    i = (i + 1) & mask;
    ++probed;
  }
  return {i, probed};
}

void TrieEngine::table_rehash(OpenTable& t, std::size_t slots) {
  const std::vector<rtl::u32> old_keys = std::move(t.keys);
  const std::vector<rtl::u32> old_raw = std::move(t.raw_index);
  const std::vector<rtl::u32> old_labels = std::move(t.new_labels);
  const std::vector<rtl::u32> old_seq = std::move(t.seq);
  const std::vector<mpls::LabelOp> old_ops = std::move(t.ops);
  t.keys.assign(slots, kNil);
  t.raw_index.assign(slots, 0);
  t.new_labels.assign(slots, 0);
  t.seq.assign(slots, 0);
  t.ops.assign(slots, mpls::LabelOp::kNop);
  for (std::size_t i = 0; i < old_keys.size(); ++i) {
    if (old_keys[i] == kNil) {
      continue;
    }
    const auto [j, probed] = table_probe(t, old_keys[i]);
    t.keys[j] = old_keys[i];
    t.raw_index[j] = old_raw[i];
    t.new_labels[j] = old_labels[i];
    t.seq[j] = old_seq[i];
    t.ops[j] = old_ops[i];
  }
}

bool TrieEngine::table_write(unsigned level, const mpls::LabelPair& pair) {
  OpenTable& t = table_ref(level);
  if ((t.distinct + 1) * 10 >= t.keys.size() * 7) {  // load factor 0.7
    table_rehash(t, t.keys.size() * 2);
  }
  const rtl::u32 masked = pair.index & label_mask();
  const auto [slot, probed] = table_probe(t, masked);
  if (t.keys[slot] != kNil) {
    return false;  // first binding wins, like the linear scan order
  }
  t.keys[slot] = masked;
  t.raw_index[slot] = pair.index;
  t.new_labels[slot] = pair.new_label;
  t.seq[slot] = static_cast<rtl::u32>(writes_[level - 1] + 1);
  t.ops[slot] = pair.op;
  ++t.distinct;
  return true;
}

rtl::u32 TrieEngine::trie_insert(rtl::u32 value, unsigned len) {
  rtl::u32 cur = 0;
  for (;;) {
    // Invariant: nodes_[cur]'s prefix is a (possibly improper) prefix
    // of (value, len).
    if (nodes_[cur].len == len) {
      if (nodes_[cur].entry != kNil) {
        return kNil;  // first binding for this exact prefix wins
      }
      const auto slot = static_cast<rtl::u32>(entries_.size());
      nodes_[cur].entry = slot;
      return slot;
    }
    const unsigned b = bit_at(value, nodes_[cur].len);
    const rtl::u32 child = nodes_[cur].child[b];
    if (child == kNil) {
      const auto slot = static_cast<rtl::u32>(entries_.size());
      const auto leaf = static_cast<rtl::u32>(nodes_.size());
      nodes_.push_back(
          TrieNode{value, {kNil, kNil}, slot, static_cast<rtl::u8>(len)});
      nodes_[cur].child[b] = leaf;
      return slot;
    }
    // Copy the child's prefix before any push_back can move the slab.
    const rtl::u32 child_value = nodes_[child].value;
    const unsigned child_len = nodes_[child].len;
    const unsigned common = std::min(
        {static_cast<unsigned>(std::countl_zero(child_value ^ value)),
         child_len, len});
    if (common == child_len) {
      cur = child;  // the child's prefix still covers ours: descend
      continue;
    }
    const auto slot = static_cast<rtl::u32>(entries_.size());
    if (common == len) {
      // (value, len) is a proper prefix of the child: it becomes the
      // interior node above it, carrying the new entry.
      const auto mid = static_cast<rtl::u32>(nodes_.size());
      TrieNode m{value, {kNil, kNil}, slot, static_cast<rtl::u8>(len)};
      m.child[bit_at(child_value, len)] = child;
      nodes_.push_back(m);
      nodes_[cur].child[b] = mid;
      return slot;
    }
    // The paths diverge: a pure branch point at the common prefix with
    // the old child on one side and a new leaf on the other.
    const auto branch = static_cast<rtl::u32>(nodes_.size());
    TrieNode bn{value & prefix_mask(common),
                {kNil, kNil},
                kNil,
                static_cast<rtl::u8>(common)};
    bn.child[bit_at(child_value, common)] = child;
    nodes_.push_back(bn);
    const auto leaf = static_cast<rtl::u32>(nodes_.size());
    nodes_.push_back(
        TrieNode{value, {kNil, kNil}, slot, static_cast<rtl::u8>(len)});
    nodes_[branch].child[bit_at(value, common)] = leaf;
    nodes_[cur].child[b] = branch;
    return slot;
  }
}

TrieEngine::LpmResult TrieEngine::trie_lpm(rtl::u32 key) const {
  LpmResult r;
  rtl::u32 cur = 0;
  while (cur != kNil) {
    const TrieNode& n = nodes_[cur];
    ++r.nodes_visited;
    if ((key & prefix_mask(n.len)) != n.value) {
      break;  // path compression skipped bits that do not match
    }
    if (n.entry != kNil) {
      r.entry = n.entry;  // deepest matching prefix seen so far
    }
    if (n.len == 32) {
      break;
    }
    cur = n.child[bit_at(key, n.len)];
  }
  return r;
}

bool TrieEngine::level1_write(unsigned prefix_len,
                              const mpls::LabelPair& pair) {
  const rtl::u32 value = pair.index & prefix_mask(prefix_len);
  const rtl::u32 slot = trie_insert(value, prefix_len);
  if (slot == kNil) {
    return false;
  }
  assert(slot == entries_.size());
  entries_.push_back(TrieEntry{pair.index, pair.new_label,
                               static_cast<rtl::u32>(writes_[0] + 1),
                               pair.op, static_cast<rtl::u8>(prefix_len)});
  return true;
}

rtl::u64 TrieEngine::cost_entries(unsigned level, bool hit, rtl::u64 hit_seq,
                                  rtl::u64 structural) const noexcept {
  const rtl::u64 writes = writes_[level - 1];
  if (writes <= kPaperLevelEntries) {
    // Paper-sized base: charge exactly what the linear hardware scan
    // would — the hit's 1-based write position, the full level on a
    // miss.
    return hit ? hit_seq : writes;
  }
  // Scalable regime: the structural cost of the hardware these
  // structures model — trie nodes visited / table slots probed.
  return structural;
}

std::optional<mpls::LabelPair> TrieEngine::lookup(unsigned level,
                                                  rtl::u32 key) {
  assert(level >= 1 && level <= 3);
  if (level == 1) {
    const LpmResult r = trie_lpm(key);
    const bool hit = r.entry != kNil;
    last_examined_ = cost_entries(
        1, hit, hit ? entries_[r.entry].seq : 0, r.nodes_visited);
    if (!hit) {
      return std::nullopt;
    }
    const TrieEntry& e = entries_[r.entry];
    return mpls::LabelPair{e.raw_index, e.new_label, e.op};
  }
  const OpenTable& t = table_ref(level);
  const auto [slot, probed] = table_probe(t, key & label_mask());
  const bool hit = t.keys[slot] != kNil;
  last_examined_ = cost_entries(level, hit, hit ? t.seq[slot] : 0, probed);
  if (!hit) {
    return std::nullopt;
  }
  return mpls::LabelPair{t.raw_index[slot], t.new_labels[slot],
                         t.ops[slot]};
}

UpdateOutcome TrieEngine::update(mpls::Packet& packet, unsigned level,
                                 hw::RouterType router_type) {
  const UpdateKey k = update_key(packet, level);
  const bool was_empty = packet.stack.empty();
  const auto found = lookup(k.level, k.key);
  UpdateOutcome out = apply_update(packet, found, router_type);
  out.hw_cycles = hw::search_cycles(last_examined_) +
                  update_tail_cycles(out, was_empty, found.has_value());
  return out;
}

rtl::u64 TrieEngine::last_lookup_cost_cycles() const noexcept {
  return hw::search_cycles(last_examined_);
}

std::size_t TrieEngine::level_size(unsigned level) const {
  assert(level >= 1 && level <= 3);
  return static_cast<std::size_t>(writes_[level - 1]);
}

bool TrieEngine::write_prefix(unsigned prefix_len,
                              const mpls::LabelPair& pair) {
  if (prefix_len > 32 || writes_[0] >= capacity_) {
    return false;
  }
  bump_epoch();
  level1_write(prefix_len, pair);
  ++writes_[0];
  return true;
}

void TrieEngine::do_clear() {
  // Slabs keep their capacity: a clear + reprogram cycle (control-plane
  // resync, fault repair, attack churn) allocates nothing once the
  // structures have grown to working size.
  nodes_.clear();
  nodes_.push_back(TrieNode{});
  entries_.clear();
  for (auto& t : tables_) {
    std::fill(t.keys.begin(), t.keys.end(), kNil);
    t.distinct = 0;
  }
  writes_ = {0, 0, 0};
}

bool TrieEngine::do_write_pair(unsigned level, const mpls::LabelPair& pair) {
  assert(level >= 1 && level <= 3);
  if (writes_[level - 1] >= capacity_) {
    return false;
  }
  // A duplicate-key write keeps the first binding but still counts as
  // an accepted write: the linear engine appends it (unreachably), so
  // level length, capacity and the miss cost must all advance.
  if (level == 1) {
    level1_write(32, pair);
  } else {
    table_write(level, pair);
  }
  ++writes_[level - 1];
  return true;
}

bool TrieEngine::do_corrupt_entry(unsigned level, rtl::u32 key,
                                  rtl::u32 new_label) {
  assert(level >= 1 && level <= 3);
  if (level == 1) {
    // Garble the binding a lookup of `key` would return (for /32-only
    // bases this is exactly the linear engine's first masked match).
    const LpmResult r = trie_lpm(key);
    if (r.entry == kNil) {
      return false;
    }
    entries_[r.entry].new_label = new_label & label_mask();
    return true;
  }
  OpenTable& t = table_ref(level);
  const auto [slot, probed] = table_probe(t, key & label_mask());
  if (t.keys[slot] == kNil) {
    return false;
  }
  t.new_labels[slot] = new_label & label_mask();
  return true;
}

void TrieEngine::reserve(unsigned level, std::size_t entries) {
  assert(level >= 1 && level <= 3);
  if (level == 1) {
    nodes_.reserve(2 * entries + 1);
    entries_.reserve(entries);
    return;
  }
  OpenTable& t = table_ref(level);
  std::size_t slots = 16;
  while ((entries + 1) * 10 >= slots * 7) {
    slots <<= 1;
  }
  if (slots > t.keys.size()) {
    table_rehash(t, slots);
  }
}

TrieEngine::MemoryStats TrieEngine::memory_stats() const {
  MemoryStats s;
  s.trie_nodes = nodes_.size();
  s.bytes = nodes_.capacity() * sizeof(TrieNode) +
            entries_.capacity() * sizeof(TrieEntry);
  s.entries = entries_.size();
  for (const auto& t : tables_) {
    s.bytes += t.keys.capacity() * sizeof(rtl::u32) +
               t.raw_index.capacity() * sizeof(rtl::u32) +
               t.new_labels.capacity() * sizeof(rtl::u32) +
               t.seq.capacity() * sizeof(rtl::u32) +
               t.ops.capacity() * sizeof(mpls::LabelOp);
    s.entries += t.distinct;
  }
  return s;
}

}  // namespace empls::sw
