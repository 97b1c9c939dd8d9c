// Common interface over every label-processing engine: the cycle-accurate
// hardware model and the software baselines.
//
// The paper argues core MPLS tasks belong in hardware while "most
// existing MPLS solutions are entirely software based".  This interface
// lets the benches and the network simulator swap engines freely:
//
//   * LinearEngine   — software mirror of the hardware algorithm (also
//                      the golden model for differential tests)
//   * HwEngine       — adapter over the RTL label stack modifier
//   * PipelineEngine — the full RTL packet pipeline (DMA + stack
//                      transfer + modifier), cycle-counted end to end
//   * TrieEngine     — the production FIB: patricia trie + label tables,
//                      bit-identical to linear up to 1024 pairs/level and
//                      scaling to millions of entries
//   * HashEngine     — modern hash-map software router (bench baseline)
//   * CamEngine      — ablation: hardware with a content-addressable
//                      information base (parallel compare, constant-time)
//
// Every engine is a single datapath: one packet per update() call.
//
// update() consumes a Packet, applies the information-base operation to
// its label stack in place, and reports the outcome plus the modelled
// hardware cost in clock cycles (0 when the engine has no hardware
// model, i.e. pure software measured by wall clock instead).
#pragma once

#include <optional>
#include <string_view>

#include "hw/commands.hpp"
#include "mpls/packet.hpp"
#include "mpls/tables.hpp"
#include "rtl/types.hpp"

namespace empls::sw {

/// Why an update discarded the packet (populated when discarded).
enum class DiscardReason : rtl::u8 {
  kNone = 0,
  kMiss,          // no information-base entry for the key
  kTtlExpired,    // TTL reached zero after the decrement
  kInconsistent,  // VERIFY INFO failure: bad op / overflow / router type
};

[[nodiscard]] constexpr std::string_view to_string(DiscardReason r) noexcept {
  switch (r) {
    case DiscardReason::kNone:
      return "none";
    case DiscardReason::kMiss:
      return "no-label-binding";
    case DiscardReason::kTtlExpired:
      return "ttl-expired";
    case DiscardReason::kInconsistent:
      return "inconsistent-operation";
  }
  return "?";
}

struct UpdateOutcome {
  bool discarded = false;
  DiscardReason reason = DiscardReason::kNone;
  mpls::LabelOp applied = mpls::LabelOp::kNop;
  /// TTL value the operation produced (the datapath TTL counter): what
  /// egress processing writes back into the IP header on a final pop.
  rtl::u8 ttl_after = 0;
  /// Modelled hardware cost; 0 for pure-software engines.
  rtl::u64 hw_cycles = 0;
};

class LabelEngine {
 public:
  LabelEngine() = default;
  LabelEngine(const LabelEngine&) = delete;
  LabelEngine& operator=(const LabelEngine&) = delete;
  virtual ~LabelEngine() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  // The write path is non-virtual on purpose: every mutation of the
  // information base — clear, a programmed pair, an injected corruption
  // — must advance the epoch before the engine sees it, so that any
  // forwarding decision cached outside the engine (the embedded
  // router's flow cache) can be validated with one integer compare.
  // Engines implement the protected do_* hooks instead.

  /// Drop all programmed label pairs.  Advances the epoch.
  void clear() {
    ++epoch_;
    do_clear();
  }

  /// Program one pair into a level (1..3).  Returns false when the level
  /// is full (1024 pairs, matching the hardware).  Advances the epoch.
  bool write_pair(unsigned level, const mpls::LabelPair& pair) {
    ++epoch_;
    return do_write_pair(level, pair);
  }

  /// Fault-injection backdoor: garble the stored outgoing label of the
  /// first entry matching `key` at `level`, modelling a single-event
  /// upset in the information-base memory.  The entry's index and
  /// operation survive, so lookups still hit it and return the bad
  /// label.  Returns false when the engine has no such entry (or no
  /// corruptible store).  Advances the epoch even on failure — stale
  /// cached decisions are invalidated conservatively.
  bool corrupt_entry(unsigned level, rtl::u32 key, rtl::u32 new_label) {
    ++epoch_;
    return do_corrupt_entry(level, key, new_label);
  }

  /// Generation counter of the information base: incremented by every
  /// clear / write_pair / corrupt_entry (and hence by every control
  /// plane reprogram, slow-path install, protection switchover and
  /// fault injection, all of which go through those).  A cached lookup
  /// result is valid iff it was captured at the current epoch.
  [[nodiscard]] rtl::u64 epoch() const noexcept { return epoch_; }

  /// Bare lookup: first stored pair whose index matches `key`.
  [[nodiscard]] virtual std::optional<mpls::LabelPair> lookup(
      unsigned level, rtl::u32 key) = 0;

  /// Modelled hardware cost of the most recent lookup()'s search phase
  /// (the 3k+5 scan for the linear-algorithm engines, the constant CAM
  /// probe, 0 for engines with no hardware model).  The flow cache
  /// stores this next to the resolved pair so a cache hit can recreate
  /// the exact hw_cycles the full path would have charged.
  [[nodiscard]] virtual rtl::u64 last_lookup_cost_cycles() const noexcept {
    return 0;
  }

  /// Whether the embedded router may serve this engine's decisions from
  /// its flow cache.  True for the software engines whose modelled cost
  /// decomposes into search + tail (linear, hash, cam, trie).  False
  /// for the RTL-backed engines: the cycle-accurate model must see
  /// every packet.
  [[nodiscard]] virtual bool cacheable() const noexcept { return false; }

  /// Full update-stack flow on `packet` (level selection for non-empty
  /// stacks follows the caller's `level`; empty stacks use level 1 and
  /// the packet identifier, as the hardware does).
  virtual UpdateOutcome update(mpls::Packet& packet, unsigned level,
                               hw::RouterType router_type) = 0;

  /// Number of packets the engine processes concurrently.  Always 1:
  /// every engine is a single datapath and nothing in the simulator
  /// reads this.  It stays virtual only because out-of-tree decorators
  /// (the benchmark's timing wrapper) forward it to the wrapped engine.
  [[nodiscard]] virtual unsigned parallelism() const noexcept { return 1; }

  [[nodiscard]] virtual std::size_t level_size(unsigned level) const = 0;

 protected:
  /// For engine-specific mutation entry points that do not fit the
  /// write_pair shape (e.g. TrieEngine::write_prefix): advance the
  /// epoch exactly as the public wrappers do before touching the store.
  void bump_epoch() noexcept { ++epoch_; }

  // Mutation hooks behind the epoch-advancing public wrappers above.
  virtual void do_clear() = 0;
  virtual bool do_write_pair(unsigned level, const mpls::LabelPair& pair) = 0;
  /// Default: no corruptible store.
  virtual bool do_corrupt_entry(unsigned /*level*/, rtl::u32 /*key*/,
                                rtl::u32 /*new_label*/) {
    return false;
  }

 private:
  rtl::u64 epoch_ = 0;
};

}  // namespace empls::sw
