// Per-packet hop tracing: a side-band journey table plus a bounded
// binary ring of compact span records, exported as Chrome-trace JSON.
//
// Design constraints, in order:
//   * zero overhead when disabled — call sites guard on enabled(),
//     so a wired-but-off tracer costs one predictable branch per site;
//   * no per-packet allocation — the journey table is an open-
//     addressing flat hash keyed by the packet's pool-slab address
//     (pointer-stable across hops in pooled mode), grown only until
//     it covers the pool's live high-water mark;
//   * bounded memory — spans land in a fixed ring (flight-recorder
//     style): when full, the oldest records are overwritten and
//     counted in Stats::dropped_records;
//   * deterministic output — record contents carry only sim-time,
//     deterministic trace ids, and topology indices, never addresses,
//     so two runs of a seeded scenario serialize byte-identically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace empls::obs {

enum class SpanKind : std::uint8_t {
  kJourney = 0,   // journey begin marker (a = seq low bits, b = flow)
  kIngress,       // ingress parse + classification (a = level, b = key)
  kEngineWait,    // time spent queued for the label engine
  kEngineSearch,  // engine search/update (a = level, b = hw cycles)
  kLinkQueue,     // time spent in a link's CoS queues
  kLinkTransit,   // serialisation + propagation (b = bytes)
  kDeliver,       // packet left the MPLS domain at this node
  kDrop,          // packet discarded (a = DropReason)
};

[[nodiscard]] std::string_view to_string(SpanKind k) noexcept;

// TraceRecord::flags bits.
inline constexpr std::uint8_t kSpanOnLink = 0x01;  // lane is a link index
inline constexpr std::uint8_t kSpanHit = 0x02;     // engine lookup hit
inline constexpr std::uint8_t kSpanCached = 0x04;  // served by flow cache
inline constexpr std::uint8_t kSpanLabeled = 0x08; // packet carried a stack

/// One span in the flight-recorder ring.  40 bytes, POD, and free of
/// pointers: the binary ring itself is a valid dump format.
struct TraceRecord {
  double ts = 0.0;           // span start, sim seconds
  double dur = 0.0;          // span duration, sim seconds
  std::uint64_t trace_id = 0;  // journey id; 0 = component-level span
  std::uint32_t lane = 0;      // NodeId, or link index when kSpanOnLink
  std::uint32_t b = 0;         // kind-specific payload (see SpanKind)
  std::uint16_t a = 0;         // kind-specific payload (see SpanKind)
  SpanKind kind = SpanKind::kJourney;
  std::uint8_t flags = 0;
};

class HopTracer {
 public:
  /// `capacity` bounds the ring (records, not bytes); it is rounded up
  /// to a power of two.  Default ~256k records ≈ 10 MiB.
  explicit HopTracer(std::size_t capacity = std::size_t{1} << 18);

  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  // --- journey side-band (keyed by the packet's stable address) ---

  /// Start a journey for `packet`: assigns the next deterministic trace
  /// id, records a kJourney span, and returns the id.  An existing
  /// entry for the same address (recycled pool slot whose journey never
  /// terminated) is overwritten.  Returns 0 when disabled.
  std::uint64_t begin(const void* packet, std::uint32_t flow,
                      std::uint64_t seq, std::uint32_t lane, double ts);

  /// Journey id for `packet`, 0 when untracked (or disabled).
  [[nodiscard]] std::uint64_t id_of(const void* packet) const noexcept;

  /// Terminate the journey (delivered or dropped); frees the slot.
  void end(const void* packet) noexcept;

  /// Re-key a live journey across a domain-boundary handoff, where the
  /// packet is copied into another pool and its address changes.
  /// detach() frees the table slot but keeps the journey live and
  /// returns its id (0 when untracked); attach() binds that id to the
  /// packet's new address on the far side.  Only the deterministic
  /// merge may use these — the table is single-threaded.
  std::uint64_t detach(const void* packet) noexcept;
  void attach(const void* packet, std::uint64_t trace_id);

  /// Stash / consume a timestamp against the journey — used for spans
  /// whose start and end are observed at different call sites (link
  /// queue wait).  take_mark() returns a negative value when unset.
  void mark(const void* packet, double ts) noexcept;
  double take_mark(const void* packet) noexcept;

  // --- span recording ---

  void record(std::uint64_t trace_id, SpanKind kind, std::uint32_t lane,
              double ts, double dur, std::uint16_t a = 0, std::uint32_t b = 0,
              std::uint8_t flags = 0) noexcept;

  struct Stats {
    std::uint64_t journeys = 0;         // begin() calls
    std::uint64_t live = 0;             // journeys not yet ended
    std::uint64_t live_high_water = 0;  // peak concurrent journeys
    std::uint64_t records = 0;          // record() calls
    std::uint64_t dropped_records = 0;  // overwritten by ring wrap
  };
  [[nodiscard]] Stats stats() const noexcept;

  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }

  /// Records currently held, oldest first (at most capacity()).
  [[nodiscard]] std::vector<TraceRecord> snapshot() const;

  /// Chrome trace-event JSON (the `traceEvents` array format), loadable
  /// in Perfetto / chrome://tracing.  Routers render as pid 1 with one
  /// thread per node, links as pid 2 with one thread per directed link;
  /// the name tables index by NodeId / link index respectively.
  /// `extra`, when set, is called after the span events to append more
  /// events into the same array (the timeline merges its counter
  /// tracks this way); `first` carries the comma state.
  using ExtraEventsWriter =
      std::function<void(std::ostream& out, bool& first)>;
  void write_chrome_trace(std::ostream& out,
                          const std::vector<std::string>& node_names,
                          const std::vector<std::string>& link_names,
                          const ExtraEventsWriter& extra = {}) const;

 private:
  struct Slot {
    const void* key = nullptr;  // nullptr = empty
    std::uint64_t trace_id = 0;
    double mark = -1.0;
  };

  [[nodiscard]] std::size_t probe(const void* key) const noexcept;
  Slot* find(const void* key) noexcept;
  [[nodiscard]] const Slot* find(const void* key) const noexcept;
  Slot& insert(const void* key);
  void erase(Slot* slot) noexcept;
  void grow();

  bool enabled_ = false;
  std::vector<TraceRecord> ring_;
  std::uint64_t total_records_ = 0;

  std::vector<Slot> table_;  // open addressing, power-of-two size
  std::size_t table_used_ = 0;

  std::uint64_t journeys_ = 0;
  std::uint64_t live_ = 0;
  std::uint64_t live_high_water_ = 0;
};

}  // namespace empls::obs
