// Discrete-event scheduler for the network simulator.
//
// Events are (time, sequence, callback); ties in time run in scheduling
// order, making runs fully deterministic.  Time is in seconds (double):
// the scales involved (nanosecond transmissions, millisecond windows)
// stay well inside the 2^53 integer-exact range.
//
// Two interchangeable backends share the API and produce bit-identical
// execution order:
//   kHeap     — binary heap, O(log n) schedule/pop (the baseline);
//   kCalendar — calendar queue (R. Brown, CACM 1988): time is hashed
//               into width-sized bucket slots, so schedule and pop are
//               O(1) amortized for the clustered event times traffic
//               generates; a fallback that jumps to the earliest
//               occupied slot keeps sparse or irregular workloads
//               correct.
// Callbacks are InlineEvents: move-only closures stored inline up to 64
// bytes, so steady-state scheduling performs no heap allocation.
//
// Both backends order small keys {time, seq, body}, never the closures
// themselves.  A closure is moved once into a slot of one shared body
// slab (with a free list, so the slab never grows past the peak number
// of pending events) and moved out once when its key reaches the top.
// A heap sift or a bucket scan therefore moves plain integers and
// doubles instead of relocating 80-byte closures through their vtables.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/inline_event.hpp"

namespace empls::net {

using SimTime = double;

enum class SchedulerBackend : std::uint8_t { kHeap, kCalendar };

class EventQueue {
 public:
  /// Schedule `fn` at absolute time `at`.  A time already in the past is
  /// clamped to now() (and counted in stats().clamped) — time travel
  /// would break the monotone-clock invariant every component assumes.
  template <typename F>
  void schedule_at(SimTime at, F&& fn) {
    schedule_event(at, InlineEvent(std::forward<F>(fn)));
  }

  /// Schedule `fn` `delay` seconds from now.
  template <typename F>
  void schedule_in(SimTime delay, F&& fn) {
    schedule_event(now_ + delay, InlineEvent(std::forward<F>(fn)));
  }

  /// Non-template core used by the helpers above.
  void schedule_event(SimTime at, InlineEvent fn);

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t pending() const noexcept { return size_; }

  /// Run events until the queue drains or `until` is passed (events
  /// scheduled later than `until` stay queued).  Returns the number of
  /// events executed.
  std::uint64_t run_until(SimTime until);

  /// Run until the queue drains.
  std::uint64_t run();

  /// Earliest pending event time, or +inf when the queue is empty.
  /// Non-const: the calendar backend locates (and remembers) its minimum
  /// key, and may halve its bucket array first, exactly as a pop would.
  [[nodiscard]] SimTime next_time();

  /// Execute exactly one event (the global (time, seq) minimum).
  /// Returns false if the queue was empty.  Used by the deterministic
  /// cross-domain merge, which interleaves single events from several
  /// domain queues in global (time, domain) order.
  bool step();

  /// Run events with time strictly before `end` (or <= `end` when
  /// `inclusive`), then advance now() to `end`.  This is the conservative
  /// lookahead window primitive: strict `<` keeps window boundaries
  /// exclusive so a handoff arriving exactly at the window edge executes
  /// in the *next* window on its destination domain.
  std::uint64_t run_window(SimTime end, bool inclusive);

  /// Advance the clock without running events (now() is monotone; a
  /// target in the past is a no-op).  Domains that idle through a window
  /// still need their clock at the barrier edge so late schedules clamp
  /// consistently.
  void advance_to(SimTime t) noexcept {
    if (t > now_) {
      now_ = t;
    }
  }

  /// Select the scheduling backend.  Pending events migrate, so this may
  /// be called at any point; execution order is unaffected (both
  /// backends pop the global (time, seq) minimum).
  void set_scheduler(SchedulerBackend backend);
  [[nodiscard]] SchedulerBackend scheduler() const noexcept {
    return backend_;
  }

  struct Stats {
    std::uint64_t scheduled = 0;
    std::uint64_t executed = 0;
    std::uint64_t clamped = 0;        // schedule_at(at < now()) fixups
    std::uint64_t events_inline = 0;  // closures in the 64-byte buffer
    std::uint64_t events_heap_fallback = 0;  // oversized closures
    std::uint64_t calendar_rebuilds = 0;  // bucket-array resizes
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Regression guard for the past-scheduling clamp.
  [[nodiscard]] std::uint64_t clamped_schedules() const noexcept {
    return stats_.clamped;
  }

  /// Closure slots the body slab has created: the peak number of events
  /// pending at once, never more, because executed slots are recycled.
  [[nodiscard]] std::size_t body_slots() const noexcept {
    return bodies_.size();
  }

 private:
  /// What the heap orders: the (time, seq) key of one pending event plus
  /// the slab index of its closure.
  struct Key {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t body;
  };
  /// What a calendar bucket holds: a key plus its absolute slot number,
  /// computed at insert so the bucket scan does pure integer compares.
  struct SlottedKey : Key {
    std::uint64_t slot;
  };
  struct Location {
    std::size_t bucket;
    std::size_t index;
  };

  /// Move `fn` into a free slab slot and return its index.
  std::uint32_t store(InlineEvent&& fn);
  /// Run the event behind `key`, already removed from the backend.
  void execute(const Key& key);

  void push(const Key& key);
  /// The global (time, seq) minimum, left queued; size_ > 0 required.
  const Key& top();
  /// Remove and return the global (time, seq) minimum; size_ > 0
  /// required.
  Key pop();

  // -- heap backend ------------------------------------------------------
  void heap_push(const Key& key);
  Key heap_pop();

  // -- calendar backend --------------------------------------------------
  void calendar_insert(const Key& key);
  /// Remove the minimum key: the one top() found, else search for it.
  Key calendar_pop();
  /// Where the minimum key is, `count` keys being queued (pop() has
  /// already taken its key off size_); moves the cursor to its slot.
  Location calendar_find(std::size_t count);
  void calendar_rebuild(std::size_t nbuckets);
  /// Absolute slot number of time `t`.  Truncation == floor because the
  /// clock is non-negative; one multiply instead of a divide.
  [[nodiscard]] std::uint64_t slot_of(SimTime t) const {
    return static_cast<std::uint64_t>(t * inv_width_);
  }
  /// Bucket count is always a power of two, so the hash is one AND.
  [[nodiscard]] std::size_t bucket_of(std::uint64_t slot) const {
    return static_cast<std::size_t>(slot) & mask_;
  }

  SchedulerBackend backend_ = SchedulerBackend::kHeap;
  std::size_t size_ = 0;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  Stats stats_;

  // Body slab: each pending event's closure, indexed by Key::body, and
  // the indices of the free slots.
  std::vector<InlineEvent> bodies_;
  std::vector<std::uint32_t> free_bodies_;

  // Heap storage: a min-heap of keys over (time, seq), kept with
  // std::push_heap / std::pop_heap.
  std::vector<Key> heap_;

  // Calendar storage.  Slots are absolute (not wrapped) slot numbers.
  // Width is applied as a cached reciprocal.
  std::vector<std::vector<SlottedKey>> buckets_;
  double width_ = 1e-3;      // bucket width in seconds
  double inv_width_ = 1e3;   // 1 / width_, kept in sync by rebuild
  std::size_t mask_ = 0;     // buckets_.size() - 1 (power of two)
  std::uint64_t cursor_slot_ = 0;  // slot currently being drained
  // Where top() last found the calendar minimum, so the pop that
  // usually follows a peek does not scan again; valid until the next
  // insert, pop or rebuild.
  bool top_valid_ = false;
  Location top_{};
};

}  // namespace empls::net
