// Discrete-event scheduler for the network simulator.
//
// Events are (time, sequence, callback); ties in time run in scheduling
// order, making runs fully deterministic.  Time is in seconds (double):
// the scales involved (nanosecond transmissions, millisecond windows)
// stay well inside the 2^53 integer-exact range.
//
// Callbacks are InlineEvents: move-only closures stored inline up to 64
// bytes, so steady-state scheduling performs no heap allocation.
//
// A binary heap orders small keys {time, seq, body}, never the closures
// themselves.  A closure is moved once into a slot of a body slab (with
// a free list, so the slab never grows past the peak number of pending
// events) and moved out once when its key reaches the top.  A heap sift
// therefore moves plain integers and doubles instead of relocating
// 80-byte closures through their vtables.
//
// Lanes keep a producer's backlog out of the heap.  A lane is a FIFO of
// keys from one producer whose times never decrease — a link's arrivals
// leave its wire in the order they entered it.  Only a lane's head key
// sits in the heap; popping it puts the lane's next key in its place
// with one sift-down, and a key scheduled behind a busy lane is appended
// in O(1).  Every key keeps the seq it was given at schedule time and a
// lane is sorted by (time, seq), so the heap top is still the global
// (time, seq) minimum: lanes change the cost of ordering, never the
// order.  A lane schedule earlier than the lane's tail goes into the
// heap as an ordinary key (counted in stats().lane_fallbacks).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/inline_event.hpp"

namespace empls::net {

using SimTime = double;

class EventQueue {
 public:
  /// A lane of this queue, from open_lane(); kNoLane schedules through
  /// the heap alone.
  using LaneId = std::uint32_t;
  static constexpr LaneId kNoLane = ~LaneId{0};

  /// Open a lane for one producer whose schedules mostly come in
  /// non-decreasing time order.  Lanes live as long as the queue.
  [[nodiscard]] LaneId open_lane();

  /// Schedule `fn` at absolute time `at`.  A time already in the past is
  /// clamped to now() (and counted in stats().clamped) — time travel
  /// would break the monotone-clock invariant every component assumes.
  template <typename F>
  void schedule_at(SimTime at, F&& fn) {
    schedule_event(at, InlineEvent(std::forward<F>(fn)));
  }

  /// Schedule `fn` at `at` on `lane` (see open_lane()).  Runs exactly
  /// where schedule_at(at, fn) would; only the queue's cost differs.
  template <typename F>
  void schedule_on(LaneId lane, SimTime at, F&& fn) {
    schedule_event(at, InlineEvent(std::forward<F>(fn)), lane);
  }

  /// Schedule `fn` `delay` seconds from now.
  template <typename F>
  void schedule_in(SimTime delay, F&& fn) {
    schedule_event(now_ + delay, InlineEvent(std::forward<F>(fn)));
  }

  /// Non-template core used by the helpers above.
  void schedule_event(SimTime at, InlineEvent fn, LaneId lane = kNoLane);

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  // A non-empty lane always has its head in the heap.
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept {
    return heap_.size() + lane_waiting_;
  }

  /// Run events until the queue drains or `until` is passed (events
  /// scheduled later than `until` stay queued).  Returns the number of
  /// events executed.
  std::uint64_t run_until(SimTime until);

  /// Run until the queue drains.
  std::uint64_t run();

  /// Earliest pending event time, or +inf when the queue is empty.
  [[nodiscard]] SimTime next_time() const noexcept;

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

  struct Stats {
    std::uint64_t scheduled = 0;
    std::uint64_t executed = 0;
    std::uint64_t clamped = 0;        // schedule_at(at < now()) fixups
    std::uint64_t events_inline = 0;  // closures in the 64-byte buffer
    std::uint64_t events_heap_fallback = 0;  // oversized closures
    std::uint64_t lane_filed = 0;      // keys filed behind a lane head
    std::uint64_t lane_fallbacks = 0;  // lane schedules before its tail
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
  /// the slab index of its closure and, for a lane head, its lane.
  struct Key {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t body;
    LaneId lane;  // kNoLane for an ordinary heap key
  };
  static_assert(sizeof(Key) == 24, "the lane index rides in the padding");

  /// The keys of one lane behind its head, oldest first, in a ring whose
  /// capacity is a power of two (0 before the first append).
  struct Lane {
    std::vector<Key> ring;
    std::uint32_t first = 0;
    std::uint32_t count = 0;
    bool active = false;  // the lane's head key is in the heap
    SimTime tail = 0.0;   // time of the lane's last key, when active
  };

  /// Move `fn` into a free slab slot and return its index.
  std::uint32_t store(InlineEvent&& fn);
  /// Run the event behind `key`, already removed from the heap.
  void execute(const Key& key);

  void push(const Key& key);
  /// Append `key` behind its lane's head.
  void append(Lane& lane, const Key& key);
  /// Remove and return the global (time, seq) minimum; the heap must
  /// not be empty.  A lane head is replaced by the lane's next key.
  Key pop();
  /// Overwrite the heap top with `key` and sift it down.
  void replace_top(const Key& key);

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  Stats stats_;

  // Body slab: each pending event's closure, indexed by Key::body, and
  // the indices of the free slots.
  std::vector<InlineEvent> bodies_;
  std::vector<std::uint32_t> free_bodies_;

  // A min-heap of keys over (time, seq), kept with std::push_heap /
  // std::pop_heap and replace_top; heap_.front() is the next event.
  std::vector<Key> heap_;

  std::vector<Lane> lanes_;
  std::size_t lane_waiting_ = 0;  // keys behind lane heads, all lanes
};

}  // namespace empls::net
