#include "net/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace empls::net {

namespace {

/// Heap comparator: std::push_heap keeps the comp-maximum at front, so
/// "later is greater" puts the earliest (time, seq) on top.
struct Later {
  bool operator()(const auto& a, const auto& b) const noexcept {
    if (a.time != b.time) {
      return a.time > b.time;
    }
    return a.seq > b.seq;
  }
};

}  // namespace

EventQueue::LaneId EventQueue::open_lane() {
  lanes_.emplace_back();
  return static_cast<LaneId>(lanes_.size() - 1);
}

void EventQueue::schedule_event(SimTime at, InlineEvent fn, LaneId lane) {
  if (at < now_) {
    // Time travel: the caller computed a deadline that already passed
    // (e.g. a zero-length timer rounded down).  Run it "immediately"
    // instead of corrupting the monotone clock, and count the fixup.
    at = now_;
    ++stats_.clamped;
  }
  ++stats_.scheduled;
  if (fn.is_inline()) {
    ++stats_.events_inline;
  } else {
    ++stats_.events_heap_fallback;
  }
  const Key key{at, next_seq_++, store(std::move(fn)), lane};
  if (lane == kNoLane) {
    push(key);
    return;
  }
  Lane& l = lanes_[lane];
  if (!l.active) {
    l.active = true;
    l.tail = at;
    push(key);
    return;
  }
  if (at < l.tail) {
    // Filing it would unsort the lane; as an ordinary heap key it still
    // runs at its own (time, seq).
    ++stats_.lane_fallbacks;
    push(Key{at, key.seq, key.body, kNoLane});
    return;
  }
  l.tail = at;
  append(l, key);
}

void EventQueue::append(Lane& lane, const Key& key) {
  const std::size_t cap = lane.ring.size();
  if (lane.count == cap) {
    // Grow to the next power of two, unrolling the ring oldest first.
    std::vector<Key> grown(cap == 0 ? 8 : cap * 2);
    for (std::uint32_t i = 0; i < lane.count; ++i) {
      grown[i] = lane.ring[(lane.first + i) & (cap - 1)];
    }
    lane.ring = std::move(grown);
    lane.first = 0;
  }
  lane.ring[(lane.first + lane.count) & (lane.ring.size() - 1)] = key;
  ++lane.count;
  ++lane_waiting_;
  ++stats_.lane_filed;
}

std::uint32_t EventQueue::store(InlineEvent&& fn) {
  if (free_bodies_.empty()) {
    free_bodies_.push_back(static_cast<std::uint32_t>(bodies_.size()));
    bodies_.emplace_back();
  }
  const std::uint32_t i = free_bodies_.back();
  free_bodies_.pop_back();
  bodies_[i] = std::move(fn);
  return i;
}

void EventQueue::execute(const Key& key) {
  now_ = key.time;
  // Move the closure out before running it: the callback may schedule,
  // which may grow the slab, and its slot is free for those schedules.
  InlineEvent fn = std::move(bodies_[key.body]);
  free_bodies_.push_back(key.body);
  fn();
}

void EventQueue::push(const Key& key) {
  heap_.push_back(key);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

EventQueue::Key EventQueue::pop() {
  assert(!heap_.empty());
  const Key top = heap_.front();
  if (top.lane != kNoLane) {
    Lane& l = lanes_[top.lane];
    if (l.count > 0) {
      // The lane's next key is its minimum: it takes the head's place.
      const Key next = l.ring[l.first];
      l.first = (l.first + 1) & static_cast<std::uint32_t>(l.ring.size() - 1);
      --l.count;
      --lane_waiting_;
      replace_top(next);
      return top;
    }
    l.active = false;
  }
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  return top;
}

void EventQueue::replace_top(const Key& key) {
  const Later later;
  const std::size_t n = heap_.size();
  std::size_t hole = 0;
  for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
    if (child + 1 < n && later(heap_[child], heap_[child + 1])) {
      ++child;  // the earlier of the two children
    }
    if (!later(key, heap_[child])) {
      break;
    }
    heap_[hole] = heap_[child];
    hole = child;
  }
  heap_[hole] = key;
}

std::uint64_t EventQueue::run_until(SimTime until) {
  return run_window(until, /*inclusive=*/true);
}

std::uint64_t EventQueue::run() {
  std::uint64_t executed = 0;
  while (!heap_.empty()) {
    execute(pop());
    ++executed;
  }
  stats_.executed += executed;
  return executed;
}

SimTime EventQueue::next_time() const noexcept {
  if (heap_.empty()) {
    return std::numeric_limits<SimTime>::infinity();
  }
  return heap_.front().time;
}

bool EventQueue::step() {
  if (heap_.empty()) {
    return false;
  }
  execute(pop());
  ++stats_.executed;
  return true;
}

std::uint64_t EventQueue::run_window(SimTime end, bool inclusive) {
  std::uint64_t executed = 0;
  while (!heap_.empty()) {
    const SimTime t = heap_.front().time;
    if (t > end || (!inclusive && t == end)) {
      break;  // a late event stays queued where it is
    }
    execute(pop());
    ++executed;
  }
  if (now_ < end) {
    now_ = end;
  }
  stats_.executed += executed;
  return executed;
}

}  // namespace empls::net
