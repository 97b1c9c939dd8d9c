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

void EventQueue::schedule_event(SimTime at, InlineEvent fn) {
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
  push(Key{at, next_seq_++, store(std::move(fn))});
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
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key key = heap_.back();
  heap_.pop_back();
  return key;
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
