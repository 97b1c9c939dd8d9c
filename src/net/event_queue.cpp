#include "net/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace empls::net {

namespace {

// Calendar sizing: Brown's rule of thumb — keep roughly one pending
// event per bucket, resize by doubling/halving outside [1/8, 2] load.
constexpr std::size_t kMinBuckets = 16;
// Floor for the bucket width: protects slot numbers from blowing past
// the 2^53 integer-exact range when every pending event shares one
// timestamp (width would otherwise collapse to zero).
constexpr double kMinWidth = 1e-12;

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
  if (backend_ == SchedulerBackend::kHeap) {
    heap_push(key);
  } else {
    calendar_insert(key);
  }
  ++size_;
}

const EventQueue::Key& EventQueue::top() {
  assert(size_ > 0);
  if (backend_ == SchedulerBackend::kHeap) {
    return heap_.front();
  }
  if (!top_valid_) {
    top_ = calendar_find(size_);
    top_valid_ = true;
  }
  return buckets_[top_.bucket][top_.index];
}

EventQueue::Key EventQueue::pop() {
  assert(size_ > 0);
  --size_;
  if (backend_ == SchedulerBackend::kHeap) {
    return heap_pop();
  }
  return calendar_pop();
}

std::uint64_t EventQueue::run_until(SimTime until) {
  return run_window(until, /*inclusive=*/true);
}

std::uint64_t EventQueue::run() {
  std::uint64_t executed = 0;
  while (size_ > 0) {
    execute(pop());
    ++executed;
  }
  stats_.executed += executed;
  return executed;
}

SimTime EventQueue::next_time() {
  if (size_ == 0) {
    return std::numeric_limits<SimTime>::infinity();
  }
  return top().time;
}

bool EventQueue::step() {
  if (size_ == 0) {
    return false;
  }
  execute(pop());
  ++stats_.executed;
  return true;
}

std::uint64_t EventQueue::run_window(SimTime end, bool inclusive) {
  std::uint64_t executed = 0;
  while (size_ > 0) {
    const SimTime t = top().time;
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

void EventQueue::set_scheduler(SchedulerBackend backend) {
  if (backend == backend_) {
    return;
  }
  // Move the keys to the other structure; the closures stay in the slab
  // and the keys keep their sequence numbers, so execution order is
  // unchanged.
  std::vector<Key> pending;
  if (backend_ == SchedulerBackend::kHeap) {
    pending.swap(heap_);
  } else {
    pending.reserve(size_);
    for (auto& bucket : buckets_) {
      pending.insert(pending.end(), bucket.begin(), bucket.end());
      bucket.clear();
    }
    top_valid_ = false;
  }
  backend_ = backend;
  size_ = 0;
  for (const Key& key : pending) {
    push(key);
  }
}

// ---------------------------------------------------------------------
// Heap backend.

void EventQueue::heap_push(const Key& key) {
  heap_.push_back(key);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

EventQueue::Key EventQueue::heap_pop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key key = heap_.back();
  heap_.pop_back();
  return key;
}

// ---------------------------------------------------------------------
// Calendar backend.
//
// A key's slot is trunc(time * 1/width) — exact for the non-negative
// clock — cached beside the key at insert, and it lives in bucket
// (slot & mask).  The cursor walks slots in order; within the cursor's
// slot the (time, seq) minimum is the global minimum, because all
// earlier slots have been drained and later slots only hold later
// times.  The hot paths are branchy integer code on purpose: no
// divides, no fmod, no floor.

void EventQueue::calendar_insert(const Key& key) {
  if (buckets_.empty()) {
    calendar_rebuild(kMinBuckets);
  } else if (size_ + 1 > 2 * buckets_.size()) {
    calendar_rebuild(2 * buckets_.size());
  }
  const SlottedKey entry{key, slot_of(key.time)};
  // A key may land behind the cursor: run_until() can advance now()
  // past slots the cursor already drained, and the next schedule lands
  // in one of them.  Pull the cursor back so the scan can't find a later
  // key first.
  if (entry.slot < cursor_slot_ || size_ == 0) {
    cursor_slot_ = entry.slot;
  }
  buckets_[bucket_of(entry.slot)].push_back(entry);
  top_valid_ = false;
}

EventQueue::Key EventQueue::calendar_pop() {
  const Location at = top_valid_ ? top_ : calendar_find(size_ + 1);
  top_valid_ = false;
  auto& bucket = buckets_[at.bucket];
  const Key key = bucket[at.index];
  bucket[at.index] = bucket.back();  // intra-bucket order is free
  bucket.pop_back();
  return key;
}

EventQueue::Location EventQueue::calendar_find(std::size_t count) {
  // Every search applies the shrink rule once, as every pop did when a
  // peek was a pop and a push.
  if (buckets_.size() > kMinBuckets && count * 8 < buckets_.size()) {
    calendar_rebuild(buckets_.size() / 2);
  }
  const std::size_t n = buckets_.size();
  // The best key of one bucket in slot `slot`, or bucket.size() if none.
  auto best_in = [](const std::vector<SlottedKey>& bucket, std::uint64_t slot,
                    std::uint64_t& later_slot) {
    std::size_t best = bucket.size();
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      if (bucket[i].slot != slot) {
        // A later year sharing this bucket.
        later_slot = std::min(later_slot, bucket[i].slot);
      } else if (best == bucket.size() || Later{}(bucket[best], bucket[i])) {
        best = i;
      }
    }
    return best;
  };

  std::uint64_t later_slot = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t scan = cursor_slot_;
  std::size_t b = bucket_of(scan);
  for (std::size_t visited = 0; visited <= n;
       ++visited, ++scan, b = (b + 1) & mask_) {
    const std::size_t best = best_in(buckets_[b], scan, later_slot);
    if (best != buckets_[b].size()) {
      cursor_slot_ = scan;
      return {b, best};
    }
  }

  // A full rotation found nothing: every pending key is at least one
  // rotation ahead of the cursor (a sparse stretch).  The rotation saw
  // every key, so the earliest slot holding one is known; jump the
  // cursor there.
  assert(later_slot != std::numeric_limits<std::uint64_t>::max() &&
         "search of an empty calendar");
  cursor_slot_ = later_slot;
  b = bucket_of(later_slot);
  return {b, best_in(buckets_[b], later_slot, later_slot)};
}

void EventQueue::calendar_rebuild(std::size_t nbuckets) {
  ++stats_.calendar_rebuilds;
  top_valid_ = false;
  std::vector<SlottedKey> pending;
  pending.reserve(size_ + 1);  // pop() may have taken its key off size_
  for (const auto& bucket : buckets_) {
    pending.insert(pending.end(), bucket.begin(), bucket.end());
  }
  buckets_.clear();
  buckets_.resize(std::max(nbuckets, kMinBuckets));  // stays a power of 2
  mask_ = buckets_.size() - 1;

  // Re-estimate the width so the pending population spreads to about
  // one event per bucket.  The estimate is the *median* non-zero
  // inter-event gap, not span/count: a handful of far-future outliers
  // (pre-scheduled telemetry sample ticks, a link failure armed minutes
  // ahead) would stretch a span-based width by orders of magnitude
  // until the dense population collapsed into a single slot and every
  // pop degenerated into a linear scan.  The median ignores them.  An
  // empty or single-time population keeps the current width.
  if (pending.size() >= 2) {
    std::vector<double> times;
    times.reserve(pending.size());
    for (const auto& entry : pending) {
      times.push_back(entry.time);
    }
    std::sort(times.begin(), times.end());
    std::vector<double> gaps;
    gaps.reserve(times.size() - 1);
    for (std::size_t i = 1; i < times.size(); ++i) {
      const double gap = times[i] - times[i - 1];
      if (gap > 0.0) {
        gaps.push_back(gap);
      }
    }
    if (!gaps.empty()) {
      const auto mid = gaps.begin() + static_cast<std::ptrdiff_t>(gaps.size() / 2);
      std::nth_element(gaps.begin(), mid, gaps.end());
      width_ = std::max(*mid, kMinWidth);
      inv_width_ = 1.0 / width_;
    }
  }

  cursor_slot_ = slot_of(now_);
  for (auto& entry : pending) {
    entry.slot = slot_of(entry.time);  // slots shift with the width
    cursor_slot_ = std::min(cursor_slot_, entry.slot);
    buckets_[bucket_of(entry.slot)].push_back(entry);
  }
}

}  // namespace empls::net
