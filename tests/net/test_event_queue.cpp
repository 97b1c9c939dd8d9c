// Unit tests for the discrete-event scheduler: ordering, determinism,
// bounded runs, lanes, and a differential against a sorted reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "net/event_queue.hpp"

namespace empls::net {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(q.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 3.0);
}

TEST(EventQueue, TiesRunInSchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CallbacksMayScheduleMore) {
  EventQueue q;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 10) {
      q.schedule_in(0.5, chain);
    }
  };
  q.schedule_at(0.0, chain);
  q.run();
  EXPECT_EQ(fired, 10);
  EXPECT_DOUBLE_EQ(q.now(), 4.5);
}

TEST(EventQueue, RunUntilLeavesLaterEventsQueued) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] { ++fired; });
  q.schedule_at(5.0, [&] { ++fired; });
  EXPECT_EQ(q.run_until(2.0), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 2.0) << "time advances to the horizon";
  EXPECT_EQ(q.pending(), 1u);
  q.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ScheduleInIsRelative) {
  EventQueue q;
  double seen = -1;
  q.schedule_at(2.0, [&] { q.schedule_in(1.5, [&] { seen = q.now(); }); });
  q.run();
  EXPECT_DOUBLE_EQ(seen, 3.5);
}

TEST(EventQueue, EmptyQueueRunIsNoop) {
  EventQueue q;
  EXPECT_EQ(q.run(), 0u);
  EXPECT_TRUE(q.empty());
}

// Regression: schedule_at used to accept a time in the past silently,
// executing the event "before" already-executed ones and stepping the
// clock backwards.  It must clamp to now() and count the fixup.
TEST(EventQueue, PastScheduleClampsToNow) {
  EventQueue q;
  double ran_at = -1.0;
  q.schedule_at(2.0, [&] {
    q.schedule_at(1.0, [&] { ran_at = q.now(); });  // 1.0 < now()=2.0
  });
  q.run();
  EXPECT_DOUBLE_EQ(ran_at, 2.0) << "clamped to now(), not run in the past";
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  EXPECT_EQ(q.clamped_schedules(), 1u);
  EXPECT_EQ(q.stats().clamped, 1u);
}

TEST(EventQueue, ClampedEventRunsAfterSameTimeEvents) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(2.0, [&] {
    order.push_back(0);
    q.schedule_at(0.5, [&] { order.push_back(2); });  // clamps to 2.0
  });
  q.schedule_at(2.0, [&] { order.push_back(1); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}))
      << "a clamped event keeps its (later) sequence number";
}

TEST(EventQueue, MoveOnlyCallablesAreSupported) {
  // std::function required copyability; InlineEvent must not.
  EventQueue q;
  auto token = std::make_unique<int>(42);
  int seen = 0;
  q.schedule_at(1.0, [t = std::move(token), &seen] { seen = *t; });
  q.run();
  EXPECT_EQ(seen, 42);
}

TEST(EventQueue, SparseAndClusteredTimesBothOrder) {
  // Mixes dense clusters with decade-apart gaps.
  EventQueue q;
  std::vector<double> times;
  for (double base : {0.0, 1e-6, 1.0, 1e3, 1e6}) {
    for (int i = 0; i < 20; ++i) {
      times.push_back(base + i * 1e-7);
    }
  }
  std::mt19937 rng(7);
  std::shuffle(times.begin(), times.end(), rng);
  std::vector<double> ran;
  for (const double t : times) {
    q.schedule_at(t, [&ran, &q] { ran.push_back(q.now()); });
  }
  q.run();
  ASSERT_EQ(ran.size(), times.size());
  EXPECT_TRUE(std::is_sorted(ran.begin(), ran.end()));
}

TEST(EventQueue, WindowEdgeTiesAndPeeks) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(1.0, [&] { order.push_back(0); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(q.run_window(1.0, /*inclusive=*/false), 0u)
      << "an exclusive window leaves events at its edge queued";
  EXPECT_EQ(q.now(), 1.0);
  EXPECT_EQ(q.next_time(), 1.0);
  EXPECT_EQ(q.next_time(), 1.0) << "peeking twice changes nothing";
  EXPECT_EQ(q.run_window(1.0, /*inclusive=*/true), 2u);
  EXPECT_EQ(q.next_time(), 2.0);
  EXPECT_EQ(q.run_until(2.0), 1u) << "run_until includes its horizon";
  EXPECT_EQ(q.next_time(), std::numeric_limits<SimTime>::infinity());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// Differential against the defining order.  A shadow set of (time, seq)
// keys is kept in lockstep with the queue; every callback checks that it
// is the shadow's minimum and that pending() is the shadow's size.  The
// harness mixes randomized schedules on a coarse grid (so times tie
// exactly), callbacks that schedule children (some in the past, so they
// clamp), bounded runs whose horizon is exactly a pending time,
// next_time() and pending() checks, and single steps.
//
// Schedules go to the heap or to one of several lanes: in time order
// behind the lane's tail, deliberately before it (the heap fallback), at
// another pending key's exact time, and in the past.  Callbacks schedule
// on their own lane.  A shadow of each lane (its live keys and tail
// time) predicts exactly which schedules are filed behind a lane head
// and which fall back, and the queue's counters must agree.  Lanes
// drain to empty and refill many times over.  The harness also pins
// that the closure slab is recycled: it holds exactly as many slots as
// events were ever pending at once.
class ReferenceHarness {
 public:
  static constexpr EventQueue::LaneId kNoLane = EventQueue::kNoLane;
  static constexpr unsigned kLanes = 4;

  ReferenceHarness(EventQueue& q, unsigned seed) : q_(q), rng_(seed) {
    for (unsigned i = 0; i < kLanes; ++i) {
      lanes_[i].id = q_.open_lane();
    }
  }

  /// Schedule at `at` on the heap, or on lanes_[lane] when lane < kLanes.
  void schedule(double at, unsigned lane = kLanes) {
    const double t = std::max(at, q_.now());
    const std::uint64_t seq = next_seq_++;
    ref_.emplace(t, seq);
    peak_pending_ = std::max(peak_pending_, ref_.size());
    if (lane == kLanes) {
      q_.schedule_at(at, [this, t, seq] { fire(t, seq, kLanes, false); });
      return;
    }
    ShadowLane& l = lanes_[lane];
    bool filed = true;  // whether the key joins the lane
    if (l.live == 0) {
      ++lane_heads_;
    } else if (t >= l.tail) {
      ++expect_filed_;
    } else {
      ++expect_fallbacks_;
      filed = false;
    }
    if (filed) {
      ++l.live;
      l.tail = t;
    }
    q_.schedule_on(l.id, at,
                   [this, t, seq, lane, filed] { fire(t, seq, lane, filed); });
  }

  void drive() {
    for (int op = 0; op < 400; ++op) {
      switch (pick(9)) {
        case 0:
        case 1:
          for (unsigned n = 1 + pick(12); n > 0; --n) {
            schedule(q_.now() + grid_delay());
          }
          break;
        case 2:
          EXPECT_EQ(q_.next_time(), ref_min_time());
          break;
        case 3:
          run_until(pending_time_or(q_.now() + grid_delay()));
          break;
        case 4:
          run_window(pending_time_or(q_.now() + grid_delay()),
                     pick(2) == 0);
          break;
        case 5:
          EXPECT_EQ(q_.step(), !ref_.empty());
          break;
        case 6: {
          // A lane fed in time order, as a link feeds its arrivals; at
          // times first run it dry, so it refills from empty.
          const unsigned lane = pick(kLanes);
          if (lanes_[lane].live > 0 && pick(2) == 0) {
            run_until(lanes_[lane].tail);
          }
          for (unsigned n = 1 + pick(12); n > 0; --n) {
            schedule(in_order_time(lane), lane);
          }
          break;
        }
        case 7:
          // Any time on any lane: ahead of, before or exactly at the
          // tail, tied with another pending key, or in the past.
          for (unsigned n = 1 + pick(6); n > 0; --n) {
            const unsigned lane = pick(kLanes);
            switch (pick(4)) {
              case 0:
                schedule(pending_time_or(q_.now()), lane);
                break;
              case 1:
                schedule(q_.now() - 0.5, lane);
                break;
              default:
                schedule(q_.now() + grid_delay(), lane);
                break;
            }
          }
          break;
        default:
          EXPECT_EQ(q_.pending(), ref_.size());
          break;
      }
    }
    q_.run();
    EXPECT_TRUE(ref_.empty());
    EXPECT_EQ(mismatches_, 0u) << "callbacks ran out of (time, seq) order";
    EXPECT_EQ(pending_mismatches_, 0u) << "pending() missed queued keys";
    EXPECT_EQ(past_horizon_, 0u) << "bounded runs ran events past their end";
    EXPECT_GT(fired_, 1000u);
    EXPECT_EQ(q_.body_slots(), peak_pending_);
    EXPECT_EQ(q_.stats().lane_filed, expect_filed_);
    EXPECT_EQ(q_.stats().lane_fallbacks, expect_fallbacks_);
    // Every path was exercised: keys filed and refused, and lanes that
    // emptied and took a new head.
    EXPECT_GT(expect_filed_, 200u);
    EXPECT_GT(expect_fallbacks_, 50u);
    EXPECT_GT(lane_heads_, 8u * kLanes);
  }

 private:
  /// The shadow of one lane: how many of its keys are pending in the
  /// lane (head included, fallbacks excluded) and its tail time.
  struct ShadowLane {
    EventQueue::LaneId id = kNoLane;
    std::size_t live = 0;
    double tail = 0.0;
  };

  unsigned pick(unsigned n) { return static_cast<unsigned>(rng_() % n); }

  /// Mostly multiples of 0.25 (exact in binary, so times tie), at times
  /// an arbitrary offset.
  double grid_delay() {
    return pick(4) == 0 ? std::uniform_real_distribution<double>(0, 2)(rng_)
                        : 0.25 * pick(9);
  }

  /// A time no earlier than the lane's tail (or now, for an empty lane).
  double in_order_time(unsigned lane) {
    const ShadowLane& l = lanes_[lane];
    return std::max(q_.now(), l.live > 0 ? l.tail : 0.0) + grid_delay();
  }

  double ref_min_time() const {
    return ref_.empty() ? std::numeric_limits<SimTime>::infinity()
                        : ref_.begin()->first;
  }

  /// A pending event's exact time (a boundary tie), or `otherwise`.
  double pending_time_or(double otherwise) {
    if (ref_.empty() || pick(3) == 0) {
      return otherwise;
    }
    return std::next(ref_.begin(), pick(static_cast<unsigned>(
                                       std::min<std::size_t>(ref_.size(), 8))))
        ->first;
  }

  void run_until(double until) {
    const double before = q_.now();
    horizon_ = until;
    q_.run_until(until);
    horizon_ = std::numeric_limits<double>::infinity();
    EXPECT_GT(ref_min_time(), until);
    EXPECT_EQ(q_.now(), std::max(before, until));
  }

  void run_window(double end, bool inclusive) {
    const double before = q_.now();
    horizon_ = end;
    horizon_inclusive_ = inclusive;
    q_.run_window(end, inclusive);
    horizon_ = std::numeric_limits<double>::infinity();
    horizon_inclusive_ = true;
    if (inclusive) {
      EXPECT_GT(ref_min_time(), end);
    } else {
      EXPECT_GE(ref_min_time(), end);
    }
    EXPECT_EQ(q_.now(), std::max(before, end));
  }

  void fire(double t, std::uint64_t seq, unsigned lane, bool filed) {
    ++fired_;
    if (ref_.empty() || *ref_.begin() != std::make_pair(t, seq) ||
        q_.now() != t) {
      ++mismatches_;
    }
    if (t > horizon_ || (!horizon_inclusive_ && t == horizon_)) {
      ++past_horizon_;
    }
    ref_.erase({t, seq});
    if (q_.pending() != ref_.size()) {
      ++pending_mismatches_;
    }
    if (filed) {
      --lanes_[lane].live;
    }
    if (next_seq_ < 3000 && pick(3) == 0) {
      for (unsigned n = 1 + pick(2); n > 0; --n) {
        // One child in eight is scheduled in the past and clamps.  A
        // lane event's children go back on its own lane half the time.
        const unsigned to = lane < kLanes && pick(2) == 0 ? lane : kLanes;
        if (pick(8) == 0) {
          schedule(q_.now() - 0.5, to);
        } else if (to < kLanes && pick(2) == 0) {
          schedule(in_order_time(to), to);
        } else {
          schedule(q_.now() + grid_delay(), to);
        }
      }
    }
  }

  EventQueue& q_;
  std::mt19937 rng_;
  std::set<std::pair<double, std::uint64_t>> ref_;
  std::array<ShadowLane, kLanes> lanes_;
  std::uint64_t next_seq_ = 0;
  std::size_t peak_pending_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t mismatches_ = 0;
  std::uint64_t pending_mismatches_ = 0;
  std::uint64_t past_horizon_ = 0;
  std::uint64_t expect_filed_ = 0;
  std::uint64_t expect_fallbacks_ = 0;
  std::uint64_t lane_heads_ = 0;
  // The end of the bounded run in progress, if any.
  double horizon_ = std::numeric_limits<double>::infinity();
  bool horizon_inclusive_ = true;
};

TEST(EventQueue, MatchesSortedReferenceUnderRandomSchedules) {
  for (unsigned seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    EventQueue q;
    ReferenceHarness harness(q, seed);
    harness.drive();
  }
}

TEST(EventQueue, LaneKeysRunInGlobalOrderAndFallBackWhenEarly) {
  EventQueue q;
  const EventQueue::LaneId lane = q.open_lane();
  std::vector<int> order;
  q.schedule_on(lane, 1.0, [&] { order.push_back(0); });  // lane head
  q.schedule_on(lane, 2.0, [&] { order.push_back(1); });  // filed
  q.schedule_at(2.0, [&] { order.push_back(2); });        // heap, tie
  q.schedule_on(lane, 2.0, [&] { order.push_back(3); });  // filed, tie
  q.schedule_on(lane, 1.5, [&] { order.push_back(4); });  // before tail
  EXPECT_EQ(q.pending(), 5u) << "filed keys count as pending";
  EXPECT_EQ(q.stats().lane_filed, 2u);
  EXPECT_EQ(q.stats().lane_fallbacks, 1u);
  EXPECT_EQ(q.next_time(), 1.0);
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 4, 1, 2, 3}))
      << "(time, seq) order, ties included";
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, BodySlabIsRecycledInSteadyState) {
  // 64 self-rescheduling timers: at most 64 pending, however many events
  // execute.
  EventQueue q;
  constexpr unsigned kTimers = 64;
  std::uint64_t remaining = 200000;
  struct Timer {
    EventQueue* q;
    std::uint64_t* remaining;
    double period;
    void operator()() const {
      if (*remaining > 0) {
        --*remaining;
        q->schedule_in(period, *this);
      }
    }
  };
  for (unsigned i = 0; i < kTimers; ++i) {
    q.schedule_in(1e-7 * i, Timer{&q, &remaining, 1e-6 * (1 + i % 7)});
  }
  q.run();
  EXPECT_EQ(remaining, 0u);
  EXPECT_EQ(q.body_slots(), kTimers);
}

TEST(EventQueue, InlineAndHeapFallbackAreCounted) {
  EventQueue q;
  q.schedule_at(1.0, [] {});  // captureless: inline
  struct Big {
    char bytes[128];
  };
  Big big{};
  q.schedule_at(2.0, [big] { (void)big; });  // 128 B > 64 B buffer
  q.run();
  EXPECT_EQ(q.stats().events_inline, 1u);
  EXPECT_EQ(q.stats().events_heap_fallback, 1u);
  EXPECT_EQ(q.stats().scheduled, 2u);
  EXPECT_EQ(q.stats().executed, 2u);
}

}  // namespace
}  // namespace empls::net
