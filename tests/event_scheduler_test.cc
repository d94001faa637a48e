#include "event/scheduler.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace ronpath {
namespace {

TEST(Scheduler, FiresInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(TimePoint::epoch() + Duration::seconds(3), [&] { order.push_back(3); });
  s.schedule_at(TimePoint::epoch() + Duration::seconds(1), [&] { order.push_back(1); });
  s.schedule_at(TimePoint::epoch() + Duration::seconds(2), [&] { order.push_back(2); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, TiesFireInScheduleOrder) {
  Scheduler s;
  std::vector<int> order;
  const TimePoint t = TimePoint::epoch() + Duration::seconds(1);
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(t, [&order, i] { order.push_back(i); });
  }
  s.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, ClockAdvancesToEventTime) {
  Scheduler s;
  TimePoint seen;
  s.schedule_after(Duration::millis(250), [&] { seen = s.now(); });
  s.run_all();
  EXPECT_EQ(seen, TimePoint::epoch() + Duration::millis(250));
}

TEST(Scheduler, RunUntilStopsAndSetsClock) {
  Scheduler s;
  int fired = 0;
  s.schedule_after(Duration::seconds(1), [&] { ++fired; });
  s.schedule_after(Duration::seconds(5), [&] { ++fired; });
  s.run_until(TimePoint::epoch() + Duration::seconds(2));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), TimePoint::epoch() + Duration::seconds(2));
  EXPECT_EQ(s.pending_events(), 1u);
  s.run_until(TimePoint::epoch() + Duration::seconds(10));
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, CancelPreventsDispatch) {
  Scheduler s;
  int fired = 0;
  EventHandle h = s.schedule_after(Duration::seconds(1), [&] { ++fired; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  s.run_all();
  EXPECT_EQ(fired, 0);
}

TEST(Scheduler, CancelAfterFireIsNoop) {
  Scheduler s;
  int fired = 0;
  EventHandle h = s.schedule_after(Duration::zero(), [&] { ++fired; });
  s.run_all();
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash or affect anything
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, DoubleCancelIsNoop) {
  Scheduler s;
  int fired = 0;
  EventHandle h = s.schedule_after(Duration::seconds(1), [&] { ++fired; });
  h.cancel();
  h.cancel();  // second cancel on a dead handle: no crash, no effect
  EXPECT_FALSE(h.pending());
  s.run_all();
  EXPECT_EQ(fired, 0);
}

TEST(Scheduler, HandleOutlivesScheduler) {
  EventHandle h;
  {
    Scheduler s;
    h = s.schedule_after(Duration::seconds(1), [] {});
    EXPECT_TRUE(h.pending());
  }
  // The scheduler (and its slot pool) are gone; the handle must degrade
  // to inert rather than touch freed memory.
  EXPECT_FALSE(h.pending());
  h.cancel();
}

TEST(Scheduler, StaleHandleDoesNotCancelSlotReuse) {
  Scheduler s;
  int first = 0;
  int second = 0;
  EventHandle h1 = s.schedule_after(Duration::seconds(1), [&] { ++first; });
  s.run_all();
  EXPECT_EQ(first, 1);
  // The fired event's slot is free; the next schedule reuses it. The
  // stale handle carries the old generation and must not touch it.
  EventHandle h2 = s.schedule_after(Duration::seconds(1), [&] { ++second; });
  EXPECT_FALSE(h1.pending());
  h1.cancel();
  EXPECT_TRUE(h2.pending());
  s.run_all();
  EXPECT_EQ(second, 1);
}

TEST(Scheduler, CancelAmongEqualTimestampsPreservesFifo) {
  Scheduler s;
  std::vector<int> order;
  const TimePoint t = TimePoint::epoch() + Duration::seconds(1);
  std::vector<EventHandle> handles;
  for (int i = 0; i < 8; ++i) {
    handles.push_back(s.schedule_at(t, [&order, i] { order.push_back(i); }));
  }
  handles[1].cancel();
  handles[4].cancel();
  handles[7].cancel();
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3, 5, 6}));
}

TEST(Scheduler, MoveOnlyCallback) {
  Scheduler s;
  auto payload = std::make_unique<int>(41);
  int seen = 0;
  s.schedule_after(Duration::seconds(1),
                   [&seen, p = std::move(payload)] { seen = *p + 1; });
  s.run_all();
  EXPECT_EQ(seen, 42);
}

TEST(Scheduler, OversizedCallbackFallsBackToHeap) {
  Scheduler s;
  // Larger than any reasonable inline buffer: forces the heap path of the
  // small-buffer callback without changing observable behaviour.
  struct Big {
    long long pad[16] = {};
  };
  Big big;
  big.pad[15] = 7;
  long long seen = 0;
  s.schedule_after(Duration::seconds(1), [&seen, big] { seen = big.pad[15]; });
  s.run_all();
  EXPECT_EQ(seen, 7);
}

TEST(Scheduler, CallbackCanGrowSchedulerReentrantly) {
  Scheduler s;
  int fired = 0;
  // One callback schedules enough events to force the slot pool and heap
  // to reallocate while that callback is still executing.
  s.schedule_after(Duration::zero(), [&] {
    for (int i = 0; i < 1000; ++i) {
      s.schedule_after(Duration::millis(i + 1), [&fired] { ++fired; });
    }
  });
  s.run_all();
  EXPECT_EQ(fired, 1000);
}

TEST(Scheduler, DefaultHandleInert) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();
}

TEST(Scheduler, EventsCanScheduleEvents) {
  Scheduler s;
  std::vector<Duration> at;
  std::function<void()> chain = [&] {
    at.push_back(s.now().since_epoch());
    if (at.size() < 4) s.schedule_after(Duration::seconds(1), chain);
  };
  s.schedule_after(Duration::seconds(1), chain);
  s.run_all();
  ASSERT_EQ(at.size(), 4u);
  EXPECT_EQ(at[3], Duration::seconds(4));
}

TEST(Scheduler, NegativeDelayClampedToNow) {
  Scheduler s;
  s.schedule_after(Duration::seconds(1), [] {});
  s.run_all();
  bool fired = false;
  s.schedule_after(-Duration::seconds(5), [&] { fired = true; });
  s.run_all();
  EXPECT_TRUE(fired);
  EXPECT_EQ(s.now(), TimePoint::epoch() + Duration::seconds(1));
}

TEST(Scheduler, DispatchedCountExcludesCancelled) {
  Scheduler s;
  s.schedule_after(Duration::seconds(1), [] {});
  EventHandle h = s.schedule_after(Duration::seconds(2), [] {});
  h.cancel();
  s.run_all();
  EXPECT_EQ(s.dispatched_events(), 1u);
}

TEST(Scheduler, StepFiresOne) {
  Scheduler s;
  int fired = 0;
  s.schedule_after(Duration::seconds(1), [&] { ++fired; });
  s.schedule_after(Duration::seconds(2), [&] { ++fired; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
  EXPECT_EQ(fired, 2);
}

// A checkpoint reads each pending event's re-arm descriptor from its
// slot: the (at, seq) it was armed with while pending, nothing once it
// fired or was cancelled, and nothing for a handle from another
// scheduler.
TEST(Scheduler, PendingEntryReadsTheArmedAtAndSeq) {
  Scheduler s;
  const TimePoint t1 = TimePoint::epoch() + Duration::seconds(1);
  const TimePoint t2 = TimePoint::epoch() + Duration::seconds(2);
  EventHandle fires = s.schedule_at(t1, [] {});
  EventHandle cancelled = s.schedule_at(t2, [] {});
  EventHandle waits = s.schedule_at(t2, [] {});
  cancelled.cancel();
  s.run_until(t1);

  TimePoint at;
  std::uint64_t seq = 0;
  ASSERT_TRUE(s.pending_entry(waits, &at, &seq));
  EXPECT_EQ(at, t2);
  EXPECT_EQ(seq, 2u);
  EXPECT_FALSE(s.pending_entry(fires, &at, &seq));
  EXPECT_FALSE(s.pending_entry(cancelled, &at, &seq));
  EXPECT_FALSE(s.pending_entry(EventHandle{}, &at, &seq));
  Scheduler other;
  EXPECT_FALSE(other.pending_entry(waits, &at, &seq));
}

}  // namespace
}  // namespace ronpath
