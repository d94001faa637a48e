// Discrete-event simulation core.
//
// A Scheduler owns the virtual clock and a min-heap of pending events.
// Components schedule callbacks at absolute or relative times and receive
// an EventHandle with which the event can be cancelled. Cancellation is
// lazy (tombstoned in the heap) so it is O(1).
//
// Determinism: events at identical timestamps fire in scheduling order
// (FIFO via a monotonically increasing sequence number), so a run is a pure
// function of (seed, configuration).
//
// Hot path: schedule_after performs zero heap allocations. Callbacks live
// in a recycled slot pool (InlineCallback small-buffer storage, heap only
// for oversized captures), heap entries are small PODs, and cancellation
// is a per-slot generation bump instead of a per-event shared_ptr<bool>.
// Handles stay safe after the event fires, after cancel, and even after
// the Scheduler itself is destroyed: they hold a weak reference to the
// slot pool plus the generation they armed, so a stale cancel simply
// misses. Each slot also keeps the (at, seq) it was armed with, so a
// checkpoint reads a pending event's re-arm descriptor in O(1).
//
// Repetition is the owner's job: a periodic process re-arms itself from
// its own callback (the overlay's probe ticks do, one per probed edge).

#ifndef RONPATH_EVENT_SCHEDULER_H_
#define RONPATH_EVENT_SCHEDULER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "event/inline_callback.h"
#include "util/time.h"

namespace ronpath {

class Scheduler;

namespace internal {

struct EventSlot {
  std::uint64_t gen = 0;  // bumped on fire and on cancel
  TimePoint at;           // the (at, seq) this generation was armed with
  std::uint64_t seq = 0;
  InlineCallback cb;
};

struct SlotPool {
  std::vector<EventSlot> slots;
  std::vector<std::uint32_t> free_list;
};

}  // namespace internal

// Cancellable reference to a scheduled event. Default-constructed handles
// are inert; cancel() on an already-fired event is a harmless no-op, and
// a handle may safely outlive the Scheduler it came from.
class EventHandle {
 public:
  EventHandle() = default;

  void cancel();
  [[nodiscard]] bool pending() const;

 private:
  friend class Scheduler;
  EventHandle(std::weak_ptr<internal::SlotPool> pool, std::uint32_t slot, std::uint64_t gen)
      : pool_(std::move(pool)), slot_(slot), gen_(gen) {}

  std::weak_ptr<internal::SlotPool> pool_;
  std::uint32_t slot_ = 0;
  std::uint64_t gen_ = 0;
};

class Scheduler {
 public:
  using Callback = InlineCallback;

  Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  [[nodiscard]] TimePoint now() const { return now_; }

  // Schedules `cb` at absolute time `at` (must not be before now()).
  EventHandle schedule_at(TimePoint at, Callback cb);
  // Schedules `cb` after `delay` (clamped to zero if negative).
  EventHandle schedule_after(Duration delay, Callback cb);

  // Runs events until the queue is empty or the clock passes `until`.
  void run_until(TimePoint until);
  // Runs every pending event (only safe if the event graph quiesces).
  void run_all();
  // Pops at most one queue entry (fired or cancelled tombstone); returns
  // false if the queue was empty.
  bool step();

  // Queue entries still pending, including cancelled-but-unpopped ones
  // (cancellation is lazy).
  [[nodiscard]] std::size_t pending_events() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t dispatched_events() const { return dispatched_; }
  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }

  // Snapshot support ---------------------------------------------------
  //
  // Pending events are closures, so the scheduler itself cannot serialize
  // them; each owning component saves a re-arm descriptor instead. The
  // descriptor carries the original (at, seq) pair: re-arming through
  // schedule_at_restored with the saved seq reproduces the heap's firing
  // order exactly, including FIFO ties — the property that makes restored
  // runs byte-identical to uninterrupted ones.

  // Reads the (at, seq) of a still-pending event from its slot; returns
  // false if the handle is inert, foreign, fired, or cancelled. O(1).
  [[nodiscard]] bool pending_entry(const EventHandle& h, TimePoint* at,
                                   std::uint64_t* seq) const;

  // Resets the scheduler to the saved clock state: drops every queue
  // entry (bumping slot generations, so outstanding handles go inert) and
  // overwrites now/next_seq/dispatched. Owners then re-arm their saved
  // events via schedule_at_restored.
  void restore_clock(TimePoint now, std::uint64_t next_seq, std::uint64_t dispatched);

  // Re-arms an event with an explicit sequence number; used only during
  // restore. The caller must have checked at >= now() and seq <
  // next_seq() (the overlay, its only caller, throws SnapshotError on
  // either), and that no two re-armed events share a seq.
  EventHandle schedule_at_restored(TimePoint at, std::uint64_t seq, Callback cb);

  // Invariant auditor: heap property, slot/generation consistency,
  // sequence bounds, no entry behind the clock. Appends one message per
  // violation to `out`.
  void check_invariants(std::vector<std::string>& out) const;

 private:
  EventHandle schedule_entry(TimePoint at, std::uint64_t seq, Callback cb);

  struct Entry {
    TimePoint at;
    std::uint64_t seq;
    std::uint64_t gen;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  TimePoint now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::vector<Entry> heap_;  // std::push_heap/pop_heap min-heap via Later
  std::shared_ptr<internal::SlotPool> pool_;
};

}  // namespace ronpath

#endif  // RONPATH_EVENT_SCHEDULER_H_
