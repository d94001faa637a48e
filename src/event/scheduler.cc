#include "event/scheduler.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

namespace ronpath {

void EventHandle::cancel() {
  const auto pool = pool_.lock();
  if (!pool) return;  // scheduler gone: nothing left to cancel
  if (slot_ >= pool->slots.size()) return;
  internal::EventSlot& sl = pool->slots[slot_];
  if (sl.gen != gen_) return;  // already fired, cancelled, or slot reused
  ++sl.gen;       // queue entry becomes a tombstone; slot freed when it pops
  sl.cb.reset();  // release captures eagerly
}

bool EventHandle::pending() const {
  const auto pool = pool_.lock();
  if (!pool) return false;
  return slot_ < pool->slots.size() && pool->slots[slot_].gen == gen_;
}

Scheduler::Scheduler() : pool_(std::make_shared<internal::SlotPool>()) {}

EventHandle Scheduler::schedule_entry(TimePoint at, std::uint64_t seq, Callback cb) {
  internal::SlotPool& pool = *pool_;
  std::uint32_t slot;
  if (!pool.free_list.empty()) {
    slot = pool.free_list.back();
    pool.free_list.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(pool.slots.size());
    pool.slots.emplace_back();
  }
  internal::EventSlot& sl = pool.slots[slot];
  sl.at = at;
  sl.seq = seq;
  sl.cb = std::move(cb);
  heap_.push_back(Entry{at, seq, sl.gen, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return EventHandle(pool_, slot, sl.gen);
}

EventHandle Scheduler::schedule_at(TimePoint at, Callback cb) {
  assert(at >= now_ && "cannot schedule into the past");
  return schedule_entry(at, next_seq_++, std::move(cb));
}

EventHandle Scheduler::schedule_at_restored(TimePoint at, std::uint64_t seq, Callback cb) {
  assert(at >= now_ && "restored event precedes the restored clock");
  assert(seq < next_seq_ && "restored seq must predate the restored next_seq");
  return schedule_entry(at, seq, std::move(cb));
}

EventHandle Scheduler::schedule_after(Duration delay, Callback cb) {
  if (delay.is_negative()) delay = Duration::zero();
  return schedule_at(now_ + delay, std::move(cb));
}

void Scheduler::run_until(TimePoint until) {
  while (!heap_.empty() && heap_.front().at <= until) step();
  if (now_ < until) now_ = until;
}

void Scheduler::run_all() {
  while (step()) {
  }
}

bool Scheduler::step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry ev = heap_.back();
  heap_.pop_back();
  now_ = ev.at;
  internal::EventSlot& sl = pool_->slots[ev.slot];
  if (sl.gen == ev.gen) {
    ++sl.gen;
    Callback cb = std::move(sl.cb);
    pool_->free_list.push_back(ev.slot);
    ++dispatched_;
    // `sl` may dangle past this point: the callback can schedule events
    // and grow the slot vector.
    cb();
  } else {
    pool_->free_list.push_back(ev.slot);  // cancelled tombstone
  }
  return true;
}

bool Scheduler::pending_entry(const EventHandle& h, TimePoint* at, std::uint64_t* seq) const {
  const auto pool = h.pool_.lock();
  if (pool.get() != pool_.get()) return false;  // foreign or inert handle
  if (h.slot_ >= pool->slots.size()) return false;
  const internal::EventSlot& sl = pool->slots[h.slot_];
  if (sl.gen != h.gen_) return false;
  *at = sl.at;
  *seq = sl.seq;
  return true;
}

void Scheduler::restore_clock(TimePoint now, std::uint64_t next_seq, std::uint64_t dispatched) {
  heap_.clear();
  internal::SlotPool& pool = *pool_;
  pool.free_list.clear();
  pool.free_list.reserve(pool.slots.size());
  for (std::size_t i = pool.slots.size(); i-- > 0;) {
    ++pool.slots[i].gen;  // outstanding handles to the old run go inert
    pool.slots[i].cb.reset();
    pool.free_list.push_back(static_cast<std::uint32_t>(i));
  }
  now_ = now;
  next_seq_ = next_seq;
  dispatched_ = dispatched;
}

void Scheduler::check_invariants(std::vector<std::string>& out) const {
  if (!std::is_heap(heap_.begin(), heap_.end(), Later{})) {
    out.push_back("scheduler: heap property violated");
  }
  const internal::SlotPool& pool = *pool_;
  for (const Entry& e : heap_) {
    if (e.at < now_) {
      out.push_back("scheduler: pending entry at " + e.at.since_epoch().to_string() +
                    " behind the clock " + now_.since_epoch().to_string());
    }
    if (e.seq >= next_seq_) {
      out.push_back("scheduler: entry seq " + std::to_string(e.seq) + " >= next_seq " +
                    std::to_string(next_seq_));
    }
    if (e.slot >= pool.slots.size()) {
      out.push_back("scheduler: entry slot " + std::to_string(e.slot) + " out of pool range");
    } else if (e.gen > pool.slots[e.slot].gen) {
      out.push_back("scheduler: entry generation " + std::to_string(e.gen) +
                    " ahead of its slot's generation");
    } else if (e.gen == pool.slots[e.slot].gen &&
               (pool.slots[e.slot].at != e.at || pool.slots[e.slot].seq != e.seq)) {
      out.push_back("scheduler: live entry seq " + std::to_string(e.seq) +
                    " disagrees with the (at, seq) its slot records");
    }
  }
  if (pool.free_list.size() + heap_.size() < pool.slots.size()) {
    // Every slot is either on the free list or referenced by >= 1 heap
    // entry (live or tombstoned); fewer means a leaked slot.
    out.push_back("scheduler: slot pool leak (" + std::to_string(pool.slots.size()) +
                  " slots, " + std::to_string(pool.free_list.size()) + " free, " +
                  std::to_string(heap_.size()) + " queued)");
  }
}

}  // namespace ronpath
