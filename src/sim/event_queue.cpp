#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "core/check.h"

namespace smn::sim {
namespace {

// Bit 63 of an EventId is the periodic-handle tag, so only 31 generation bits
// fit in an event id. Slot generations wrap there; a stale id can only alias
// after 2^31 reuses of the same slot.
constexpr std::uint32_t kGenMask = 0x7fffffffu;

}  // namespace

std::uint32_t Simulator::acquire_slot() {
  std::uint32_t s;
  if (free_head_ != kNoFree) {
    s = free_head_;
    free_head_ = slots_[s].next_free;
  } else {
    s = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[s];
  ++slot.gen;
  slot.state = Slot::State::kLive;
  slot.next_free = kNoFree;
  return s;
}

void Simulator::release_slot(std::uint32_t s) {
  Slot& slot = slots_[s];
  slot.fn.reset();
  slot.state = Slot::State::kFree;
  slot.next_free = free_head_;
  free_head_ = s;
}

void Simulator::heap_push(HeapEntry e) {
  std::size_t i = heap_.size();
  heap_.push_back(e);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!heap_before(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

Simulator::HeapEntry Simulator::heap_pop() {
  const HeapEntry top = heap_[0];
  heap_[0] = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  while (true) {
    const std::size_t first_child = 4 * i + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t last_child = std::min(first_child + 4, n);
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (heap_before(heap_[c], heap_[best])) best = c;
    }
    if (!heap_before(heap_[best], heap_[i])) break;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
  return top;
}

EventId Simulator::schedule_at(TimePoint t, Callback fn) {
  if (t < now_) throw std::invalid_argument{"schedule_at: time is in the past"};
  if (!fn) throw std::invalid_argument{"schedule_at: empty callback"};
  const std::uint32_t s = acquire_slot();
  slots_[s].fn = std::move(fn);
  heap_push(HeapEntry{t, next_seq_++, s});
  ++live_;
  return make_id(slots_[s].gen & kGenMask, s);
}

void Simulator::cancel(EventId id) {
  if (id == kInvalidEvent || (id & kPeriodicTag) != 0) return;
  const std::uint32_t s = static_cast<std::uint32_t>(id & 0xffffffffu);
  if (s >= slots_.size()) return;
  Slot& slot = slots_[s];
  if (slot.state != Slot::State::kLive || (slot.gen & kGenMask) != (id >> 32)) return;
  // Eager reclaim: the captured state dies now; only the inert 24-byte heap
  // entry waits (as a tombstone) for its time to surface.
  slot.fn.reset();
  slot.state = Slot::State::kCancelled;
  --live_;
}

EventId Simulator::schedule_every(Duration period, Callback fn) {
  if (period <= Duration::zero()) {
    throw std::invalid_argument{"schedule_every: period must be positive"};
  }
  if (!fn) throw std::invalid_argument{"schedule_every: empty callback"};
  std::uint32_t idx;
  if (periodic_free_head_ != kNoFree) {
    idx = periodic_free_head_;
    periodic_free_head_ = periodics_[idx].next_free;
  } else {
    idx = static_cast<std::uint32_t>(periodics_.size());
    periodics_.emplace_back();
  }
  PeriodicTask& p = periodics_[idx];
  ++p.gen;
  p.fn = std::move(fn);
  p.period = period;
  p.live = true;
  p.in_tick = false;
  p.next_free = kNoFree;
  const std::uint32_t gen = p.gen;
  p.tick_event = schedule_after(period, [this, idx, gen] { run_periodic(idx, gen); });
  return make_id(gen & kGenMask, idx) | kPeriodicTag;
}

void Simulator::run_periodic(std::uint32_t idx, std::uint32_t gen) {
  {
    PeriodicTask& p = periodics_[idx];
    if (!p.live || p.gen != gen) return;
    p.in_tick = true;
  }
  // The task runs from a local: the callback may itself create periodic
  // tasks, growing `periodics_` and moving every PeriodicTask — executing a
  // callable while it is being moved would be UB.
  Callback fn = std::move(periodics_[idx].fn);
  fn();
  PeriodicTask& p = periodics_[idx];
  p.in_tick = false;
  if (p.live) {
    p.fn = std::move(fn);
    p.tick_event = schedule_after(p.period, [this, idx, gen] { run_periodic(idx, gen); });
  } else {
    // Cancelled from inside its own tick; reclaim deferred to here.
    p.tick_event = kInvalidEvent;
    p.next_free = periodic_free_head_;
    periodic_free_head_ = idx;
  }
}

void Simulator::cancel_periodic(EventId handle) {
  if (handle == kInvalidEvent || (handle & kPeriodicTag) == 0) return;
  const EventId untagged = handle & ~kPeriodicTag;
  const std::uint32_t idx = static_cast<std::uint32_t>(untagged & 0xffffffffu);
  if (idx >= periodics_.size()) return;
  PeriodicTask& p = periodics_[idx];
  if (!p.live || (p.gen & kGenMask) != (untagged >> 32)) return;
  p.live = false;
  if (!p.in_tick) {
    cancel(p.tick_event);
    p.fn.reset();
    p.tick_event = kInvalidEvent;
    p.next_free = periodic_free_head_;
    periodic_free_head_ = idx;
  }
}

void Simulator::fold_trace(TimePoint t, std::uint64_t seq, EventId id) {
  // One xor-multiply-xorshift round per 64-bit word: three dependent
  // multiplies per event. With an odd multiplier each round is a bijection in
  // the running hash and in the word, so a change to one field of one event
  // always changes the final hash. Integer-only, so the value is the same on
  // every standard library.
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;
  const std::uint64_t words[3] = {static_cast<std::uint64_t>(t.count_us()), seq, id};
  for (const std::uint64_t w : words) {
    trace_hash_ = (trace_hash_ ^ w) * kMul;
    trace_hash_ ^= trace_hash_ >> 32;
  }
}

void Simulator::execute(const HeapEntry& top) {
  SMN_DCHECK(top.time >= now_, "clock would move backwards: %lld < %lld",
             static_cast<long long>(top.time.count_us()),
             static_cast<long long>(now_.count_us()));
  Slot& slot = slots_[top.slot];
  // Move the callback out and free the slot before invoking: the callback
  // may schedule (reusing this slot) or grow `slots_`.
  Callback fn = std::move(slot.fn);
  const EventId id = make_id(slot.gen & kGenMask, top.slot);
  release_slot(top.slot);
  --live_;
  now_ = top.time;
  ++processed_;
  fold_trace(top.time, top.seq, id);
  observe_event(top.time, top.seq, id);
  fn();
}

bool Simulator::step() {
  while (!heap_.empty()) {
    const HeapEntry top = heap_pop();
    if (slots_[top.slot].state == Slot::State::kCancelled) {
      release_slot(top.slot);
      continue;
    }
    execute(top);
    return true;
  }
  return false;
}

void Simulator::run_until(TimePoint deadline) {
  while (!heap_.empty()) {
    if (slots_[heap_[0].slot].state == Slot::State::kCancelled) {
      // Tombstone: reclaim regardless of deadline.
      release_slot(heap_pop().slot);
      continue;
    }
    if (heap_[0].time > deadline) break;
    execute(heap_pop());
  }
  if (deadline > now_) now_ = deadline;
}

void Simulator::run() {
  while (step()) {
  }
}

void Simulator::check_invariants() const {
  // Heap property and per-slot reference counts.
  std::vector<std::uint8_t>& referenced = check_referenced_;
  referenced.assign(slots_.size(), 0);
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    if (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      SMN_ASSERT(!heap_before(heap_[i], heap_[parent]),
                 "heap property violated at index %zu", i);
    }
    const std::uint32_t s = heap_[i].slot;
    SMN_ASSERT(s < slots_.size(), "heap entry %zu references slot %u out of range", i, s);
    SMN_ASSERT(referenced[s] == 0, "slot %u referenced twice from the heap", s);
    referenced[s] = 1;
    SMN_ASSERT(slots_[s].state != Slot::State::kFree, "heap entry %zu references free slot %u",
               i, s);
    SMN_ASSERT(heap_[i].time >= now_, "heap entry at %lld is before now %lld",
               static_cast<long long>(heap_[i].time.count_us()),
               static_cast<long long>(now_.count_us()));
  }
  std::size_t live = 0;
  std::size_t cancelled = 0;
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    const Slot& slot = slots_[s];
    switch (slot.state) {
      case Slot::State::kLive:
        ++live;
        SMN_ASSERT(referenced[s] == 1, "live slot %zu missing from the heap", s);
        SMN_ASSERT(static_cast<bool>(slot.fn), "live slot %zu has no callback", s);
        break;
      case Slot::State::kCancelled:
        ++cancelled;
        SMN_ASSERT(referenced[s] == 1, "cancelled slot %zu missing from the heap", s);
        SMN_ASSERT(!static_cast<bool>(slot.fn),
                   "cancelled slot %zu still holds a callback (reclaim lag)", s);
        break;
      case Slot::State::kFree:
        SMN_ASSERT(!static_cast<bool>(slot.fn), "free slot %zu still holds a callback", s);
        break;
    }
  }
  SMN_ASSERT(live == live_, "live count %zu out of sync with slots %zu", live_, live);
  SMN_ASSERT(live + cancelled == heap_.size(), "heap size %zu != occupied slots %zu",
             heap_.size(), live + cancelled);
  // Free list covers exactly the free slots.
  std::size_t free_count = 0;
  for (std::uint32_t f = free_head_; f != kNoFree; f = slots_[f].next_free) {
    SMN_ASSERT(slots_[f].state == Slot::State::kFree, "free list entry %u not free", f);
    ++free_count;
    SMN_ASSERT(free_count <= slots_.size(), "free list cycle");
  }
  SMN_ASSERT(free_count + heap_.size() == slots_.size(),
             "free list %zu + heap %zu != slots %zu", free_count, heap_.size(), slots_.size());
  for (const PeriodicTask& p : periodics_) {
    if (p.live && !p.in_tick) {
      SMN_ASSERT(static_cast<bool>(p.fn), "live periodic task has no callback");
      SMN_ASSERT(p.tick_event != kInvalidEvent, "live periodic task has no pending tick");
    }
  }
}

}  // namespace smn::sim
