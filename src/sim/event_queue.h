// The discrete-event simulation engine.
//
// A single-threaded event loop: callbacks are scheduled at TimePoints and run
// in (time, insertion-order) order, so simultaneous events execute in the
// order they were scheduled — deterministic by construction.
//
// The hot path is allocation-free in steady state:
//  - callbacks are `SmallFn` (captures <= kSmallFnInlineBytes live inline),
//  - events live in a flat slot arena recycled through a free list; ids are
//    (generation << 32 | slot), so a stale cancel is a generation mismatch
//    and costs one array lookup instead of two unordered_set touches,
//  - the ready queue is a 4-ary heap of 24-byte {time, seq, slot} entries.
// Cancellation eagerly destroys the captured callback state; only the inert
// heap entry is reclaimed lazily when it surfaces (a tombstone pop).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "sim/callback.h"
#include "sim/time.h"

namespace smn::sim {

using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class Simulator {
 public:
  using Callback = SmallFn;

  /// Schedules `fn` at absolute time `t`; `t` must not be in the past.
  EventId schedule_at(TimePoint t, Callback fn);

  /// Schedules `fn` after a non-negative delay from now.
  EventId schedule_after(Duration d, Callback fn) { return schedule_at(now_ + d, std::move(fn)); }

  /// Cancels a pending event, destroying its captured state immediately.
  /// Cancelling an already-run, stale, or unknown id is a true no-op: the
  /// slot generation no longer matches, so nothing is touched.
  void cancel(EventId id);

  /// Schedules `fn` to run every `period`, starting one period from now.
  /// Returns a handle cancellable with `cancel_periodic`.
  EventId schedule_every(Duration period, Callback fn);
  void cancel_periodic(EventId handle);

  [[nodiscard]] TimePoint now() const { return now_; }

  /// Runs a single pending event; returns false if the queue is empty.
  bool step();

  /// Runs events with time <= deadline; the clock ends at the deadline even
  /// if the queue drains early.
  void run_until(TimePoint deadline);

  /// Runs until the queue drains.
  void run();

  /// Exact count of live pending events (cancelled tombstones excluded).
  [[nodiscard]] std::size_t pending() const { return live_; }
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }

  /// Hash over (time, seq, id) of every event executed so far, folded as
  /// three 64-bit words per event (see fold_trace) — the determinism audit
  /// signal. Two runs with identical seeds and configs must produce identical
  /// hashes; divergence means a nondeterminism bug (hash-order iteration,
  /// uninitialized read, wall-clock leak).
  [[nodiscard]] std::uint64_t trace_hash() const { return trace_hash_; }

  /// Wires observability into the event loop: `events` counts executed
  /// events, `recorder` logs (time, seq, id) of each into the crash ring.
  /// Either may be null. Both effects are observers of the execution order,
  /// never inputs to it, so the trace hash is identical with obs on or off —
  /// the property --audit-determinism enforces.
  void set_obs(obs::Counter* events, obs::FlightRecorder* recorder) {
    obs_events_ = events;
    obs_recorder_ = recorder;
  }

  /// Aborts (via SMN_ASSERT) if internal bookkeeping is inconsistent: the
  /// heap must satisfy the 4-ary heap property, reference each occupied slot
  /// exactly once, and agree with the live/free-list accounting; cancelled
  /// slots must hold no callback (eager reclaim); the clock must not have
  /// moved backwards. Linear in slots and heap entries; allocates nothing
  /// once its scratch has grown to the slot arena.
  void check_invariants() const;

 private:
  static constexpr std::uint32_t kNoFree = 0xffffffffu;

  struct Slot {
    Callback fn;
    std::uint32_t gen = 0;  // bumped on allocation; id validity check
    enum class State : std::uint8_t { kFree, kLive, kCancelled } state = State::kFree;
    std::uint32_t next_free = kNoFree;
  };

  struct HeapEntry {
    TimePoint time;
    std::uint64_t seq;  // tie-break: earlier scheduling runs first
    std::uint32_t slot;
  };

  struct PeriodicTask {
    Callback fn;
    Duration period{};
    EventId tick_event = kInvalidEvent;  // the pending tick, for eager cancel
    std::uint32_t gen = 0;
    bool live = false;
    bool in_tick = false;  // cancel during the tick defers reclamation
    std::uint32_t next_free = kNoFree;
  };

  // Periodic handles carry a tag bit so an event id can never be mistaken
  // for a periodic handle (and vice versa) by cancel / cancel_periodic.
  static constexpr EventId kPeriodicTag = 1ull << 63;

  [[nodiscard]] static EventId make_id(std::uint32_t gen, std::uint32_t slot) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  [[nodiscard]] std::uint32_t acquire_slot();
  void release_slot(std::uint32_t s);
  void heap_push(HeapEntry e);
  HeapEntry heap_pop();
  [[nodiscard]] static bool heap_before(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  void run_periodic(std::uint32_t idx, std::uint32_t gen);
  void execute(const HeapEntry& top);

  // Folds one executed event into the running trace hash.
  void fold_trace(TimePoint t, std::uint64_t seq, EventId id);

  // Hot-path instrumentation for one executed event; both sinks are inline
  // and null-checked, so the disabled cost is two predicted branches.
  void observe_event(TimePoint t, std::uint64_t seq, EventId id) {
    if (obs_events_ != nullptr) obs_events_->inc();
    if (obs_recorder_ != nullptr) {
      obs_recorder_->record(t.count_us(), "sim-event", static_cast<std::int64_t>(id),
                            static_cast<std::int64_t>(seq));
    }
  }

  std::vector<HeapEntry> heap_;  // 4-ary min-heap over (time, seq)
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoFree;
  std::size_t live_ = 0;  // scheduled and not cancelled

  std::vector<PeriodicTask> periodics_;
  std::uint32_t periodic_free_head_ = kNoFree;

  TimePoint now_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  std::uint64_t trace_hash_ = 0xcbf29ce484222325ull;  // initial value: FNV-1a's basis
  // check_invariants scratch: heap references per slot, reused across sweeps.
  mutable std::vector<std::uint8_t> check_referenced_;
  obs::Counter* obs_events_ = nullptr;
  obs::FlightRecorder* obs_recorder_ = nullptr;
};

}  // namespace smn::sim
