// Structured tracing keyed to simulated time.
//
// Events are recorded against sim::Simulator::now() — never a wall clock — so
// a trace is as reproducible as the run that produced it. Export is Chrome
// trace_event JSON ({"traceEvents":[...]}), loadable in Perfetto or
// chrome://tracing, with simulated microseconds as the timeline.
//
// Cost model: event names and categories are string literals (const char*
// stored by pointer, no allocation); recording is a bounds check plus a
// push_back into a pre-reserved vector. Call sites hold a TraceBuffer* that
// stays null unless tracing is on, so the disabled cost is one null check.
//
// Concurrency contract: single-owner, no internal locking. A TraceBuffer is
// confined to its World's thread (one World per sweep worker); smn_analyze's
// shared-mutable-state rule guards the no-hidden-global-state half of that
// invariant, and any future cross-thread use must adopt core/mutex.h +
// SMN_GUARDED_BY per the DESIGN.md thread-safety policy.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"

namespace smn::obs {

class JsonWriter;

/// Bounded, allocation-stable buffer of trace events.
class TraceBuffer {
 public:
  /// Chrome trace_event phases we emit.
  enum class Phase : char {
    kInstant = 'i',    // point event
    kComplete = 'X',   // span with explicit duration
    kAsyncBegin = 'b', // async span start (keyed by id)
    kAsyncEnd = 'e',   // async span end (keyed by id)
  };

  struct Event {
    Phase ph;
    const char* name;  // string literal; stored by pointer
    const char* cat;   // string literal category ("sim", "net", "ticket", ...)
    std::int64_t ts_us = 0;
    std::int64_t dur_us = 0;   // kComplete only
    std::uint64_t id = 0;      // async correlation key (ticket id, ...)
    // Up to two integer arguments, emitted into the trace "args" object.
    const char* arg0_name = nullptr;
    std::int64_t arg0 = 0;
    const char* arg1_name = nullptr;
    std::int64_t arg1 = 0;
  };

  explicit TraceBuffer(std::size_t max_events = kDefaultMaxEvents);

  void instant(const char* name, const char* cat, sim::TimePoint t,
               const char* arg0_name = nullptr, std::int64_t arg0 = 0,
               const char* arg1_name = nullptr, std::int64_t arg1 = 0) {
    Event ev{Phase::kInstant, name, cat, t.count_us(), 0, 0, arg0_name, arg0, arg1_name, arg1};
    push(ev);
  }

  void complete(const char* name, const char* cat, sim::TimePoint start, sim::TimePoint end,
                const char* arg0_name = nullptr, std::int64_t arg0 = 0,
                const char* arg1_name = nullptr, std::int64_t arg1 = 0) {
    Event ev{Phase::kComplete, name,      cat,  start.count_us(), (end - start).count_us(),
             0,                arg0_name, arg0, arg1_name,        arg1};
    push(ev);
  }

  void async_begin(const char* name, const char* cat, sim::TimePoint t, std::uint64_t id,
                   const char* arg0_name = nullptr, std::int64_t arg0 = 0) {
    Event ev{Phase::kAsyncBegin, name, cat, t.count_us(), 0, id, arg0_name, arg0, nullptr, 0};
    push(ev);
  }

  void async_end(const char* name, const char* cat, sim::TimePoint t, std::uint64_t id,
                 const char* arg0_name = nullptr, std::int64_t arg0 = 0) {
    Event ev{Phase::kAsyncEnd, name, cat, t.count_us(), 0, id, arg0_name, arg0, nullptr, 0};
    push(ev);
  }

  [[nodiscard]] const std::vector<Event>& events() const { return events_; }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  /// Events discarded because the buffer hit max_events.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Chrome trace_event JSON document: {"traceEvents":[...], ...}.
  [[nodiscard]] std::string to_chrome_json() const;
  void write_chrome_json(JsonWriter& w) const;

  static constexpr std::size_t kDefaultMaxEvents = std::size_t{1} << 20;

 private:
  void push(const Event& ev) {
    if (events_.size() >= max_events_) {
      ++dropped_;
      return;
    }
    events_.push_back(ev);
  }

  std::size_t max_events_;
  std::vector<Event> events_;
  std::uint64_t dropped_ = 0;
};

}  // namespace smn::obs
