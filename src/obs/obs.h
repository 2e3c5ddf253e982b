// The per-World observability bundle: one metrics registry, one optional
// trace buffer, one optional flight recorder.
//
// A World owns exactly one Obs and hands `Obs*` to each component at wiring
// time; components register their instruments eagerly (stable schema across
// replicates) and keep raw handles for the hot path. Every pointer here can
// be null — metrics off, tracing off, recorder off — and instrumented code
// null-checks once per event, which is the entire disabled cost.
#pragma once

#include <memory>
#include <string>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace smn::obs {

struct Options {
  bool metrics = true;
  bool trace = false;
  std::size_t trace_max_events = TraceBuffer::kDefaultMaxEvents;
  /// Ring capacity for the crash flight recorder; 0 disables it.
  std::size_t flight_recorder_capacity = FlightRecorder::kDefaultCapacity;

  [[nodiscard]] static Options disabled() { return {false, false, 0, 0}; }
};

class Obs {
 public:
  explicit Obs(const Options& opts);

  Obs(const Obs&) = delete;
  Obs& operator=(const Obs&) = delete;

  /// Null when the corresponding facility is disabled.
  [[nodiscard]] Registry* metrics() { return metrics_.get(); }
  [[nodiscard]] const Registry* metrics() const { return metrics_.get(); }
  [[nodiscard]] TraceBuffer* trace() { return trace_.get(); }
  [[nodiscard]] const TraceBuffer* trace() const { return trace_.get(); }
  [[nodiscard]] FlightRecorder* recorder() { return recorder_.get(); }
  [[nodiscard]] const FlightRecorder* recorder() const { return recorder_.get(); }

  [[nodiscard]] const Options& options() const { return opts_; }

  /// Metrics snapshot hash, or 0 when metrics are disabled.
  [[nodiscard]] std::uint64_t metrics_hash() const {
    return metrics_ ? metrics_->snapshot_hash() : 0;
  }

  /// Export helpers used by smnctl. Return false (and print to stderr) on
  /// I/O failure or when the facility is disabled.
  bool write_metrics_prom(const std::string& path) const;
  bool write_trace_json(const std::string& path) const;

 private:
  Options opts_;
  std::unique_ptr<Registry> metrics_;
  std::unique_ptr<TraceBuffer> trace_;
  std::unique_ptr<FlightRecorder> recorder_;
};

}  // namespace smn::obs
