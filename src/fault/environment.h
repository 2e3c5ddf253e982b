// Environmental conditions inside the datacenter hall.
//
// §1: "transient failures are a function of the workload or external factors,
// such as environmental changes in temperature, vibration and so forth", and
// contamination effects are "often dependent on temperature, humidity,
// vibration". The environment is a deterministic diurnal profile plus
// transient vibration events registered by physical maintenance activity.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace smn::fault {

class Environment {
 public:
  struct Config {
    double base_temperature_c = 24.0;
    double temperature_amplitude_c = 3.0;  // diurnal swing
    double base_humidity = 0.45;           // relative, 0..1
    double humidity_amplitude = 0.10;
    double ambient_vibration = 0.02;       // fans/CRAC background, arbitrary units
  };

  Environment() : Environment(Config{}) {}
  explicit Environment(Config cfg) : cfg_{cfg} {}

  [[nodiscard]] double temperature_c(sim::TimePoint t) const;
  [[nodiscard]] double humidity(sim::TimePoint t) const;

  /// Registers a transient vibration episode (e.g. a technician working in a
  /// row, a robot moving cables). Magnitude adds to ambient for its duration.
  void add_vibration(sim::TimePoint start, sim::Duration duration, double magnitude);

  /// Total vibration level at time t: ambient + active episodes.
  [[nodiscard]] double vibration(sim::TimePoint t) const;

  /// Multiplier >= ~0.5 applied to contamination-driven fault hazards:
  /// hot, humid, shaky halls make marginal links act up (§1).
  [[nodiscard]] double stress_factor(sim::TimePoint t) const;

  /// An upper bound on stress_factor(t) for every t >= now, as long as no
  /// episode is added: the diurnal maximum plus 2 x (ambient + every episode
  /// not yet ended). It stays valid past `tightens_at`, the earliest end among
  /// the episodes it counts; recomputing then gives a lower bound.
  struct StressCeiling {
    double value = 0.0;
    sim::TimePoint tightens_at;
  };
  [[nodiscard]] StressCeiling stress_ceiling(sim::TimePoint now) const;
  /// Advances on every add_vibration that registers an episode, so a cached
  /// StressCeiling can tell when it may no longer bound.
  [[nodiscard]] std::uint64_t vibration_epoch() const { return vibration_epoch_; }

  /// Drops expired vibration episodes; call occasionally to bound memory.
  void prune(sim::TimePoint now);

  [[nodiscard]] const Config& config() const { return cfg_; }

 private:
  struct VibrationEvent {
    sim::TimePoint start;
    sim::TimePoint end;
    double magnitude;
  };
  Config cfg_;
  std::vector<VibrationEvent> events_;
  std::uint64_t vibration_epoch_ = 0;
};

}  // namespace smn::fault
