#include "fault/environment.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace smn::fault {
namespace {
constexpr double kDayHours = 24.0;
// stress_factor's normalisations and weights, shared with stress_ceiling.
constexpr double kTempScaleC = 10.0;
constexpr double kHumidScale = 0.25;
constexpr double kTempWeight = 0.4;
constexpr double kHumidWeight = 0.3;
constexpr double kVibrationWeight = 2.0;
constexpr double kStressFloor = 0.25;
}  // namespace

double Environment::temperature_c(sim::TimePoint t) const {
  const double phase = 2.0 * std::numbers::pi * std::fmod(t.to_hours(), kDayHours) / kDayHours;
  // Peak mid-afternoon (phase shifted), trough pre-dawn.
  return cfg_.base_temperature_c + cfg_.temperature_amplitude_c * std::sin(phase - 1.0);
}

double Environment::humidity(sim::TimePoint t) const {
  const double phase = 2.0 * std::numbers::pi * std::fmod(t.to_hours(), kDayHours) / kDayHours;
  const double h = cfg_.base_humidity + cfg_.humidity_amplitude * std::sin(phase + 0.8);
  return std::clamp(h, 0.0, 1.0);
}

void Environment::add_vibration(sim::TimePoint start, sim::Duration duration,
                                double magnitude) {
  if (magnitude <= 0.0 || duration <= sim::Duration::zero()) return;
  events_.push_back(VibrationEvent{start, start + duration, magnitude});
  ++vibration_epoch_;
}

double Environment::vibration(sim::TimePoint t) const {
  double total = cfg_.ambient_vibration;
  for (const VibrationEvent& e : events_) {
    if (t >= e.start && t < e.end) total += e.magnitude;
  }
  return total;
}

double Environment::stress_factor(sim::TimePoint t) const {
  // Normalized deviations: 1.0 at nominal conditions; each contribution is
  // small so the factor stays in roughly [0.6, 3] under realistic inputs.
  const double temp_dev = (temperature_c(t) - cfg_.base_temperature_c) / kTempScaleC;
  const double humid_dev = (humidity(t) - cfg_.base_humidity) / kHumidScale;
  const double vib = vibration(t);
  return std::max(kStressFloor, 1.0 + kTempWeight * temp_dev + kHumidWeight * humid_dev +
                                    kVibrationWeight * vib);
}

Environment::StressCeiling Environment::stress_ceiling(sim::TimePoint now) const {
  // Each term at its own maximum over the day; humidity is clamped to [0, 1]
  // before the deviation is taken, so its peak is the clamped crest.
  const double temp_dev = std::abs(cfg_.temperature_amplitude_c) / kTempScaleC;
  const double humid_crest =
      std::clamp(cfg_.base_humidity + std::abs(cfg_.humidity_amplitude), 0.0, 1.0);
  const double humid_dev = (humid_crest - cfg_.base_humidity) / kHumidScale;
  // Magnitudes are positive, so the sum over every unexpired episode bounds
  // the sum over whichever of them are active at any later t.
  StressCeiling out{0.0, sim::TimePoint::max()};
  double vib = cfg_.ambient_vibration;
  for (const VibrationEvent& e : events_) {
    if (e.end <= now) continue;
    vib += e.magnitude;
    out.tightens_at = std::min(out.tightens_at, e.end);
  }
  out.value = std::max(kStressFloor, 1.0 + kTempWeight * temp_dev + kHumidWeight * humid_dev +
                                         kVibrationWeight * vib);
  return out;
}

void Environment::prune(sim::TimePoint now) {
  std::erase_if(events_, [now](const VibrationEvent& e) { return e.end <= now; });
}

}  // namespace smn::fault
