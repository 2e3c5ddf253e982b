// Physical datacenter geometry: halls, rows, racks, rack units, and the
// overhead cable-tray system.
//
// The paper's central observation is that maintenance is a *physical*
// activity: repairs take travel time, robots have operating radii
// (rack / row / hall scopes, §3.4), and motion near cables disturbs the
// cables sharing a tray (cascading failures, §1). All of those need real
// coordinates and real cable routes, which this module provides.
#pragma once

#include <cmath>
#include <compare>
#include <cstdint>
#include <string>
#include <vector>

namespace smn::topology {

/// Where a device sits: hall > row > rack > U position (0 = bottom).
struct RackLocation {
  int hall = 0;
  int row = 0;
  int rack = 0;
  int unit = 0;

  auto operator<=>(const RackLocation&) const = default;
  [[nodiscard]] bool same_rack(const RackLocation& o) const {
    return hall == o.hall && row == o.row && rack == o.rack;
  }
  [[nodiscard]] bool same_row(const RackLocation& o) const {
    return hall == o.hall && row == o.row;
  }
  [[nodiscard]] bool same_hall(const RackLocation& o) const { return hall == o.hall; }
  [[nodiscard]] std::string to_string() const;
};

/// 3D point in meters; x runs along a row, y across rows, z up.
struct Point {
  double x = 0, y = 0, z = 0;
};

/// One segment of the overhead tray system. Cables whose routes share
/// segments are physically adjacent — the substrate of the cascade model.
struct TraySegment {
  enum class Kind : std::uint8_t { kRiser, kRowTray, kSpineTray };
  Kind kind = Kind::kRowTray;
  int hall = 0;
  int row = 0;   // for kRiser / kRowTray: which row; for kSpineTray: row index crossed
  int slot = 0;  // for kRiser: rack index; for kRowTray: rack-pitch slot; kSpineTray: 0

  auto operator<=>(const TraySegment&) const = default;
};

/// The route a cable takes through the tray system, plus its total length.
struct CableRoute {
  std::vector<TraySegment> segments;
  double length_m = 0.0;
};

/// Geometry constants and derived queries for a datacenter building.
///
/// Layout: `halls` halls, each with `rows_per_hall` rows of `racks_per_row`
/// racks. Racks are `rack_units` tall. Same-row cables ride that row's tray;
/// cross-row cables additionally ride the hall spine tray at x = 0.
class PhysicalLayout {
 public:
  struct Config {
    int halls = 1;
    int rows_per_hall = 4;
    int racks_per_row = 16;
    int rack_units = 48;
    double rack_pitch_m = 0.7;    // x distance between adjacent racks
    double row_pitch_m = 3.0;     // y distance between adjacent rows
    double hall_pitch_m = 40.0;   // y distance between halls
    double unit_height_m = 0.0445;
    double tray_height_m = 2.6;   // overhead tray elevation
    double slack_factor = 1.15;   // service-loop slack added to cable lengths
  };

  explicit PhysicalLayout(Config cfg);

  [[nodiscard]] const Config& config() const { return cfg_; }

  /// True if the location is inside the configured building.
  [[nodiscard]] bool contains(const RackLocation& loc) const;

  /// 3D coordinates of a rack unit's faceplate.
  [[nodiscard]] Point position(const RackLocation& loc) const;

  /// Aisle walking distance between two locations (Manhattan along aisles),
  /// used for technician and mobile-robot travel.
  [[nodiscard]] double walking_distance_m(const RackLocation& a, const RackLocation& b) const;

  /// The tray route a cable between two locations takes. Same-rack cables
  /// have an empty segment list (they never leave the rack).
  [[nodiscard]] CableRoute route_cable(const RackLocation& a, const RackLocation& b) const;

 private:
  Config cfg_;
};

}  // namespace smn::topology
