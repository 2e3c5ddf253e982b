// The cascading-failure model.
//
// §1: "Cascading failures occur when physical motion near or with hardware
// creates vibrations and other physical effects on the co-located hardware,
// which leads to additional transient (or permanent!) failures."
//
// Every physical maintenance action produces a Disturbance with a magnitude
// (humans are heavy-handed; the paper's small grippers are designed to
// "minimize accidental interaction with physically close cables"). The model
// maps a disturbance to the set of physically coupled cables — same-faceplate
// neighbours and, for actions touching the whole cable run, tray-mates — and
// samples induced faults on them. It can also *predict* the contact set
// before acting, which is what the controller's impact-aware scheduling
// consumes (§2: "automation can report which network cables will be contacted
// before the maintenance occurs").
//
// Both relations follow a runtime Network::rewire with no call here:
// faceplate neighbours are read from `links_at` per query, and tray-mates
// from a topology::TrayIndex built on the first full-route query after
// `Network::structure_generation()` moves (the rule of `Network::adjacency()`).
#pragma once

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "fault/environment.h"
#include "fault/injector.h"
#include "net/network.h"
#include "sim/rng.h"
#include "topology/tray_index.h"

namespace smn::fault {

struct Disturbance {
  net::LinkId target;
  /// The device whose faceplate is being worked on.
  net::DeviceId at_device;
  /// Physical intensity: ~1.0 human technician, ~0.25 manipulation robot,
  /// ~0.1 cleaning unit (docked, minimal cable contact).
  double magnitude = 1.0;
  /// True when the whole cable run is handled (cable replacement / re-laying
  /// through trays), coupling to every tray-mate; false for faceplate-local
  /// work (reseat, clean).
  bool full_route = false;
};

struct CascadeEffect {
  sim::TimePoint time;
  net::LinkId victim;
  FaultKind induced = FaultKind::kGrayEpisode;
  net::LinkId cause;  // the target whose maintenance caused this
};

class CascadeModel {
 public:
  struct Config {
    /// Per-neighbour induced-fault probability per unit disturbance.
    double faceplate_coupling = 0.05;
    double tray_coupling = 0.006;
    /// Faceplate neighbourhood: ports within this distance on the same device.
    int faceplate_radius = 2;
    /// Induced fault mix (normalized internally).
    double w_gray = 0.85;
    double w_contamination = 0.12;
    double w_permanent = 0.03;
    /// Induced gray episodes: lognormal seconds.
    double induced_gray_log_mean = std::log(10.0 * 60.0);
    double induced_gray_log_sigma = 0.8;
    double contamination_bump_mean = 0.08;
    /// Vibration contributed to the hall per unit magnitude.
    double vibration_gain = 0.15;
    sim::Duration vibration_duration = sim::Duration::minutes(2);
  };

  CascadeModel(net::Network& net, Environment& env, FaultInjector& injector,
               sim::RngStream rng)
      : CascadeModel(net, env, injector, std::move(rng), Config{}) {}
  CascadeModel(net::Network& net, Environment& env, FaultInjector& injector,
               sim::RngStream rng, Config cfg);

  /// Cables that WILL be physically contacted/coupled by the action — the
  /// pre-announced contact list the control plane can act on.
  [[nodiscard]] std::vector<net::LinkId> predicted_contacts(const Disturbance& d) const;

  /// Applies the disturbance: registers hall vibration and samples induced
  /// faults on the contact set. Returns what happened (also logged).
  std::vector<CascadeEffect> apply(const Disturbance& d);

  /// The faceplate rule: calls `visit(lid)` for each link on `device` within
  /// `faceplate_radius` ports of `target`'s port there, in `links_at` order.
  /// Allocates nothing; the robot fleet counts these as clutter.
  template <typename Visit>
  void for_each_faceplate_neighbor(net::LinkId target, net::DeviceId device,
                                   Visit&& visit) const {
    const net::Link& t = net_.link(target);
    const int my_port = t.end_a.device == device ? t.end_a.port : t.end_b.port;
    for (const net::LinkId lid : net_.links_at(device)) {
      if (lid == target) continue;
      const net::Link& l = net_.link(lid);
      const int port = l.end_a.device == device ? l.end_a.port : l.end_b.port;
      if (std::abs(port - my_port) <= cfg_.faceplate_radius) visit(lid);
    }
  }

  [[nodiscard]] const std::vector<CascadeEffect>& log() const { return log_; }
  [[nodiscard]] std::size_t induced_count() const { return log_.size(); }
  [[nodiscard]] std::size_t induced_permanent_count() const;

  /// Wires observability: hop/permanent counters, a flight-recorder record
  /// and a trace instant per cascade hop (victim + cause link ids), so crash
  /// dumps expose the propagation chain. Pure observer.
  void set_obs(obs::Obs* o);

 private:
  /// `target`'s tray-mates, ascending; valid until the next call.
  [[nodiscard]] const std::vector<std::int32_t>& tray_neighbors(net::LinkId target) const;

  net::Network& net_;
  Environment& env_;
  FaultInjector& injector_;
  sim::RngStream rng_;
  Config cfg_;
  std::vector<CascadeEffect> log_;
  // Tray adjacency cache — see the header comment for its invalidation rule.
  mutable topology::TrayIndex trays_;
  mutable std::uint64_t trays_structure_generation_ = ~std::uint64_t{0};
  mutable std::vector<std::int32_t> mates_;
  obs::Counter* obs_hops_ = nullptr;
  obs::Counter* obs_permanent_ = nullptr;
  obs::TraceBuffer* obs_trace_ = nullptr;
  obs::FlightRecorder* obs_recorder_ = nullptr;
};

}  // namespace smn::fault
