// The live network: devices and links instantiated from a topology
// Blueprint, with hardware diversity assigned and state-change notification.
//
// Network is the single source of truth for hardware condition. Fault
// processes and repair actions mutate link conditions and then call
// `refresh_link`, which re-derives the operational state and notifies
// observers (telemetry, availability trackers).
//
// Derived hot-path caches (and their invalidation rules):
//   * role rosters (`servers`, `devices_with_role`) — roles are immutable for
//     a Network's lifetime, so these are built once at construction and
//     returned by const reference.
//   * parallel-link groups (`links_between`) — maintained incrementally:
//     populated at construction and updated by `rewire`, the only operation
//     that changes link endpoints.
//   * CSR adjacency (`adjacency`) — flat (peer, link) arrays mirroring
//     `links_at` row order, rebuilt lazily after `rewire`.
//   * the ConnectivityEngine (`connectivity`) — generation-stamped union-find
//     reachability cache; see net/connectivity.h for its invalidation rules.
// All four are pure caches over the authoritative device/link state: they
// never draw randomness or schedule events, so simulation traces are
// byte-identical with or without them. The cascade model's tray index keys
// on `structure_generation` too, so no cache needs a call after `rewire`.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/connectivity.h"
#include "net/link.h"
#include "obs/obs.h"
#include "net/transceiver.h"
#include "net/types.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "topology/blueprint.h"

namespace smn::net {

struct Device {
  DeviceId id;
  std::string name;
  topology::NodeRole role = topology::NodeRole::kServer;
  topology::RackLocation location;
  bool healthy = true;
  int topology_node_index = -1;
  /// Modular chassis switches group ports into line cards (§3.2 mentions
  /// line-card replacement as a repair stage). 0 = monolithic (no cards).
  int ports_per_linecard = 0;
  std::vector<bool> linecards_healthy;

  [[nodiscard]] bool has_linecards() const { return ports_per_linecard > 0; }
  [[nodiscard]] int card_of(int port) const {
    return has_linecards() ? port / ports_per_linecard : 0;
  }
  [[nodiscard]] bool card_healthy(int port) const {
    if (!has_linecards()) return true;
    const int card = card_of(port);
    return card >= static_cast<int>(linecards_healthy.size()) ||
           linecards_healthy[static_cast<size_t>(card)];
  }
};

/// Flat compressed-sparse-row view of the device→(peer, link) adjacency.
/// Row order matches `Network::links_at` exactly, so a BFS over the CSR
/// visits neighbours in the same order as one over the jagged index — a
/// requirement for byte-identical paths.
struct CsrAdjacency {
  std::vector<std::int32_t> offsets;  // devices()+1 row offsets into peer/link
  std::vector<DeviceId> peer;
  std::vector<LinkId> link;

  /// [begin, end) index range of a device's row.
  [[nodiscard]] std::pair<std::int32_t, std::int32_t> row(DeviceId d) const {
    const auto i = static_cast<std::size_t>(d.value());
    return {offsets[i], offsets[i + 1]};
  }
};

class Network {
 public:
  struct Config {
    LinkThresholds thresholds;
    /// Medium assignment cutoffs by routed cable length (§3.1).
    double dac_max_m = 3.0;
    double aec_max_m = 7.0;
    double aoc_max_m = 30.0;
    /// Number of transceiver vendors in the fleet; more vendors = more SKU
    /// diversity for the robots (§4 "tens of different designs").
    int vendor_count = 5;
    /// Ports per line card on chassis-class switches (core/agg/spine); ToRs,
    /// rail switches and servers are monolithic. 0 disables line cards.
    int chassis_ports_per_linecard = 16;
    std::uint64_t seed = 42;
  };

  /// Observer invoked after a link's derived state changes.
  using Observer =
      std::function<void(const Link&, LinkState old_state, LinkState new_state)>;

  Network(const topology::Blueprint& bp, const Config& cfg, sim::Simulator& sim);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] const std::vector<Device>& devices() const { return devices_; }
  [[nodiscard]] const std::vector<Link>& links() const { return links_; }
  [[nodiscard]] const Device& device(DeviceId id) const {
    return devices_.at(static_cast<size_t>(id.value()));
  }
  [[nodiscard]] const Link& link(LinkId id) const {
    return links_.at(static_cast<size_t>(id.value()));
  }
  /// Mutable access for fault/repair code; call refresh_link afterwards.
  [[nodiscard]] Link& link_mut(LinkId id) { return links_.at(static_cast<size_t>(id.value())); }

  [[nodiscard]] const topology::Blueprint& blueprint() const { return blueprint_; }
  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] sim::TimePoint now() const { return sim_->now(); }
  [[nodiscard]] sim::Simulator& simulator() { return *sim_; }

  /// Links incident to a device.
  [[nodiscard]] const std::vector<LinkId>& links_at(DeviceId id) const {
    return device_links_.at(static_cast<size_t>(id.value()));
  }
  /// (peer device, link) adjacency of a device, live links only.
  [[nodiscard]] std::vector<std::pair<DeviceId, LinkId>> live_neighbors(DeviceId id) const;

  /// Devices of a role, in id order. Cached: roles never change after
  /// construction, so the returned reference is stable for the Network's
  /// lifetime.
  [[nodiscard]] const std::vector<DeviceId>& devices_with_role(topology::NodeRole role) const;
  /// All non-switch devices (servers and GPU servers), in id order. Cached.
  [[nodiscard]] const std::vector<DeviceId>& servers() const { return servers_; }
  /// The parallel-link (LAG) group between two adjacent devices, in the same
  /// order the links appear in `links_at(a)`. Backed by the precomputed group
  /// index; the reference is invalidated by `rewire`.
  [[nodiscard]] const std::vector<LinkId>& links_between(DeviceId a, DeviceId b) const;

  /// Flat adjacency for BFS hot loops; rebuilt lazily after `rewire`.
  [[nodiscard]] const CsrAdjacency& adjacency() const;

  /// The reachability cache bound to this network (one per Network, so one
  /// per World — sweep workers share nothing). Callable on a const Network:
  /// the engine only ever caches derived state.
  [[nodiscard]] ConnectivityEngine& connectivity() const { return *connectivity_; }

  /// Generation counters backing cache invalidation: `state_generation`
  /// advances whenever any link's derived state changes; `structure_generation`
  /// advances when `rewire` changes link endpoints.
  [[nodiscard]] std::uint64_t state_generation() const { return state_generation_; }
  [[nodiscard]] std::uint64_t structure_generation() const { return structure_generation_; }

  /// Re-derives a link's state from its conditions; notifies observers on
  /// change. Returns the (possibly unchanged) state.
  LinkState refresh_link(LinkId id);
  void refresh_links_of(DeviceId id);
  void refresh_all();

  /// Physically re-terminates a link at new endpoints (§4 "The robotics that
  /// enables a self-maintaining network will also be able to deploy arbitrary
  /// topologies"): assigns fresh ports, re-routes the cable through the
  /// trays, re-assigns the medium for the new length, and updates the
  /// embedded blueprint that the tray index reads, bumping
  /// `structure_generation`. Hardware condition is reset (a new cable run).
  void rewire(LinkId id, DeviceId new_a, DeviceId new_b);

  void set_device_health(DeviceId id, bool healthy);
  /// Fails/repairs one line card; refreshes the links whose ports sit on it.
  void set_linecard_health(DeviceId id, int card, bool healthy);

  void subscribe(Observer obs) { observers_.push_back(std::move(obs)); }

  /// Called at the end of every refresh_link, whether or not the derived
  /// state changed. Every write to a component's failure-hazard inputs (end
  /// conditions, cable, device or line-card health, rewire) ends in a
  /// refresh, so this is the fault injector's cue to re-check the link and
  /// its endpoint devices. A device with no links gets no refresh, so other
  /// writes to its health go unseen; the injector marks the devices it fails
  /// itself. One hook per Network; nullptr clears it.
  void set_refresh_hook(std::function<void(LinkId)> hook) { refresh_hook_ = std::move(hook); }

  /// Wires observability: registers the net_* instruments and seeds the
  /// link-state gauges from the current fleet. Pure observer — records state
  /// changes, never causes them — so traces stay byte-identical with it off.
  void set_obs(obs::Obs* o);

  [[nodiscard]] std::size_t count_links(LinkState s) const;
  /// Links currently Down; kept by refresh_link, so reading it costs nothing.
  [[nodiscard]] std::size_t links_down() const { return links_down_; }
  /// True if a link's traffic can pass (not Down).
  [[nodiscard]] bool usable(LinkId id) const { return link(id).state != LinkState::kDown; }

  /// Distinct transceiver SKUs present, a fleet-diversity statistic the
  /// robot vision/grasp models consume.
  [[nodiscard]] std::size_t transceiver_sku_count() const;

  /// Aborts (via SMN_ASSERT) on referential-integrity violations: id/index
  /// agreement, endpoint device ids in range, the device→links adjacency
  /// mirroring link endpoints exactly, the Down-link count agreeing with a
  /// recount, and physical conditions within their documented ranges
  /// (contamination/oxidation/wear ∈ [0, 1]). Linear in devices and links;
  /// allocates nothing once its scratch has grown to the link table.
  void check_invariants() const;

 private:
  void assign_hardware(sim::RngStream& rng, Link& link);
  void build_role_rosters();
  // Metric/trace/recorder sinks for one state change (no-op until set_obs).
  void observe_transition(const Link& l, LinkState prev, LinkState next);
  /// Unordered endpoint pair key for the parallel-link group index.
  [[nodiscard]] static std::uint64_t pair_key(DeviceId a, DeviceId b) {
    const auto lo = static_cast<std::uint32_t>(std::min(a.value(), b.value()));
    const auto hi = static_cast<std::uint32_t>(std::max(a.value(), b.value()));
    return (static_cast<std::uint64_t>(lo) << 32) | hi;
  }

  Config cfg_;
  topology::Blueprint blueprint_;
  sim::Simulator* sim_;
  std::vector<Device> devices_;
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> device_links_;
  std::vector<Observer> observers_;
  std::function<void(LinkId)> refresh_hook_;

  // Derived caches — see the class comment for invalidation rules.
  std::vector<DeviceId> servers_;
  std::vector<std::vector<DeviceId>> role_rosters_;  // indexed by NodeRole
  std::unordered_map<std::uint64_t, std::vector<LinkId>> link_groups_;
  std::uint64_t state_generation_ = 0;
  std::uint64_t structure_generation_ = 0;
  std::size_t links_down_ = 0;  // links whose state is Down
  // check_invariants scratch: adjacency appearances per link, reused.
  mutable std::vector<int> check_seen_;
  mutable CsrAdjacency csr_;
  mutable std::uint64_t csr_structure_generation_ = ~std::uint64_t{0};
  mutable std::unique_ptr<ConnectivityEngine> connectivity_;

  // Observability handles (all null until set_obs; see that method).
  obs::Counter* obs_transitions_ = nullptr;
  obs::Gauge* obs_links_down_ = nullptr;
  obs::Gauge* obs_links_impaired_ = nullptr;
  obs::TraceBuffer* obs_trace_ = nullptr;
  obs::FlightRecorder* obs_recorder_ = nullptr;
};

}  // namespace smn::net
