// Striped-object placement and health bookkeeping — the data half of the
// SNS-repair data plane (à la the cortx-motr SNS-repair HLDs).
//
// A StripePool carves the cluster's objects into `stripes` parity groups of
// N data + K parity units and places each group's N+K units on distinct
// servers in distinct racks (rack-level failure-domain separation, so a rack
// power event costs at most one unit per group). Placement is a pure
// function of the seed: the same fabric and stream produce the same layout
// on every run, which is what lets the sweep engine reproduce repair-window
// numbers byte-for-byte.
//
// The pool tracks which units are *serving* (endpoint device healthy with a
// usable access link — the same predicate workload::StorageService polls
// for) incrementally from link-state transitions, stamps parity groups dirty
// on the first failure, and declares a group *lost* the instant more than K
// units are down at once (data is unrecoverable; §2's window of
// vulnerability closed too late). The RepairCoordinator in data_plane.h
// consumes the dirty set in canonical (ascending group id) order.
#pragma once

#include <cstdint>
#include <vector>

#include "net/network.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace smn::storage {

/// One parity group: N+K units, each on its own server.
struct Stripe {
  std::vector<net::DeviceId> units;  // unit -> server; [0,N) data, [N,N+K) parity
  std::uint32_t failed = 0;          // bit u set: units[u]'s server is not serving
  bool lost = false;                 // >K units failed simultaneously at some point
  bool dirty = false;                // failed != 0 || lost
  sim::TimePoint dirty_since{};      // start of the current dirty episode
};

class StripePool {
 public:
  struct Config {
    int data_units = 8;    // N
    int parity_units = 2;  // K
    int stripes = 64;      // parity groups
    double unit_mb = 2048.0;
    /// Test hook: when non-empty, use these placements verbatim (one row per
    /// stripe; row width becomes N+K with the configured N) instead of the
    /// seeded rack-separated layout. The differential oracle against
    /// workload::StorageService injects that service's placements here.
    std::vector<std::vector<net::DeviceId>> explicit_placements;
  };

  /// Builds the layout by drawing from `rng` (a named stream owned by the
  /// caller); the pool keeps no reference to it afterwards.
  StripePool(const net::Network& net, sim::RngStream& rng, Config cfg);

  [[nodiscard]] int width() const { return cfg_.data_units + cfg_.parity_units; }
  [[nodiscard]] std::size_t stripe_count() const { return stripes_.size(); }
  [[nodiscard]] const Stripe& stripe(std::size_t s) const { return stripes_[s]; }
  [[nodiscard]] const Config& config() const { return cfg_; }

  /// Units of stripe `s` currently serving (width - popcount(failed)).
  [[nodiscard]] int units_serving(std::size_t s) const;
  /// Whether a read of stripe `s` can complete right now: at least N units
  /// serving (a degraded read reconstructs from any N of the N+K).
  [[nodiscard]] bool readable(std::size_t s) const {
    return units_serving(s) >= cfg_.data_units;
  }

  [[nodiscard]] std::size_t dirty_count() const { return dirty_count_; }
  /// Lowest dirty stripe id >= `from`, or stripe_count() when none — the
  /// canonical iteration order of the RepairCoordinator.
  [[nodiscard]] std::size_t first_dirty(std::size_t from) const;

  /// Lifetime dirty-episode starts (clean -> dirty transitions).
  [[nodiscard]] std::uint64_t dirty_transitions() const { return dirty_transitions_; }
  /// Parity groups that have ever crossed the >K simultaneous-failure line.
  [[nodiscard]] std::uint64_t stripes_lost_ever() const { return stripes_lost_ever_; }

  /// Re-derives the serving state of both endpoint devices of `l` and
  /// applies any flips to the hosted units. Call from a Network observer;
  /// device-health changes also surface here because Network re-derives the
  /// device's link states when health flips.
  void on_link_transition(const net::Link& l);

  /// Whether `server` is currently serving according to the pool's
  /// incremental tracking (servers not hosting any unit always read false).
  [[nodiscard]] bool serving(net::DeviceId server) const;

  /// Re-places unit `u` of stripe `s` onto `target` and marks it rebuilt
  /// (serving state of the target decides the new failed bit). Used by the
  /// repair path after reconstruction completes.
  void place_unit(std::size_t s, int u, net::DeviceId target);

  /// Marks the current dirty episode of `s` finished if all units serve
  /// again; returns the episode length, or a negative duration when the
  /// stripe is still dirty. Clears `lost` (the group has been re-initialized
  /// from surviving replicas or fresh writes).
  [[nodiscard]] sim::Duration finish_episode_if_clean(std::size_t s, sim::TimePoint now);

  /// Deterministic rebuild-target choice for a failed unit of stripe `s`:
  /// the original server if it serves again, else the next serving server
  /// (round-robin over the roster from an internal cursor) that hosts no
  /// unit of `s`, preferring rack-disjoint candidates. Returns an invalid id
  /// when no candidate exists (the stripe stays dirty; the coordinator is
  /// re-kicked on the next serving flip).
  [[nodiscard]] net::DeviceId rebuild_target(std::size_t s, int u);

  /// Cross-component invariant sweep (failed masks vs serving flags, dirty
  /// bookkeeping, index integrity). Aborts via SMN_ASSERT on corruption.
  /// Linear in units plus host-index entries; allocates nothing once its
  /// scratch has grown to the stripe count.
  void check_invariants() const;

 private:
  struct Hosted {
    std::uint32_t stripe = 0;
    std::uint16_t unit = 0;
  };
  /// check_invariants' per-stripe view of the host index.
  struct IndexMark {
    std::uint32_t named = 0;        // bit u set: some entry names unit u
    std::int32_t last_device = -1;  // device of the latest entry naming the stripe
  };

  void build_layout(sim::RngStream& rng);
  void index_placements();
  [[nodiscard]] bool compute_serving(net::DeviceId server) const;
  void apply_serving_flip(net::DeviceId server, bool serving_now);
  /// Rack key of a server (hall/row/rack packed); -1 for unknown devices.
  [[nodiscard]] std::int64_t rack_of(net::DeviceId server) const;

  const net::Network& net_;
  Config cfg_;
  std::vector<Stripe> stripes_;
  /// server device value -> units hosted there (empty for non-storage
  /// devices). Sized to the device table; rebuilt incrementally on
  /// place_unit.
  std::vector<std::vector<Hosted>> hosted_;
  std::vector<std::uint8_t> serving_;  // tracked serving flag per device value
  std::size_t dirty_count_ = 0;
  std::uint64_t dirty_transitions_ = 0;
  std::uint64_t stripes_lost_ever_ = 0;
  std::size_t rebuild_cursor_ = 0;  // round-robin start for target choice
  mutable std::vector<IndexMark> check_marks_;  // check_invariants scratch, reused
};

}  // namespace smn::storage
