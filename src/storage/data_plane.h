// The SNS-repair storage data plane: degraded reads and background
// reconstruction riding on the simulated fabric.
//
// Two FOMs drive everything (sim/fom.h, the continuation scheduler):
//
//  * ReadFom — the client-side workload. Every `read_interval` it issues a
//    batch of reads against random stripes. A read of a clean group is a
//    cheap bookkeeping tick; a read of a degraded group fans out to the N
//    surviving units, routes those reconstruction flows over the *live*
//    fabric through net::route_and_load, and records the resulting p99
//    tail-latency factor — a flapping link on the fan-out path is exactly
//    the "curse of a flapping link" (§1) made client-visible. A group with
//    fewer than N serving units is unreadable (data loss if >K failed).
//
//  * RepairCoordinator — background SNS repair. Failures mark parity groups
//    dirty (StripePool); the coordinator drains the dirty set in canonical
//    ascending-group order, one reconstruction at a time. The rebuild rate
//    is throttled by live fabric health: the repair token bucket refills at
//    `repair_mbps * health` where health is the usable fraction of fabric
//    links, so impaired links shrink the bucket and maintenance quality
//    directly moves repair-window length — the co-design observable E19
//    measures. Cross-hall replica ingest (Campus) drains the same bucket.
//
// Everything is deterministic: one named RNG stream, wakeups through a
// FomEngine (counted in sim_wakeups_storage_total), no wall clock, no
// hash-order iteration. With the fabric healthy and no dirty groups the
// steady state is one read batch per interval and zero allocations — the
// property tests/alloc_test.cpp gates.
#pragma once

#include <cstdint>
#include <vector>

#include "net/network.h"
#include "net/traffic.h"
#include "obs/obs.h"
#include "sim/fom.h"
#include "sim/rng.h"
#include "storage/stripe_pool.h"

namespace smn::storage {

class DataPlane {
 public:
  struct Config {
    /// World-level master switch: scenario::World only constructs a
    /// DataPlane when set, so storage-off worlds keep byte-identical traces.
    bool enabled = false;
    StripePool::Config layout;
    /// Read workload: every interval, `reads_per_tick` random-stripe reads.
    /// zero() disables the read path entirely.
    sim::Duration read_interval = sim::Duration::minutes(15);
    int reads_per_tick = 4;
    /// Offered load of each reconstruction fan-out flow during a degraded
    /// read (charged to net::Traffic when routing the fan-out).
    double read_gbps = 1.0;
    /// Background reconstruction; false keeps groups dirty forever (the
    /// degenerate StorageService-oracle configuration).
    bool repair = true;
    /// Healthy-fabric reconstruction bandwidth (token-bucket refill rate at
    /// health 1.0).
    double repair_mbps = 250.0;
    /// Throttle floor: the bucket never refills slower than this fraction of
    /// repair_mbps, so repair always converges once failures stop.
    double health_floor = 0.05;
  };

  DataPlane(net::Network& net, sim::RngStream rng, Config cfg);

  /// Registers storage_* instruments eagerly (stable snapshot schema whether
  /// or not a single byte is ever repaired) and the FOM wakeup counter.
  void set_obs(obs::Obs* o);

  /// Arms the read workload and subscribes repair to failures. Idempotent.
  void start();

  [[nodiscard]] StripePool& pool() { return pool_; }
  [[nodiscard]] const StripePool& pool() const { return pool_; }
  [[nodiscard]] const Config& config() const { return cfg_; }

  /// Live fabric health in [health_floor, 1]: the capacity-weighted usable
  /// fraction of links (Down and Flapping count as unusable, Degraded half).
  [[nodiscard]] double fabric_health() const;
  /// The bucket refill rate at the current health — the throttle observable.
  [[nodiscard]] double current_repair_mbps() const;

  /// Cross-hall replica ingest (Campus epoch exchange): replication traffic
  /// competes with local reconstruction for the same repair bucket.
  void absorb_replica_mb(double mb);

  // --- statistics (sweep metric sources) ---
  [[nodiscard]] std::uint64_t reads() const { return reads_; }
  [[nodiscard]] std::uint64_t degraded_reads() const { return degraded_reads_; }
  [[nodiscard]] std::uint64_t unavailable_reads() const { return unavailable_reads_; }
  [[nodiscard]] std::uint64_t repairs_completed() const { return repairs_completed_; }
  [[nodiscard]] double repaired_mb() const { return repaired_mb_; }
  /// Sum / count of completed dirty-episode lengths (first failure -> fully
  /// clean), the "repair window" of the paper's co-design question.
  [[nodiscard]] double repair_window_hours_sum() const { return window_hours_sum_; }
  [[nodiscard]] std::uint64_t repair_windows() const { return windows_; }
  [[nodiscard]] double mean_repair_window_hours() const {
    return windows_ == 0 ? 0.0 : window_hours_sum_ / static_cast<double>(windows_);
  }
  [[nodiscard]] double data_loss_fraction() const {
    return pool_.stripe_count() == 0
               ? 0.0
               : static_cast<double>(pool_.stripes_lost_ever()) /
                     static_cast<double>(pool_.stripe_count());
  }
  [[nodiscard]] double degraded_read_fraction() const {
    return reads_ == 0 ? 0.0
                       : static_cast<double>(degraded_reads_ + unavailable_reads_) /
                             static_cast<double>(reads_);
  }

  void check_invariants() const;

 private:
  class ReadFom final : public sim::Fom {
   public:
    explicit ReadFom(DataPlane& dp) : sim::Fom(dp.fom_engine_), dp_(dp) {}

   protected:
    Tick tick() override;

   private:
    DataPlane& dp_;
  };

  class RepairCoordinator final : public sim::Fom {
   public:
    enum Phase { kIdle = 0, kPick, kRebuild };
    explicit RepairCoordinator(DataPlane& dp) : sim::Fom(dp.fom_engine_), dp_(dp) {}

   protected:
    Tick tick() override;

   private:
    DataPlane& dp_;
  };

  void read_tick();
  void one_read();
  /// Wakes the coordinator if it is parked and there is (potentially)
  /// repairable work. Called from the failure observer and replica ingest.
  void kick_repair();
  /// Closes dirty episodes whose failures all recovered on their own (the
  /// pool clears failure bits on recovery but leaves episode accounting to
  /// us), recording their windows just like repair-closed ones.
  void finish_clean_episodes();
  void record_window(sim::Duration episode);
  /// Folds pool deltas (dirty gauge, transition/loss counters) into obs.
  void sync_pool_obs();

  net::Network& net_;
  sim::RngStream rng_;
  Config cfg_;
  sim::FomEngine fom_engine_;
  StripePool pool_;
  ReadFom read_fom_;
  RepairCoordinator repair_fom_;
  bool started_ = false;

  // In-flight rebuild plan (reused across picks; no steady-state growth).
  std::size_t rebuild_stripe_ = 0;
  std::vector<int> rebuild_units_;
  std::vector<net::DeviceId> rebuild_targets_;
  double rebuild_mb_ = 0.0;  // bucket work charged to the in-flight rebuild

  // Repair bucket bookkeeping.
  double backlog_mb_ = 0.0;  // replica ingest waiting to drain the bucket
  double last_rate_mbps_ = 0.0;

  // Degraded-read scratch (cleared, never shrunk: the fan-out matrix stops
  // allocating once its capacity covers N flows).
  net::TrafficMatrix fanout_;

  std::uint64_t reads_ = 0;
  std::uint64_t degraded_reads_ = 0;
  std::uint64_t unavailable_reads_ = 0;
  std::uint64_t repairs_completed_ = 0;
  double repaired_mb_ = 0.0;
  double window_hours_sum_ = 0.0;
  std::uint64_t windows_ = 0;

  // Instruments (null when metrics are off).
  obs::Counter* obs_reads_ = nullptr;
  obs::Counter* obs_degraded_ = nullptr;
  obs::Counter* obs_unavailable_ = nullptr;
  obs::Counter* obs_repairs_ = nullptr;
  obs::Counter* obs_lost_ = nullptr;
  obs::Counter* obs_dirty_transitions_ = nullptr;
  obs::Gauge* obs_repaired_mb_ = nullptr;  // monotone; gauges carry fractions
  obs::Gauge* obs_replica_mb_ = nullptr;
  obs::Gauge* obs_dirty_ = nullptr;
  obs::Gauge* obs_rate_ = nullptr;
  obs::Histogram* obs_window_hours_ = nullptr;
  obs::Histogram* obs_read_tail_ = nullptr;
  std::uint64_t seen_dirty_transitions_ = 0;
  std::uint64_t seen_lost_ = 0;
};

}  // namespace smn::storage
