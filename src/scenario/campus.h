// Campus: a sharded multi-fabric world.
//
// A Campus owns one *domain* per hall. Each domain is a complete World —
// its own Simulator event queue, Network, fault injectors, ticket system,
// technician/robot fleets, and obs registry — so nothing mutable is ever
// shared between domains and each one can run on its own worker thread.
// Cross-hall physics (inter-hall traffic flows, the shared spare depot with
// campus-level grant arbitration, storage replica pushes) travel as messages
// exchanged at barriers under the conservative-lookahead discipline of
// sim/epoch.h.
//
// Every message comes from one of three Campus-owned periodic ticks, each
// firing at start + k * period, so the coordinator knows the *send calendar*
// in advance and places a barrier only at a send instant s:
//
//   1. Chunk: every domain runs its own event loop to s, inclusive
//      (Simulator::run_until executes events at the deadline, so the ticks
//      at s have run), appending outbound messages to a private outbox. The
//      executor may run domains on any threads in any order — they share no
//      mutable state.
//   2. Gather: the executor returns only after every task finished, so the
//      coordinator appends the outboxes to its pending list in domain order,
//      with no lock, and sorts them by the canonical ExchangeKey
//      (send time, source hall, per-source sequence).
//   3. Exchange: deliveries are scheduled into destination simulators in
//      that order. Each lands at sent + latency >= s + lookahead > s, so no
//      domain ever receives an event in its past. Spare requests are
//      arbitrated at sent + lookahead against a depot that restocks by the
//      clock, so no decision depends on where barriers fall.
//
// With no producer there is no barrier: the domains run each run_for() span
// as one chunk, like an uncoupled campus. A 30-minute traffic tick means 48
// barriers per campus-day.
//
// Consequence (the property the shard-invariance CI gate enforces): per-hall
// trace hashes, the campus trace hash, merged metrics snapshots, and sweep
// JSON are byte-identical whether a replicate runs on 1, 2, or 4 shards —
// the same invariance the sweep engine proves for jobs=1 vs jobs=4, pushed
// down inside a single replicate.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/spare_pool.h"
#include "net/domain.h"
#include "obs/metrics.h"
#include "scenario/world.h"
#include "sim/epoch.h"
#include "topology/campus.h"

namespace smn::scenario {

/// One cross-domain message. Plain data; `kind` selects the payload fields.
struct CrossMessage {
  enum class Kind : std::uint8_t {
    kTraffic,       // inter-hall flow offered to dst's fabric
    kSpareRequest,  // hall asks the shared depot for replacement units
    kStorageRepl,   // cross-hall replica delta for dst's storage data plane
  };
  Kind kind = Kind::kTraffic;
  int src = -1;  // source hall
  int dst = -1;  // destination hall; -1 = campus coordinator (spare depot)
  sim::TimePoint sent;
  std::uint64_t seq = 0;  // per-source sequence number; (src, seq) is unique
  double gbps = 0.0;      // kTraffic: offered load
  int spares = 0;         // kSpareRequest: units wanted
  double mb = 0.0;        // kStorageRepl: replica payload

  [[nodiscard]] sim::ExchangeKey key() const { return {sent, src, seq}; }
};

struct CampusConfig {
  /// Per-hall world configuration. `hall.seed` is the campus master seed;
  /// hall i actually runs at domain_seed(hall.seed, i).
  WorldConfig hall;
  /// Inter-hall traffic: every `traffic_period`, each hall offers
  /// `flows_per_tick` flows to each of its trunk peers. zero() disables.
  sim::Duration traffic_period = sim::Duration::minutes(30);
  int flows_per_tick = 2;
  /// Mean offered load per flow (exponentially distributed).
  double flow_gbps_mean = 40.0;
  /// Spare audits: every period, a hall tallies faults injected since its
  /// last audit and requests that many replacement units from the shared
  /// depot; the campus coordinator arbitrates grants one lookahead after the
  /// send. zero() disables.
  sim::Duration spare_audit_period = sim::Duration::hours(6);
  core::SparePool::Config spare_pool;
  /// Cross-hall storage replication (active only when `hall.storage.enabled`):
  /// every period each hall pushes `storage_repl_mb` of replica deltas to
  /// each trunk peer; the delta lands in the peer's repair token bucket
  /// (storage::DataPlane::absorb_replica_mb), so replication competes with
  /// local reconstruction for repair bandwidth. zero() disables.
  sim::Duration storage_repl_period = sim::Duration::hours(2);
  double storage_repl_mb = 512.0;
};

/// Deterministic per-hall seed derivation (splitmix-style odd-constant
/// stride): hall 0 runs at the campus seed itself, so a one-hall campus with
/// coupling disabled is event-for-event the same simulation as a standalone
/// World — the anchor of the differential test suite.
[[nodiscard]] constexpr std::uint64_t domain_seed(std::uint64_t campus_seed, std::size_t hall) {
  return campus_seed + 0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(hall);
}

class Campus {
 public:
  using Task = std::function<void()>;
  /// Runs every task exactly once — on any threads, in any order — and
  /// returns only after all of them completed. Null/default means run
  /// sequentially on the calling thread (shards=1). runner::ShardPool
  /// provides the threaded implementation.
  using Executor = std::function<void(std::vector<Task>&)>;

  Campus(const topology::CampusBlueprint& blueprint, CampusConfig cfg);

  Campus(const Campus&) = delete;
  Campus& operator=(const Campus&) = delete;

  /// Starts all domains and schedules the cross-domain producers. Idempotent.
  void start();

  /// Runs the campus for `d` of simulated time. The executor (if any) is
  /// invoked once per chunk — up to the next send instant or the end of
  /// `d` — with the same vector of one task per domain.
  void run_for(sim::Duration d, const Executor& exec = {});

  [[nodiscard]] std::size_t domain_count() const { return domains_.size(); }
  [[nodiscard]] World& domain(std::size_t i) { return *domains_.at(i)->world; }
  [[nodiscard]] const World& domain(std::size_t i) const { return *domains_.at(i)->world; }

  [[nodiscard]] sim::TimePoint now() const { return now_; }
  /// True when any cross-hall trunk exists; an uncoupled campus runs its
  /// domains with no barriers and no extra scheduled events at all.
  [[nodiscard]] bool coupled() const { return graph_.coupled(); }
  /// The lookahead (min cross-hall trunk latency). Meaningful iff coupled.
  [[nodiscard]] sim::Duration lookahead() const { return lookahead_; }

  /// Campus trace hash: FNV-1a fold of the per-domain executed-event trace
  /// hashes in hall order — byte-identical at any shard count.
  [[nodiscard]] std::uint64_t trace_hash() const;
  [[nodiscard]] std::uint64_t events_processed() const;

  /// Merged obs snapshot across domains (values summed; empty when metrics
  /// are disabled) and its hash — the campus-level metrics determinism
  /// signal.
  [[nodiscard]] std::vector<obs::SnapshotEntry> merged_snapshot() const;
  [[nodiscard]] std::uint64_t metrics_hash() const;

  [[nodiscard]] const core::SparePool& spare_pool() const { return spare_pool_; }
  [[nodiscard]] std::uint64_t messages_exchanged() const { return messages_exchanged_; }
  [[nodiscard]] std::uint64_t barriers_passed() const { return barriers_passed_; }

  [[nodiscard]] const CampusConfig& config() const { return cfg_; }

  /// Sweeps every domain's cross-component invariants.
  void check_invariants() const;

 private:
  struct Domain {
    int index = 0;
    std::unique_ptr<World> world;
    sim::RngStream traffic_rng;
    /// Outbound messages of the current chunk. Touched only by the one task
    /// running this domain; the coordinator gathers it after the join.
    std::vector<CrossMessage> outbox;
    std::uint64_t next_seq = 1;
    std::size_t faults_seen = 0;  // injector-log watermark for spare audits
    // Campus-coupling instruments in this domain's registry (null when
    // metrics are off).
    obs::Counter* tx_flows = nullptr;
    obs::Counter* rx_flows = nullptr;
    obs::Counter* rx_degraded = nullptr;
    obs::Histogram* rx_gbps = nullptr;
    obs::Counter* spares_requested = nullptr;
    obs::Counter* spares_granted = nullptr;
    obs::Counter* spares_denied = nullptr;
    obs::Gauge* depot_level = nullptr;
    obs::Counter* repl_tx = nullptr;  // storage replica pushes sent/received
    obs::Counter* repl_rx = nullptr;

    Domain(int idx, sim::RngStream rng) : index{idx}, traffic_rng{std::move(rng)} {}
  };

  /// One periodic producer on the send calendar: its ticks fire at
  /// start + k * period in every domain that registered it.
  struct Producer {
    sim::Duration period;
    sim::TimePoint next;  // the next send instant
  };

  void traffic_tick(Domain& d);
  void spare_audit_tick(Domain& d);
  void storage_repl_tick(Domain& d);
  /// Registers one tick of `period` in `d` and puts it on the send calendar.
  void add_producer(Domain& d, sim::Duration period, void (Campus::*tick)(Domain&));
  /// The earliest pending send instant; TimePoint::max() with no producers.
  [[nodiscard]] sim::TimePoint next_send() const;
  /// Runs all domains to `target` through `exec`, then gathers outboxes.
  void run_chunk(sim::TimePoint target, const Executor& exec);
  /// Sorted-merge delivery of everything sent at the send instant `barrier`.
  void exchange(sim::TimePoint barrier);

  CampusConfig cfg_;
  net::DomainGraph graph_;
  sim::Duration lookahead_ = sim::Duration::max();
  std::vector<std::unique_ptr<Domain>> domains_;
  /// The send calendar: one entry per distinct producer period.
  std::vector<Producer> calendar_;
  /// One task per domain, built once in start(); each runs its domain to
  /// chunk_target_.
  std::vector<Task> tasks_;
  sim::TimePoint chunk_target_;
  /// Messages gathered from the outboxes, awaiting the exchange.
  /// Coordinator-owned; keeps its capacity across barriers.
  std::vector<CrossMessage> pending_;
  core::SparePool spare_pool_;
  obs::Counter* barriers_total_ = nullptr;  // hall 0's campus_barriers_total
  sim::TimePoint now_;
  std::uint64_t messages_exchanged_ = 0;
  std::uint64_t barriers_passed_ = 0;
  bool started_ = false;
};

}  // namespace smn::scenario
