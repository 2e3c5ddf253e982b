// The parallel Monte-Carlo sweep engine.
//
// Every quantitative claim in EXPERIMENTS.md is a Monte-Carlo estimate over
// seeds; the seed dimension is embarrassingly parallel. A SweepRunner takes a
// SweepSpec — a grid of named WorldConfig cells × a seed range — and executes
// each (cell, seed) replicate on a fixed pool of std::jthread workers fed by
// a bounded MPMC task channel. Each replicate constructs its own private
// World (simulator, network, RNG streams — nothing mutable is shared across
// threads; the cell Blueprint is shared read-only and Network copies it), so
// the per-world determinism guarantee is untouched: a replicate's trace hash
// is a pure function of (cell config, seed), independent of thread count or
// completion order.
//
// Results stream through a bounded channel to the calling thread, which is
// the only aggregator. Aggregation is deferred until the sweep drains and
// performed in sorted (cell, seed) order, so floating-point accumulation —
// and therefore the JSON report — is byte-identical at jobs=1 and jobs=N
// (modulo the explicitly-excludable timing fields).
//
// Thread-safety inventory (machine-checked; see DESIGN.md "Static analysis"):
// the only mutex-protected state in the runner is BoundedChannel's, annotated
// SMN_GUARDED_BY in runner/channel.h. SweepRunner itself holds one atomic
// (stop_) and the aggregation state (`collected`, the report) is confined to
// the calling thread — workers hand results over exclusively through the
// channel, and the jthread join barrier orders the final aggregation after
// every worker exit.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analysis/survivability.h"
#include "obs/metrics.h"
#include "scenario/campus.h"
#include "scenario/world.h"
#include "sim/time.h"
#include "topology/blueprint.h"
#include "topology/campus.h"

namespace smn::runner {

/// One grid cell: a named world configuration evaluated across all seeds.
/// When `campus.halls` is non-empty the cell is a *campus cell*: each
/// replicate runs a sharded scenario::Campus (one domain per hall) instead of
/// a single World. `config` then provides the per-hall WorldConfig and
/// `campus_config` the cross-hall coupling knobs (its `hall` member is
/// overwritten per replicate); `blueprint` is unused.
struct CellSpec {
  /// A single-World cell (the classic shape).
  CellSpec(std::string cell_name, topology::Blueprint bp, scenario::WorldConfig cfg)
      : name{std::move(cell_name)}, blueprint{std::move(bp)}, config{std::move(cfg)} {}

  /// A campus cell: `hall_cfg` applies to every hall, `tuning` sets the
  /// cross-hall coupling (its `hall` member is overwritten per replicate).
  CellSpec(std::string cell_name, topology::CampusBlueprint campus_bp,
           scenario::WorldConfig hall_cfg, scenario::CampusConfig tuning = {})
      : name{std::move(cell_name)},
        blueprint{topology::PhysicalLayout{{}}, "unused"},
        config{std::move(hall_cfg)},
        campus{std::move(campus_bp)},
        campus_config{std::move(tuning)} {}

  std::string name;
  topology::Blueprint blueprint;  // shared const across workers; Network copies it
  scenario::WorldConfig config;   // `seed` is overwritten per replicate
  topology::CampusBlueprint campus;
  scenario::CampusConfig campus_config;

  [[nodiscard]] bool is_campus() const { return !campus.halls.empty(); }
};

/// The fixed per-replicate metric vector. Indexed by Metric; kMetricNames
/// keeps the JSON field names in the same order.
enum Metric : std::size_t {
  kAvailability = 0,
  kNines,
  kImpairedFraction,
  kDowntimeLinkHours,
  kPlannedLinkHours,
  kImpairedLinkHours,
  kOpenBacklog,
  kFaultsInjected,
  kTicketsResolved,
  kTechnicianHours,
  kRobotBusyHours,
  kAnnualCostUsd,
  /// Simulator queue pressure: events processed per simulated day. The
  /// continuation scheduler's headline observable — fewer wakeups for the
  /// same physical outcome means a leaner hot loop.
  kEventsPerSimDay,
  /// Storage data plane (0 when `WorldConfig::storage.enabled` is false):
  /// mean dirty-episode length (first failure → parity group fully clean),
  /// the fraction of parity groups that ever crossed the >K simultaneous-
  /// failure line, and the fraction of reads that went degraded or
  /// unavailable — the client-visible durability triple of E19.
  kStorageRepairWindowHours,
  kStorageDataLossFraction,
  kStorageDegradedReadFraction,
  /// Survivability frontier AUC triple (0 when `WorldConfig::survivability`
  /// is disabled): normalized area under the mean largest-component,
  /// server-reachability, and bisection curves — 1.0 means the fabric holds
  /// its full capability across the whole progressive-failure sweep, 0.0
  /// means instant collapse. The full curves ride CellReport::survivability.
  kSurvivabilityAucConnectivity,
  kSurvivabilityAucReachability,
  kSurvivabilityAucBisection,
  kMetricCount,
};

inline constexpr std::array<const char*, kMetricCount> kMetricNames = {
    "availability",         "nines",
    "impaired_fraction",    "downtime_link_hours",
    "planned_link_hours",   "impaired_link_hours",
    "open_backlog",         "faults_injected",
    "tickets_resolved",     "technician_hours",
    "robot_busy_hours",     "annual_cost_usd",
    "events_per_sim_day",   "storage_repair_window_hours",
    "storage_data_loss_fraction", "storage_degraded_read_fraction",
    "survivability_auc_connectivity", "survivability_auc_reachability",
    "survivability_auc_bisection",
};

struct ReplicateResult {
  std::size_t cell = 0;
  std::uint64_t seed = 0;
  std::array<double, kMetricCount> metrics{};
  std::uint64_t trace_hash = 0;  // determinism signal, recorded per replicate
  std::uint64_t events = 0;
  /// Flattened obs registry snapshot (sorted by name; empty if metrics were
  /// disabled in the cell config) and its FNV-1a hash — the second
  /// determinism signal, proving instrumentation itself is reproducible.
  std::vector<obs::SnapshotEntry> obs_snapshot;
  std::uint64_t metrics_hash = 0;
  /// Chrome trace JSON of this replicate, populated only when it was the
  /// cell's sampled replicate (Options::sample_traces, lowest seed), plus the
  /// FNV-1a hash of those bytes embedded in the sweep JSON. Because tracing
  /// is a pure observer, enabling it leaves trace_hash/metrics/obs_snapshot
  /// untouched — the rest of the report stays byte-identical.
  std::string sampled_trace_json;
  std::uint64_t sampled_trace_hash = 0;
  /// Survivability frontier of this replicate's fabric (empty — samples == 0
  /// — unless the cell config enables it). Computed post-run on the calling
  /// worker from the cell blueprint with ordering seeds mixed from
  /// (config seed, replicate seed), so it is deterministic per (cell, seed)
  /// and a pure observer of the simulation. For campus cells it aggregates
  /// per-hall curves computed in hall order — shard-count invariant.
  analysis::FrontierResult survivability;
};

struct SweepSpec {
  std::vector<CellSpec> cells;
  std::uint64_t first_seed = 1;
  std::uint64_t seeds = 8;  // replicates per cell: seeds [first_seed, first_seed+seeds)
  sim::Duration duration = sim::Duration::days(30);
};

/// Summary statistics for one metric over a cell's replicates.
struct MetricSummary {
  double mean = 0.0;
  double stddev = 0.0;
  double ci95 = 0.0;  // half-width of the 95% Student-t CI on the mean
  double p50 = 0.0;
  double p95 = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Per-cell aggregate of one obs snapshot entry across replicates.
struct ObsAggregate {
  std::string name;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
};

struct CellReport {
  std::string name;
  std::vector<ReplicateResult> replicates;  // sorted by seed
  std::array<MetricSummary, kMetricCount> stats{};
  /// Merged obs metrics (sorted by name; empty when metrics were disabled).
  /// Every replicate of a cell registers the same instrument set — the
  /// registry is populated eagerly at World wiring — so aggregation zips the
  /// sorted snapshots positionally.
  std::vector<ObsAggregate> obs;
  /// Cell-level survivability frontier: each replicate's mean curves enter
  /// as one sample (sorted-value aggregation, so byte-identical at any job
  /// count). samples == 0 when the cell has the frontier disabled.
  analysis::FrontierResult survivability;
};

struct SweepReport {
  std::vector<CellReport> cells;
  std::size_t replicates_done = 0;
  std::size_t replicates_total = 0;
  bool stopped_early = false;
  std::uint64_t first_seed = 1;
  std::uint64_t seeds = 0;
  double duration_days = 0.0;
  // Timing fields — excluded by JsonOptions::include_timing=false so reports
  // from different thread counts (jobs) and shard counts can be diffed
  // byte-for-byte. `shards` lives here for exactly that reason: it changes
  // wall time, never results.
  int jobs = 1;
  int shards = 1;
  double wall_seconds = 0.0;
  double replicates_per_sec = 0.0;
};

struct JsonOptions {
  bool include_timing = true;
};

/// Serializes a report to the machine-readable `smn-sweep-v1` JSON schema.
[[nodiscard]] std::string to_json(const SweepReport& report, const JsonOptions& opts = {});

/// File name (no directory) a cell's sampled trace is written under:
/// `trace_<cell>_seed<N>.json` with non-[A-Za-z0-9_-] bytes of the cell name
/// replaced by '_'. Directory-independent so the sweep JSON that embeds it
/// stays byte-identical wherever the traces land.
[[nodiscard]] std::string sampled_trace_filename(const std::string& cell_name,
                                                 std::uint64_t seed);

/// Writes every sampled trace in the report to `dir` (created if missing)
/// under sampled_trace_filename(). Returns false on any I/O failure. Kept
/// out of SweepRunner::run so aggregation itself never touches the
/// filesystem.
bool write_sampled_traces(const SweepReport& report, const std::string& dir);

class SweepRunner {
 public:
  struct Options {
    /// Worker threads; 0 means std::thread::hardware_concurrency().
    int jobs = 0;
    /// Progress callback, invoked on the calling thread after each replicate
    /// lands (`done` of `total`). May call request_stop() to end the sweep
    /// early; in-flight replicates still complete and are reported.
    std::function<void(const ReplicateResult&, std::size_t done, std::size_t total)> on_result;
    /// Trace one replicate per cell — deterministically the cheapest seed,
    /// i.e. first_seed — and carry its Chrome trace JSON + hash in the
    /// report, so every sweep ships a loadable example timeline.
    bool sample_traces = false;
    /// Worker threads *inside* each campus replicate (one ShardPool per
    /// replicate, one task per hall domain). 1 = sequential. Results are
    /// byte-identical at any value — that is the invariant the CI
    /// shard-invariance gate enforces. Ignored by single-World cells.
    int shards = 1;
  };

  /// Runs the full grid. Blocks until every replicate finished or the sweep
  /// was stopped; safe to call repeatedly (the stop flag resets per run).
  SweepReport run(const SweepSpec& spec, const Options& opts);
  SweepReport run(const SweepSpec& spec) { return run(spec, Options{}); }

  /// Requests cancellation: workers finish their current replicate and take
  /// no new work. Callable from on_result or from another thread.
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool stop_requested() const { return stop_.load(std::memory_order_relaxed); }

  /// Executes a single replicate synchronously — the unit the pool runs.
  /// Exposed for tests and for callers that want one world's metrics.
  /// `sample_trace` forces tracing on for this replicate and exports its
  /// trace JSON into the result; everything else is unaffected. For campus
  /// cells, `shards` > 1 runs the replicate's domains on a ShardPool of that
  /// width (results identical by construction; single-World cells ignore it).
  [[nodiscard]] static ReplicateResult run_replicate(const CellSpec& cell, std::size_t cell_index,
                                                     std::uint64_t seed, sim::Duration duration,
                                                     bool sample_trace = false, int shards = 1);

 private:
  std::atomic<bool> stop_{false};
};

}  // namespace smn::runner
