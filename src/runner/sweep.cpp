#include "runner/sweep.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <utility>

#include "analysis/cost.h"
#include "analysis/stats.h"
#include "core/check.h"
#include "maintenance/ticket.h"
#include "obs/json_writer.h"
#include "runner/channel.h"
#include "runner/shard_pool.h"

namespace smn::runner {
namespace {

// Wall-clock throughput timing only (never simulation-visible): the sim side
// of every replicate runs purely on sim::TimePoint.
// smn-lint: allow(wall-clock)
using WallClock = std::chrono::steady_clock;

[[nodiscard]] int resolve_jobs(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

[[nodiscard]] MetricSummary summarize(const analysis::SampleStats& s) {
  MetricSummary m;
  if (s.empty()) return m;
  m.mean = s.mean();
  m.stddev = s.stddev();
  m.ci95 = s.ci95();
  m.p50 = s.percentile(50.0);
  m.p95 = s.percentile(95.0);
  m.min = s.min();
  m.max = s.max();
  return m;
}

/// Registers the survivability_* instruments and records the frontier into
/// them. Called before the obs snapshot is taken so the aggregates (and the
/// metrics hash) carry the frontier deterministically.
void record_survivability_obs(obs::Registry* reg, const analysis::FrontierResult& frontier) {
  if (reg == nullptr || !frontier.present()) return;
  reg->counter("survivability_orderings_total")->inc(frontier.samples);
  reg->counter("survivability_curve_points_total")
      ->inc(frontier.samples * (frontier.elements + 1));
  reg->gauge("survivability_elements")->set(static_cast<double>(frontier.elements));
  reg->gauge("survivability_auc_connectivity")->set(frontier.auc_connectivity);
  reg->gauge("survivability_auc_reachability")->set(frontier.auc_reachability);
  reg->gauge("survivability_auc_bisection")->set(frontier.auc_bisection);
}

/// Single-fabric frontier: ordering seeds are mixed from (config seed,
/// replicate seed), so every replicate samples distinct orderings while the
/// result stays a pure function of (cell config, seed).
[[nodiscard]] analysis::FrontierResult compute_survivability(
    const topology::Blueprint& bp, const analysis::SurvivabilityConfig& cfg,
    std::uint64_t replicate_seed) {
  analysis::SurvivabilityFrontier frontier{bp};
  const std::vector<std::uint64_t> seeds = analysis::SurvivabilityFrontier::ordering_seeds(
      analysis::SurvivabilityFrontier::mix_seed(cfg.seed, replicate_seed), cfg.orderings);
  return frontier.compute(cfg.mode, seeds);
}

/// Campus frontier: per-hall curves (hall index mixed into the ordering
/// seeds) aggregated over every (hall, ordering) sample. Runs on the calling
/// thread in hall order and aggregation sorts per-point, so the result is
/// byte-identical at any shard count. Requires every hall to expose the same
/// element count (build_campus stamps identical halls).
[[nodiscard]] analysis::FrontierResult compute_campus_survivability(
    const topology::CampusBlueprint& campus, const analysis::SurvivabilityConfig& cfg,
    std::uint64_t replicate_seed) {
  const std::uint64_t base =
      analysis::SurvivabilityFrontier::mix_seed(cfg.seed, replicate_seed);
  std::vector<analysis::SurvivabilityCurves> samples;
  std::size_t elements = 0, devices = 0, servers = 0;
  std::vector<std::int32_t> order;
  for (std::size_t hall = 0; hall < campus.halls.size(); ++hall) {
    analysis::SurvivabilityFrontier frontier{campus.halls[hall]};
    if (hall == 0) {
      elements = frontier.element_count(cfg.mode);
      devices = frontier.device_count();
      servers = frontier.server_count();
    } else {
      SMN_ASSERT(frontier.element_count(cfg.mode) == elements,
                 "campus hall %zu has %zu failable elements, hall 0 has %zu", hall,
                 frontier.element_count(cfg.mode), elements);
    }
    const std::vector<std::uint64_t> seeds = analysis::SurvivabilityFrontier::ordering_seeds(
        analysis::SurvivabilityFrontier::mix_seed(base, hall + 1), cfg.orderings);
    for (const std::uint64_t seed : seeds) {
      frontier.make_ordering(cfg.mode, seed, order);
      analysis::SurvivabilityCurves curves;
      frontier.replay(cfg.mode, order, curves);
      samples.push_back(std::move(curves));
    }
  }
  return analysis::aggregate_curves(cfg.mode, elements, devices, servers, samples);
}

/// The campus-cell replicate: one sharded Campus instead of one World. The
/// sim side is shard-count-invariant by construction (send-calendar barriers +
/// sorted exchange), and everything below reads the finished campus on the
/// calling thread in hall order, so the result is too.
[[nodiscard]] ReplicateResult run_campus_replicate(const CellSpec& cell, std::size_t cell_index,
                                                   std::uint64_t seed, sim::Duration duration,
                                                   bool sample_trace, int shards) {
  scenario::CampusConfig cfg = cell.campus_config;
  cfg.hall = cell.config;
  cfg.hall.seed = seed;
  if (sample_trace) cfg.hall.obs.trace = true;
  scenario::Campus campus{cell.campus, std::move(cfg)};
  if (shards > 1) {
    ShardPool pool{shards};
    campus.run_for(duration, pool.executor());
  } else {
    campus.run_for(duration);
  }
  campus.check_invariants();

  ReplicateResult r;
  r.cell = cell_index;
  r.seed = seed;
  // Frontier before the merged snapshot so the survivability_* instruments
  // (registered into hall 0's registry) are part of the obs aggregate.
  if (cell.config.survivability.enabled && cell.config.survivability.orderings > 0) {
    r.survivability = compute_campus_survivability(cell.campus, cell.config.survivability, seed);
    record_survivability_obs(campus.domain(0).obs().metrics(), r.survivability);
  }
  r.trace_hash = campus.trace_hash();
  r.events = campus.events_processed();
  r.obs_snapshot = campus.merged_snapshot();
  if (!r.obs_snapshot.empty()) r.metrics_hash = obs::snapshot_hash(r.obs_snapshot);
  // The sampled timeline is hall 0's — the domain whose seed equals the
  // campus seed, so it is directly comparable to a single-World trace.
  if (sample_trace && campus.domain(0).obs().trace() != nullptr) {
    r.sampled_trace_json = campus.domain(0).obs().trace()->to_chrome_json();
    r.sampled_trace_hash = obs::fnv1a(r.sampled_trace_json);
  }

  // Hours, counts, and costs sum across halls; the availability/impairment
  // fractions are weighted by hall link count (identical halls degrade to a
  // plain mean, ragged campuses stay correct). Accumulation runs in hall
  // order on this thread — deterministic at any shard count.
  auto& m = r.metrics;
  analysis::CostInputs costs;
  double weight_total = 0.0;
  double storage_window_hours = 0.0, storage_windows = 0.0;
  double storage_lost = 0.0, storage_stripes = 0.0;
  double storage_bad_reads = 0.0, storage_reads = 0.0;
  for (std::size_t i = 0; i < campus.domain_count(); ++i) {
    scenario::World& world = campus.domain(i);
    const analysis::AvailabilityTracker& avail = world.availability();
    const double w = static_cast<double>(cell.campus.halls[i].links().size());
    weight_total += w;
    m[kAvailability] += w * avail.fleet_availability();
    m[kImpairedFraction] += w * avail.fleet_impairment();
    m[kDowntimeLinkHours] += avail.downtime_link_hours();
    m[kPlannedLinkHours] += avail.planned_maintenance_link_hours();
    m[kImpairedLinkHours] += avail.impaired_link_hours();
    m[kOpenBacklog] +=
        static_cast<double>(world.tickets().count(maintenance::TicketState::kOpen) +
                            world.tickets().count(maintenance::TicketState::kDispatched) +
                            world.tickets().count(maintenance::TicketState::kInProgress));
    m[kFaultsInjected] += static_cast<double>(world.injector().log().size());
    m[kTicketsResolved] +=
        static_cast<double>(world.tickets().count(maintenance::TicketState::kResolved));
    m[kTechnicianHours] += world.technicians().labor_hours();
    m[kRobotBusyHours] += world.has_fleet() ? world.fleet().busy_hours() : 0.0;
    costs.robot_units += world.has_fleet() ? world.fleet().units_online() : 0;
    if (world.has_storage()) {
      const storage::DataPlane& sp = world.storage();
      storage_window_hours += sp.repair_window_hours_sum();
      storage_windows += static_cast<double>(sp.repair_windows());
      storage_lost += static_cast<double>(sp.pool().stripes_lost_ever());
      storage_stripes += static_cast<double>(sp.pool().stripe_count());
      storage_bad_reads +=
          static_cast<double>(sp.degraded_reads() + sp.unavailable_reads());
      storage_reads += static_cast<double>(sp.reads());
    }
  }
  if (weight_total > 0.0) {
    m[kAvailability] /= weight_total;
    m[kImpairedFraction] /= weight_total;
  }
  m[kNines] = analysis::AvailabilityTracker::nines(m[kAvailability]);
  // Campus-wide storage ratios from the raw sums (hall-count independent).
  m[kStorageRepairWindowHours] =
      storage_windows > 0.0 ? storage_window_hours / storage_windows : 0.0;
  m[kStorageDataLossFraction] =
      storage_stripes > 0.0 ? storage_lost / storage_stripes : 0.0;
  m[kStorageDegradedReadFraction] =
      storage_reads > 0.0 ? storage_bad_reads / storage_reads : 0.0;

  costs.technician_hours = m[kTechnicianHours];
  costs.robot_busy_hours = m[kRobotBusyHours];
  costs.elapsed_years = duration.to_days() / 365.0;
  costs.downtime_link_hours = m[kDowntimeLinkHours];
  costs.impaired_link_hours = m[kImpairedLinkHours];
  const double elapsed_days = duration.to_days();
  m[kAnnualCostUsd] = elapsed_days > 0.0
                          ? analysis::compute_cost({}, costs).total_usd * 365.0 / elapsed_days
                          : 0.0;
  m[kEventsPerSimDay] =
      elapsed_days > 0.0 ? static_cast<double>(r.events) / elapsed_days : 0.0;
  m[kSurvivabilityAucConnectivity] = r.survivability.auc_connectivity;
  m[kSurvivabilityAucReachability] = r.survivability.auc_reachability;
  m[kSurvivabilityAucBisection] = r.survivability.auc_bisection;
  return r;
}

}  // namespace

ReplicateResult SweepRunner::run_replicate(const CellSpec& cell, std::size_t cell_index,
                                           std::uint64_t seed, sim::Duration duration,
                                           bool sample_trace, int shards) {
  if (cell.is_campus()) {
    return run_campus_replicate(cell, cell_index, seed, duration, sample_trace, shards);
  }
  scenario::WorldConfig cfg = cell.config;
  cfg.seed = seed;
  if (sample_trace) cfg.obs.trace = true;
  scenario::World world{cell.blueprint, std::move(cfg)};
  world.run_for(duration);
  world.check_invariants();

  ReplicateResult r;
  r.cell = cell_index;
  r.seed = seed;
  // Frontier before the snapshot so the survivability_* instruments land in
  // the replicate's obs hash and aggregates.
  if (cell.config.survivability.enabled && cell.config.survivability.orderings > 0) {
    r.survivability = compute_survivability(cell.blueprint, cell.config.survivability, seed);
    record_survivability_obs(world.obs().metrics(), r.survivability);
  }
  r.trace_hash = world.simulator().trace_hash();
  r.events = world.simulator().events_processed();
  if (const obs::Registry* reg = world.obs().metrics()) {
    r.obs_snapshot = reg->snapshot();
    r.metrics_hash = reg->snapshot_hash();
  }
  if (sample_trace && world.obs().trace() != nullptr) {
    r.sampled_trace_json = world.obs().trace()->to_chrome_json();
    r.sampled_trace_hash = obs::fnv1a(r.sampled_trace_json);
  }

  const analysis::AvailabilityTracker& avail = world.availability();
  auto& m = r.metrics;
  m[kAvailability] = avail.fleet_availability();
  m[kNines] = analysis::AvailabilityTracker::nines(m[kAvailability]);
  m[kImpairedFraction] = avail.fleet_impairment();
  m[kDowntimeLinkHours] = avail.downtime_link_hours();
  m[kPlannedLinkHours] = avail.planned_maintenance_link_hours();
  m[kImpairedLinkHours] = avail.impaired_link_hours();
  m[kOpenBacklog] =
      static_cast<double>(world.tickets().count(maintenance::TicketState::kOpen) +
                          world.tickets().count(maintenance::TicketState::kDispatched) +
                          world.tickets().count(maintenance::TicketState::kInProgress));
  m[kFaultsInjected] = static_cast<double>(world.injector().log().size());
  m[kTicketsResolved] =
      static_cast<double>(world.tickets().count(maintenance::TicketState::kResolved));
  m[kTechnicianHours] = world.technicians().labor_hours();
  m[kRobotBusyHours] = world.has_fleet() ? world.fleet().busy_hours() : 0.0;
  if (world.has_storage()) {
    const storage::DataPlane& sp = world.storage();
    m[kStorageRepairWindowHours] = sp.mean_repair_window_hours();
    m[kStorageDataLossFraction] = sp.data_loss_fraction();
    m[kStorageDegradedReadFraction] = sp.degraded_read_fraction();
  }

  analysis::CostInputs costs;
  costs.technician_hours = m[kTechnicianHours];
  costs.robot_busy_hours = m[kRobotBusyHours];
  costs.robot_units = world.has_fleet() ? world.fleet().units_online() : 0;
  costs.elapsed_years = duration.to_days() / 365.0;
  costs.downtime_link_hours = m[kDowntimeLinkHours];
  costs.impaired_link_hours = m[kImpairedLinkHours];
  const double elapsed_days = duration.to_days();
  m[kAnnualCostUsd] = elapsed_days > 0.0
                          ? analysis::compute_cost({}, costs).total_usd * 365.0 / elapsed_days
                          : 0.0;
  m[kEventsPerSimDay] =
      elapsed_days > 0.0 ? static_cast<double>(r.events) / elapsed_days : 0.0;
  m[kSurvivabilityAucConnectivity] = r.survivability.auc_connectivity;
  m[kSurvivabilityAucReachability] = r.survivability.auc_reachability;
  m[kSurvivabilityAucBisection] = r.survivability.auc_bisection;
  return r;
}

SweepReport SweepRunner::run(const SweepSpec& spec, const Options& opts) {
  stop_.store(false, std::memory_order_relaxed);

  struct Task {
    std::size_t cell;
    std::uint64_t seed;
  };
  std::vector<Task> tasks;
  tasks.reserve(spec.cells.size() * static_cast<std::size_t>(spec.seeds));
  for (std::size_t c = 0; c < spec.cells.size(); ++c) {
    for (std::uint64_t s = 0; s < spec.seeds; ++s) {
      tasks.push_back({c, spec.first_seed + s});
    }
  }

  SweepReport report;
  report.replicates_total = tasks.size();
  report.first_seed = spec.first_seed;
  report.seeds = spec.seeds;
  report.duration_days = spec.duration.to_days();
  report.cells.reserve(spec.cells.size());
  for (const CellSpec& cell : spec.cells) {
    CellReport cr;
    cr.name = cell.name;
    report.cells.push_back(std::move(cr));
  }

  const int jobs = resolve_jobs(opts.jobs);
  const int shards = opts.shards < 1 ? 1 : opts.shards;
  report.jobs = jobs;
  report.shards = shards;
  const auto wall_start = WallClock::now();

  std::vector<ReplicateResult> collected;
  collected.reserve(tasks.size());

  if (!tasks.empty()) {
    // Task channel holds the whole grid so producers never block; the results
    // channel is small and continuously drained by this thread, so workers
    // stay bounded-ahead and cancellation latency stays at one replicate.
    BoundedChannel<Task> task_channel{tasks.size()};
    BoundedChannel<ReplicateResult> results{static_cast<std::size_t>(jobs) * 2 + 1};
    for (const Task& t : tasks) task_channel.push(t);
    task_channel.close();

    std::atomic<int> live_workers{jobs};
    {
      std::vector<std::jthread> workers;
      workers.reserve(static_cast<std::size_t>(jobs));
      for (int j = 0; j < jobs; ++j) {
        workers.emplace_back([&] {
          while (std::optional<Task> task = task_channel.pop()) {
            if (stop_requested()) break;
            ReplicateResult r =
                run_replicate(spec.cells[task->cell], task->cell, task->seed, spec.duration,
                              opts.sample_traces && task->seed == spec.first_seed, shards);
            if (!results.push(std::move(r))) break;
          }
          if (live_workers.fetch_sub(1, std::memory_order_acq_rel) == 1) results.close();
        });
      }

      // Sole aggregator: stream results in completion order; deterministic
      // ordering is restored after the drain.
      while (std::optional<ReplicateResult> r = results.pop()) {
        collected.push_back(std::move(*r));
        if (opts.on_result) opts.on_result(collected.back(), collected.size(), tasks.size());
      }
    }  // jthread join barrier
  }

  const std::chrono::duration<double> wall = WallClock::now() - wall_start;
  report.wall_seconds = wall.count();
  report.replicates_done = collected.size();
  report.stopped_early = collected.size() < tasks.size();
  report.replicates_per_sec =
      report.wall_seconds > 0.0 ? static_cast<double>(collected.size()) / report.wall_seconds
                                : 0.0;

  // Deterministic aggregation: identical (cell, seed) sets produce identical
  // accumulation order — and therefore bit-identical stats — at any jobs.
  std::sort(collected.begin(), collected.end(),
            [](const ReplicateResult& a, const ReplicateResult& b) {
              return a.cell != b.cell ? a.cell < b.cell : a.seed < b.seed;
            });
  for (ReplicateResult& r : collected) {
    SMN_ASSERT(r.cell < report.cells.size(), "replicate cell index %zu out of range", r.cell);
    report.cells[r.cell].replicates.push_back(std::move(r));
  }
  for (CellReport& cell : report.cells) {
    std::array<analysis::SampleStats, kMetricCount> acc;
    for (const ReplicateResult& r : cell.replicates) {
      for (std::size_t i = 0; i < kMetricCount; ++i) acc[i].push(r.metrics[i]);
    }
    for (std::size_t i = 0; i < kMetricCount; ++i) cell.stats[i] = summarize(acc[i]);

    // Merge obs snapshots: every replicate of a cell carries the same sorted
    // name set (instruments are registered eagerly at World wiring), so the
    // zip below is positional. Accumulation runs in sorted-seed order, so the
    // aggregates are byte-identical at any thread count.
    if (!cell.replicates.empty() && !cell.replicates.front().obs_snapshot.empty()) {
      const std::vector<obs::SnapshotEntry>& first = cell.replicates.front().obs_snapshot;
      std::vector<analysis::SampleStats> obs_acc(first.size());
      for (const ReplicateResult& r : cell.replicates) {
        SMN_ASSERT(r.obs_snapshot.size() == first.size(),
                   "replicate seed %llu has %zu obs entries, expected %zu",
                   static_cast<unsigned long long>(r.seed), r.obs_snapshot.size(), first.size());
        for (std::size_t i = 0; i < first.size(); ++i) {
          SMN_DCHECK(r.obs_snapshot[i].name == first[i].name, "obs schema mismatch at %zu", i);
          obs_acc[i].push(r.obs_snapshot[i].value);
        }
      }
      cell.obs.reserve(first.size());
      for (std::size_t i = 0; i < first.size(); ++i) {
        cell.obs.push_back({first[i].name, obs_acc[i].mean(), obs_acc[i].min(), obs_acc[i].max()});
      }
    }

    // Cell-level frontier: every replicate's mean curves enter as one sample.
    // aggregate_curves sorts per point, so the block is byte-identical at any
    // job count (and, for campus cells, any shard count).
    if (!cell.replicates.empty() && cell.replicates.front().survivability.present()) {
      const analysis::FrontierResult& first = cell.replicates.front().survivability;
      std::vector<analysis::SurvivabilityCurves> samples;
      samples.reserve(cell.replicates.size());
      for (const ReplicateResult& r : cell.replicates) {
        SMN_ASSERT(r.survivability.elements == first.elements,
                   "replicate seed %llu has %zu survivability elements, expected %zu",
                   static_cast<unsigned long long>(r.seed), r.survivability.elements,
                   first.elements);
        samples.push_back({r.survivability.largest_component.mean,
                           r.survivability.server_reachability.mean,
                           r.survivability.bisection.mean});
      }
      cell.survivability = analysis::aggregate_curves(first.mode, first.elements, first.devices,
                                                      first.servers, samples);
    }
  }
  return report;
}

std::string to_json(const SweepReport& report, const JsonOptions& opts) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("schema", "smn-sweep-v1");
  w.kv("first_seed", report.first_seed);
  w.kv("seeds", report.seeds);
  w.kv("duration_days", report.duration_days);
  w.kv("replicates_total", report.replicates_total);
  w.kv("replicates_done", report.replicates_done);
  w.kv("stopped_early", report.stopped_early);
  if (opts.include_timing) {
    w.kv("jobs", report.jobs);
    w.kv("shards", report.shards);
    w.kv("wall_seconds", report.wall_seconds);
    w.kv("replicates_per_sec", report.replicates_per_sec);
  }
  w.key("cells");
  w.begin_array();
  for (const CellReport& cell : report.cells) {
    w.begin_object();
    w.kv("name", cell.name);
    w.kv("replicates", cell.replicates.size());
    // At most one replicate per cell carries a sampled trace (lowest seed).
    const ReplicateResult* sampled = nullptr;
    for (const ReplicateResult& r : cell.replicates) {
      if (!r.sampled_trace_json.empty()) {
        sampled = &r;
        break;
      }
    }
    if (sampled != nullptr) {
      w.key("sampled_trace");
      w.begin_object();
      w.kv("seed", sampled->seed);
      w.kv("trace_hash", obs::JsonWriter::hex64(sampled->sampled_trace_hash));
      w.kv("file", sampled_trace_filename(cell.name, sampled->seed));
      w.end_object();
    }
    w.key("metrics");
    w.begin_object();
    for (std::size_t i = 0; i < kMetricCount; ++i) {
      const MetricSummary& s = cell.stats[i];
      w.key(kMetricNames[i]);
      w.begin_object();
      w.kv("mean", s.mean);
      w.kv("stddev", s.stddev);
      w.kv("ci95", s.ci95);
      w.kv("p50", s.p50);
      w.kv("p95", s.p95);
      w.kv("min", s.min);
      w.kv("max", s.max);
      w.end_object();
    }
    w.end_object();
    if (!cell.obs.empty()) {
      w.key("obs");
      w.begin_object();
      for (const ObsAggregate& a : cell.obs) {
        w.key(a.name);
        w.begin_object();
        w.kv("mean", a.mean);
        w.kv("min", a.min);
        w.kv("max", a.max);
        w.end_object();
      }
      w.end_object();
    }
    if (cell.survivability.present()) {
      const analysis::FrontierResult& f = cell.survivability;
      w.key("survivability");
      w.begin_object();
      w.kv("mode", analysis::to_string(f.mode));
      w.kv("elements", f.elements);
      w.kv("devices", f.devices);
      w.kv("servers", f.servers);
      w.kv("samples", f.samples);
      w.kv("auc_connectivity", f.auc_connectivity);
      w.kv("auc_reachability", f.auc_reachability);
      w.kv("auc_bisection", f.auc_bisection);
      w.kv("hash", obs::JsonWriter::hex64(f.hash));
      w.key("curves");
      w.begin_object();
      const auto emit_curve = [&w](const char* name, const analysis::CurveSummary& c) {
        w.key(name);
        w.begin_object();
        w.key("mean");
        w.begin_array();
        for (const double v : c.mean) w.value(v);
        w.end_array();
        w.key("ci95");
        w.begin_array();
        for (const double v : c.ci95) w.value(v);
        w.end_array();
        w.end_object();
      };
      emit_curve("largest_component", f.largest_component);
      emit_curve("server_reachability", f.server_reachability);
      emit_curve("bisection", f.bisection);
      w.end_object();
      w.end_object();
    }
    w.key("samples");
    w.begin_array();
    for (const ReplicateResult& r : cell.replicates) {
      w.begin_object();
      w.kv("seed", r.seed);
      w.kv("trace_hash", obs::JsonWriter::hex64(r.trace_hash));
      if (r.metrics_hash != 0) w.kv("metrics_hash", obs::JsonWriter::hex64(r.metrics_hash));
      w.kv("events", r.events);
      if (r.survivability.present()) {
        w.kv("survivability_hash", obs::JsonWriter::hex64(r.survivability.hash));
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string sampled_trace_filename(const std::string& cell_name, std::uint64_t seed) {
  std::string sanitized = cell_name;
  for (char& c : sanitized) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) c = '_';
  }
  return "trace_" + sanitized + "_seed" + std::to_string(seed) + ".json";
}

bool write_sampled_traces(const SweepReport& report, const std::string& dir) {
  bool ok = true;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best-effort; open() reports failures
  for (const CellReport& cell : report.cells) {
    for (const ReplicateResult& r : cell.replicates) {
      if (r.sampled_trace_json.empty()) continue;
      const std::string path = dir + "/" + sampled_trace_filename(cell.name, r.seed);
      std::ofstream out{path, std::ios::binary};
      out << r.sampled_trace_json;
      if (!out.good()) {
        std::fprintf(stderr, "failed to write sampled trace %s\n", path.c_str());
        ok = false;
      }
    }
  }
  return ok;
}

}  // namespace smn::runner
