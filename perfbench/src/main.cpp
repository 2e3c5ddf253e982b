// perfbench: the repo benchmark.
//
//   perfbench --workload <hall-sweep|campus-shards|fabric-storage> --seed <n>
//             --seconds <s> --trace <0|1> [--report <file.json>]
//
// One run: set-up timing (median of several set-ups), then serial + parallel
// passes over the workload's (cell, seed) grid until the time budget is
// spent, with every per-replicate determinism signal compared between the
// passes. --trace 1 adds the traced run (traced.cpp) and reports per-layer
// metrics instead of end-to-end ones. Human-readable lines go to stdout; the
// last stdout line is the JSON result. Exit code 0 only when every check
// passed.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>

#include "obs/json_writer.h"
#include "perfbench.h"
#include "scenario/campus.h"

namespace perfbench {
namespace {

// ---- build and environment -------------------------------------------------

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#endif

/// Timings from sanitizer or assert-enabled builds say nothing about the
/// optimized program, so such builds refuse to run.
[[nodiscard]] const char* refused_build() {
#if !defined(NDEBUG)
  return "assertions are enabled (NDEBUG is not defined)";
#elif defined(SMN_ENABLE_DCHECKS)
  return "SMN_ENABLE_DCHECKS is defined";
#elif defined(PERFBENCH_SANITIZED)
  return "the build is instrumented by a sanitizer";
#else
  return nullptr;
#endif
}

[[nodiscard]] int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return std::max(1, CPU_COUNT(&set));
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

[[nodiscard]] double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string report;
};

[[nodiscard]] std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string v = argv[i + 1];
    try {
      if (flag == "--workload") {
        a.workload = v;
        have_workload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") return std::nullopt;
        a.trace = v == "1";
      } else if (flag == "--report") {
        a.report = v;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || !have_workload || !(a.seconds > 0.0)) return std::nullopt;
  return a;
}

// ---- metric bookkeeping ----------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

inline constexpr int kMinSetupReps = 5;

[[nodiscard]] double finite(double v) { return std::isfinite(v) ? v : 0.0; }
[[nodiscard]] double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Exact counter sums over a set of replicate snapshots.
class Counts {
 public:
  explicit Counts(const std::vector<runner::ReplicateResult>& results) {
    for (const runner::ReplicateResult& r : results) {
      for (const obs::SnapshotEntry& e : r.obs_snapshot) sums_[e.name] += e.value;
    }
  }
  [[nodiscard]] double operator[](const std::string& name) const {
    const auto it = sums_.find(name);
    return it == sums_.end() ? 0.0 : it->second;
  }
  [[nodiscard]] const std::map<std::string, double>& all() const { return sums_; }

 private:
  std::map<std::string, double> sums_;
};

/// One timed pass. Host times are calibrated (divided by the host slowdown
/// measured around them); the raw_ fields keep the uncalibrated readings.
struct PassStats {
  double replicates_per_s = 0.0;
  double p50_ms = 0.0;
  std::optional<Tail> tail;
  double speedup = 0.0;
  double busy_frac = 0.0;
  double serial_s = 0.0;
  double parallel_s = 0.0;
  double serial_slowdown = 1.0;
  double parallel_slowdown = 1.0;
  double raw_replicates_per_s = 0.0;
  double raw_p50_ms = 0.0;
};

/// Set-up time of one repetition, calibrated like PassStats.
struct SetupStats {
  SetupTiming raw;
  double slowdown = 1.0;
  [[nodiscard]] double total_s() const { return raw.total_s() / slowdown; }
};

/// Everything the traced run measured, summed over its replicates.
struct TraceTotals {
  std::array<double, kLayerCount> layer_s{};
  double hall_days = 0.0;  // hall-days traced step by step
  double covered_s = 0.0;
  double spanned_s = 0.0;
  double traced_s = 0.0;
  double untraced_s = 0.0;
  double frontier_s = 0.0;
  std::size_t frontier_replicates = 0;
  double steps = 0.0;
  double scan_calls = 0.0;
  double faults = 0.0;
  double steady_allocs = 0.0;
  double steady_days = 0.0;
  double campus_days = 0.0;
  TracedCampus campus;  // summed over traced campus replicates

  void add(const TracedWorld& t, double days) {
    for (std::size_t l = 0; l < kLayerCount; ++l) layer_s[l] += t.layer_s[l];
    hall_days += days;
    covered_s += t.covered_s;
    spanned_s += t.step_loop_s;
    traced_s += t.total_s;
    frontier_s += t.frontier_s;
    if (t.frontier.present()) ++frontier_replicates;
    steps += static_cast<double>(t.steps);
    scan_calls += static_cast<double>(t.scan_calls);
    for (const obs::SnapshotEntry& e : t.snapshot) {
      if (e.name == "fault_injected_total") faults += e.value;
    }
    steady_allocs += static_cast<double>(t.steady_allocs);
    steady_days += t.steady_days;
  }
  void add(const TracedCampus& t, double days) {
    campus_days += days;
    covered_s += t.chunk_s;
    spanned_s += t.wall_s;
    traced_s += t.wall_s;
    campus.coordinator_s += t.coordinator_s;
    campus.split.domain_busy_s += t.split.domain_busy_s;
    campus.split.straggler_s += t.split.straggler_s;
    campus.split.handoff_s += t.split.handoff_s;
    campus.barriers += t.barriers;
    campus.useful_barriers += t.useful_barriers;
    campus.messages += t.messages;
  }
};

struct Output {
  const char* name;
  double mean;
  double ci95;
};

struct CellRecord {
  std::string cell;
  std::size_t replicates = 0;
  std::vector<Output> outputs;
  std::uint64_t digest = 0;
};

[[nodiscard]] std::size_t find_result(const std::vector<runner::ReplicateResult>& results,
                                      std::size_t cell, std::uint64_t seed) {
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].cell == cell && results[i].seed == seed) return i;
  }
  return results.size();
}

// ---- the run -----------------------------------------------------------------

class Run {
 public:
  Run(Args args, int nproc) : args_{std::move(args)}, nproc_{nproc} {}

  int execute() {
    const Clock::time_point start = Clock::now();
    const auto budget = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(args_.seconds));
    w_ = make_workload(args_.workload, args_.seed, nproc_);

    // Set-up is short and noisy: repeat it for a fixed share of the budget.
    const Clock::time_point setup_start = Clock::now();
    for (int r = 0; r < kMinSetupReps || (Clock::now() - setup_start < budget / 20 && r < 100);
         ++r) {
      SetupStats st;
      const double before = host_slowdown();
      st.raw = time_setup(w_);
      st.slowdown = 0.5 * (before + host_slowdown());
      setups_.push_back(st);
    }
    spec_ = w_.build_spec();
    replicates_ = spec_.cells.size() * static_cast<std::size_t>(spec_.seeds);
    // Warm-up pass: first-touch page faults, per-thread malloc arenas and
    // idle cores waking up land here instead of in the first timed pass. Its
    // results are the reference every later pass must reproduce.
    one_pass(false);
    do {
      one_pass(true);
    } while (Clock::now() - start < budget);
    if (w_.shards > 1) sharded_pass();
    if (args_.trace) traced_run();

    print_header();
    print_record();
    print_counters();
    std::vector<Metric> metrics = args_.trace ? per_layer() : end_to_end();
    for (const Metric& m : metrics) {
      std::printf("%-10s %-44s %16.6f %s\n", args_.trace ? "per_layer" : "end_to_end",
                  m.name.c_str(), m.value, m.unit.c_str());
    }
    for (const std::string& e : errors_) std::printf("error %s\n", e.c_str());
    if (!args_.report.empty()) write_report(metrics);
    print_result(metrics);
    return failed_ == 0 && errors_.empty() ? 0 : 1;
  }

 private:
  void one_pass(bool timed) {
    SerialPass serial = run_serial(w_, spec_);
    ParallelPass parallel = run_parallel(spec_, w_.jobs, 1);
    attempted_ += 2 * replicates_;
    failed_ += serial.failed;
    failed_ += count_mismatches(serial.results, flatten(parallel.report), "jobs=1 vs jobs=N",
                                errors_);
    if (!timed) {
      reference_ = std::move(serial.results);
      warmup_parallel_ = std::move(parallel.report);
      return;
    }
    failed_ += count_mismatches(reference_, serial.results, "repeat pass vs first pass", errors_);
    std::vector<double> calibrated_ms;
    for (std::size_t i = 0; i < serial.ms_per_hall_day.size(); ++i) {
      calibrated_ms.push_back(serial.ms_per_hall_day[i] / serial.slowdown[i]);
    }
    PassStats s;
    s.serial_s = serial.total_s();
    s.parallel_s = parallel.wall_s;
    s.serial_slowdown = mean(serial.slowdown);
    s.parallel_slowdown = parallel.slowdown;
    s.raw_replicates_per_s =
        ratio(static_cast<double>(parallel.report.replicates_done), parallel.wall_s);
    s.replicates_per_s = s.raw_replicates_per_s * parallel.slowdown;
    s.raw_p50_ms = median(serial.ms_per_hall_day);
    s.p50_ms = median(calibrated_ms);
    s.tail = tail_percentile(calibrated_ms);
    s.speedup = ratio(s.serial_s / s.serial_slowdown, parallel.wall_s / parallel.slowdown);
    s.busy_frac = ratio(s.serial_s, static_cast<double>(w_.jobs) * parallel.wall_s);
    stats_.push_back(s);
    if (serial.results.size() == reference_.size()) serial_seconds_.push_back(serial.seconds);
  }

  /// Campus only: the grid once more at jobs=1, shards=N. Shard handoff
  /// latency swings with host load far more than compute speed does, so this
  /// pass feeds per-layer metrics (parallel_speedup is shards=N vs 1 here)
  /// and the shard-invariance check, not the end-to-end ones.
  void sharded_pass() {
    const ParallelPass sharded = run_parallel(spec_, 1, w_.shards);
    attempted_ += replicates_;
    failed_ += count_mismatches(reference_, flatten(sharded.report), "shards=1 vs shards=N",
                                errors_);
    sharded_wall_s_ = sharded.wall_s;
  }

  /// Median serial-pass time of reference_[i] over the timed passes.
  [[nodiscard]] double untraced_seconds(std::size_t i) const {
    std::vector<double> v;
    for (const std::vector<double>& pass : serial_seconds_) v.push_back(pass[i]);
    return median(v);
  }

  void check_traced_world(const TracedWorld& t, const std::vector<obs::SnapshotEntry>& reference,
                          const std::string& label) {
    ++attempted_;
    std::string why;
    if (!snapshots_match(reference, t.snapshot, why)) {
      ++failed_;
      errors_.push_back("traced " + label + " changed the obs snapshot: " + why);
    }
  }

  void traced_run() {
    const std::vector<runner::ReplicateResult>& ref = reference_;
    const std::uint64_t seed = spec_.first_seed;
    for (std::size_t c = 0; c < spec_.cells.size(); ++c) {
      const runner::CellSpec& cell = spec_.cells[c];
      const std::size_t i = find_result(ref, c, seed);
      if (i == ref.size()) continue;  // already counted as failed
      if (cell.is_campus()) {
        trace_campus_cell(c, cell, ref[i]);
        continue;
      }
      scenario::WorldConfig cfg = cell.config;
      cfg.seed = seed;
      const TracedWorld t = trace_world(cell.blueprint, std::move(cfg), spec_.duration,
                                        ref[i].obs_snapshot);
      check_traced_world(t, ref[i].obs_snapshot, cell.name);
      if (t.frontier.hash != ref[i].survivability.hash) {
        ++failed_;
        errors_.push_back("traced " + cell.name + " changed the survivability frontier");
      }
      traced_.add(t, w_.days);
      traced_.untraced_s += untraced_seconds(i);
    }
  }

  void trace_campus_cell(std::size_t c, const runner::CellSpec& cell,
                         const runner::ReplicateResult& ref) {
    const std::uint64_t seed = ref.seed;
    // Untraced reference at the same shard count.
    const Clock::time_point a = Clock::now();
    const runner::ReplicateResult plain =
        runner::SweepRunner::run_replicate(cell, c, seed, spec_.duration, false, w_.shards);
    traced_.untraced_s += seconds_between(a, Clock::now());
    ++attempted_;
    const TracedCampus t = trace_campus(cell, seed, spec_.duration, w_.shards);
    if (t.trace_hash != ref.trace_hash || plain.trace_hash != ref.trace_hash ||
        (!cell.config.survivability.enabled && t.metrics_hash != ref.metrics_hash)) {
      ++failed_;
      errors_.push_back("traced campus " + cell.name + " changed its trace or metrics hash");
    }
    traced_.add(t, w_.days);

    // Hall-level layers: each hall traced step by step as the standalone,
    // uncoupled World it runs inside the campus.
    for (std::size_t h = 0; h < cell.campus.halls.size(); ++h) {
      scenario::WorldConfig cfg = cell.config;
      cfg.seed = scenario::domain_seed(seed, h);
      std::vector<obs::SnapshotEntry> reference;
      {
        scenario::World plain_hall{cell.campus.halls[h], cfg};
        const Clock::time_point b = Clock::now();
        plain_hall.run_for(spec_.duration);
        traced_.untraced_s += seconds_between(b, Clock::now());
        if (const obs::Registry* reg = plain_hall.obs().metrics()) reference = reg->snapshot();
      }
      const TracedWorld th = trace_world(cell.campus.halls[h], cfg, spec_.duration, reference);
      check_traced_world(th, reference, cell.name + " hall " + std::to_string(h));
      traced_.add(th, w_.days);
    }
  }

  [[nodiscard]] double hall_days_per_pass() const {
    double d = 0.0;
    for (const runner::CellSpec& cell : spec_.cells) {
      d += w_.days * static_cast<double>(halls_of(cell)) * static_cast<double>(spec_.seeds);
    }
    return d;
  }

  [[nodiscard]] std::vector<Metric> end_to_end() const {
    std::vector<double> rps, p50, tail, setup;
    for (const PassStats& s : stats_) {
      rps.push_back(s.replicates_per_s);
      p50.push_back(s.p50_ms);
      tail.push_back(s.tail ? s.tail->value : 0.0);
    }
    for (const SetupStats& t : setups_) setup.push_back(t.total_s());
    // Host noise switches between fast and slow modes from one pass to the
    // next. A trimmed mean over passes follows the mix smoothly where a
    // median would jump between modes, and drops outlier passes.
    return {
        {"replicates_per_s", "1/s", trimmed_mean(rps)},
        {"replicate_ms_per_day.p50", "ms", trimmed_mean(p50)},
        {"replicate_ms_per_day.tail", "ms", trimmed_mean(tail)},
        {"setup_s", "s", median(setup)},
        {"peak_rss_mb", "MB", peak_rss_mb()},
    };
  }

  [[nodiscard]] std::vector<Metric> per_layer() const {
    const Counts n{reference_};
    const double hd = hall_days_per_pass();
    const auto per_day = [hd](double count) { return ratio(count, hd); };
    const TraceTotals& t = traced_;
    const auto layer_ms = [&t](Layer l) { return ratio(t.layer_s[l] * 1000.0, t.hall_days); };
    const double campus_days = t.campus_days;
    const auto campus_ms = [campus_days](double s) { return ratio(s * 1000.0, campus_days); };
    std::vector<double> busy, speedup, serial_s;
    for (const PassStats& s : stats_) {
      busy.push_back(s.busy_frac);
      speedup.push_back(s.speedup);
      serial_s.push_back(s.serial_s);
    }
    const double sharded_rps = ratio(static_cast<double>(replicates_), sharded_wall_s_);
    std::vector<double> topo, world;
    for (const SetupStats& s : setups_) {
      topo.push_back(s.raw.topology_s * 1000.0 / s.slowdown);
      world.push_back(
          ratio(s.raw.worlds_s * 1000.0 / s.slowdown, static_cast<double>(s.raw.replicates)));
    }
    double world_step_s = 0.0;
    for (const double s : t.layer_s) world_step_s += s;
    const double reads = n["storage_reads_total"];
    const double bad_reads = n["storage_degraded_reads_total"] + n["storage_unavailable_reads_total"];
    return {
        {"fault.scan.host_ms_per_day", "ms/day", layer_ms(kFaultScan)},
        {"fault.scan.calls_per_day", "1/day", ratio(t.scan_calls, t.hall_days)},
        {"fault.faults_per_day", "1/day", per_day(n["fault_injected_total"])},
        {"fault.scan.host_us_per_fault", "us/fault", ratio(t.layer_s[kFaultScan] * 1e6, t.faults)},
        {"fault.contamination.host_ms_per_day", "ms/day", layer_ms(kContamination)},
        {"fault.contamination.crossings_per_day", "1/day",
         per_day(n["contamination_degrade_crossings_total"] +
                 n["contamination_flap_crossings_total"])},
        {"fault.cascade.hops_per_day", "1/day", per_day(n["cascade_hops_total"])},
        {"fault.host_ms_per_day", "ms/day",
         layer_ms(kFaultScan) + layer_ms(kContamination) + layer_ms(kFaultOther)},
        {"telemetry.host_ms_per_day", "ms/day", layer_ms(kTelemetry)},
        {"telemetry.wakeups_per_day", "1/day", per_day(n["sim_wakeups_telemetry_total"])},
        {"core.host_ms_per_day", "ms/day", layer_ms(kCore)},
        {"core.wakeups_per_day", "1/day", per_day(n["sim_wakeups_ticket_total"])},
        {"core.dispatches_per_day", "1/day",
         per_day(n["controller_robot_dispatch_total"] +
                 n["controller_technician_dispatch_total"])},
        {"maintenance.host_ms_per_day", "ms/day", layer_ms(kMaintenance)},
        {"maintenance.wakeups_per_day", "1/day", per_day(n["sim_wakeups_technician_total"])},
        {"maintenance.tickets_opened_per_day", "1/day", per_day(n["tickets_opened_total"])},
        {"maintenance.technician_jobs_per_day", "1/day", per_day(n["technician_jobs_total"])},
        {"robotics.host_ms_per_day", "ms/day", layer_ms(kRobotics)},
        {"robotics.wakeups_per_day", "1/day", per_day(n["sim_wakeups_robot_total"])},
        {"robotics.jobs_per_day", "1/day", per_day(n["robot_jobs_total"])},
        {"storage.host_ms_per_day", "ms/day", layer_ms(kStorage)},
        {"storage.wakeups_per_day", "1/day", per_day(n["sim_wakeups_storage_total"])},
        {"storage.reads_per_day", "1/day", per_day(reads)},
        {"storage.clean_read_ratio", "ratio", reads > 0.0 ? 1.0 - bad_reads / reads : 0.0},
        {"storage.repairs_per_day", "1/day", per_day(n["storage_repairs_total"])},
        {"net.link_transitions_per_day", "1/day", per_day(n["net_link_transitions_total"])},
        {"net.unroutable_flows_per_day", "1/day", per_day(n["net_flows_unroutable_total"])},
        {"analysis.frontier_ms_per_replicate", "ms/replicate",
         ratio(t.frontier_s * 1000.0, static_cast<double>(t.frontier_replicates))},
        {"analysis.curve_points_per_replicate", "1/replicate",
         ratio(n["survivability_curve_points_total"], static_cast<double>(replicates_))},
        {"sim.events_per_day", "1/day", per_day(n["sim_events_total"])},
        {"sim.host_us_per_event", "us/event", ratio(world_step_s * 1e6, t.steps)},
        {"sim.other.host_ms_per_day", "ms/day", layer_ms(kSimOther)},
        {"sim.allocs_per_day", "1/day", ratio(t.steady_allocs, t.steady_days)},
        {"campus.barriers_per_day", "1/day",
         ratio(static_cast<double>(t.campus.barriers), campus_days)},
        {"campus.messages_per_day", "1/day",
         ratio(static_cast<double>(t.campus.messages), campus_days)},
        {"campus.useful_barrier_ratio", "ratio",
         ratio(static_cast<double>(t.campus.useful_barriers),
               static_cast<double>(t.campus.barriers))},
        {"campus.domain_busy_ms_per_day", "ms/day", campus_ms(t.campus.split.domain_busy_s)},
        {"campus.straggler_wait_ms_per_day", "ms/day", campus_ms(t.campus.split.straggler_s)},
        {"campus.handoff_ms_per_day", "ms/day", campus_ms(t.campus.split.handoff_s)},
        {"campus.coordinator_ms_per_day", "ms/day", campus_ms(t.campus.coordinator_s)},
        {"campus.sharded_replicates_per_s", "1/s", sharded_rps},
        {"runner.worker_busy_frac", "frac", median(busy)},
        {"parallel_speedup", "x",
         w_.shards > 1 ? ratio(median(serial_s), sharded_wall_s_) : median(speedup)},
        {"topology.build_ms", "ms", median(topo)},
        {"scenario.world_setup_ms", "ms/replicate", median(world)},
        {"trace.overhead_frac", "frac", ratio(t.traced_s, t.untraced_s)},
        {"trace.coverage_frac", "frac", ratio(t.covered_s, t.spanned_s)},
    };
  }

  void print_header() const {
    std::printf("perfbench workload=%s seed=%llu nproc=%d compiler=\"%s\" build=%s\n",
                w_.name.c_str(), static_cast<unsigned long long>(args_.seed), nproc_, __VERSION__,
                PERFBENCH_BUILD_TYPE);
    std::printf(
        "grid preset=%s cells=%zu seeds_per_cell=%llu first_seed=%llu days=%g replicates=%zu "
        "jobs=%d shards=%d passes=%zu setup_reps=%zu trace=%d\n",
        w_.preset.c_str(), spec_.cells.size(), static_cast<unsigned long long>(spec_.seeds),
        static_cast<unsigned long long>(spec_.first_seed), w_.days, replicates_, w_.jobs,
        w_.shards, stats_.size(), setups_.size(), args_.trace ? 1 : 0);
    const std::optional<Tail>& tail = stats_.front().tail;
    if (tail) {
      std::printf("tail replicate_ms_per_day.tail is p%.1f of n=%zu replicates per pass\n",
                  tail->percentile, tail->n);
    }
    std::printf(
        "model the simulator is not checked against any real-hardware reference; no "
        "model-error figure is reported\n");
  }

  /// Simulated outputs per cell of the warm-up parallel pass, with 95% CIs
  /// and a digest of every replicate's determinism signals. Speed-only
  /// changes leave all of it unchanged for a given seed.
  [[nodiscard]] std::vector<CellRecord> records() const {
    std::vector<CellRecord> out;
    for (std::size_t c = 0; c < warmup_parallel_.cells.size(); ++c) {
      const runner::CellReport& cell = warmup_parallel_.cells[c];
      const double hall_days = w_.days * static_cast<double>(halls_of(spec_.cells[c]));
      const auto output = [&cell](const char* name, runner::Metric m, double scale) {
        return Output{name, cell.stats[m].mean * scale, cell.stats[m].ci95 * scale};
      };
      out.push_back({cell.name,
                     cell.replicates.size(),
                     {output("availability", runner::kAvailability, 1.0),
                      output("nines", runner::kNines, 1.0),
                      output("faults_per_hall_day", runner::kFaultsInjected, 1.0 / hall_days),
                      output("tickets_per_hall_day", runner::kTicketsResolved, 1.0 / hall_days),
                      output("storage_repair_window_hours", runner::kStorageRepairWindowHours,
                             1.0)},
                     digest(cell)});
    }
    return out;
  }

  void print_record() const {
    for (const CellRecord& r : records()) {
      std::printf("record cell=\"%s\" n=%zu", r.cell.c_str(), r.replicates);
      for (const Output& o : r.outputs) std::printf(" %s=%.6g+-%.3g", o.name, o.mean, o.ci95);
      std::printf(" digest=%s\n", obs::JsonWriter::hex64(r.digest).c_str());
    }
    std::printf("record digest=%s\n", obs::JsonWriter::hex64(outputs_digest()).c_str());
  }

  [[nodiscard]] static std::uint64_t digest(const runner::CellReport& cell) {
    std::string bytes = cell.name;
    for (const runner::ReplicateResult& r : cell.replicates) {
      for (const std::uint64_t v : {r.seed, r.trace_hash, r.metrics_hash, r.events,
                                    r.survivability.hash}) {
        bytes.append(reinterpret_cast<const char*>(&v), sizeof v);
      }
    }
    return obs::fnv1a(bytes);
  }

  [[nodiscard]] std::uint64_t outputs_digest() const {
    runner::JsonOptions opts;
    opts.include_timing = false;
    return obs::fnv1a(runner::to_json(warmup_parallel_, opts));
  }

  /// Exact, machine-independent counts of the first serial pass: the same
  /// for every run of this (workload, seed), apart from any timed number.
  void print_counters() const {
    const Counts n{reference_};
    std::printf("counters workload=%s seed=%llu replicates=%zu hall_days=%g\n", w_.name.c_str(),
                static_cast<unsigned long long>(args_.seed), replicates_, hall_days_per_pass());
    for (const auto& [name, value] : n.all()) {
      if (name.size() > 6 && name.compare(name.size() - 6, 6, "_total") == 0) {
        std::printf("counter %s %.0f\n", name.c_str(), value);
      }
    }
  }

  void write_report(const std::vector<Metric>& metrics) const {
    obs::JsonWriter j;
    j.begin_object();
    j.kv("schema", "smn-perfbench-v1");
    j.kv("workload", w_.name);
    j.kv("seed", args_.seed);
    j.kv("trace", args_.trace);
    j.key("environment");
    j.begin_object();
    j.kv("nproc", nproc_);
    j.kv("compiler", __VERSION__);
    j.kv("build_type", PERFBENCH_BUILD_TYPE);
    j.end_object();
    j.key("grid");
    j.begin_object();
    j.kv("preset", w_.preset);
    j.kv("first_seed", spec_.first_seed);
    j.kv("seeds_per_cell", spec_.seeds);
    j.kv("days", w_.days);
    j.kv("replicates", replicates_);
    j.kv("jobs", w_.jobs);
    j.kv("shards", w_.shards);
    j.kv("passes", stats_.size());
    j.end_object();
    j.kv("model_validation",
         "none: the simulator is not checked against any real-hardware reference");
    j.key(args_.trace ? "per_layer" : "end_to_end");
    j.begin_object();
    for (const Metric& m : metrics) {
      j.key(m.name);
      j.begin_object();
      j.kv("value", m.value);
      j.kv("unit", m.unit);
      j.end_object();
    }
    j.end_object();
    j.key("passes");
    j.begin_array();
    for (const PassStats& s : stats_) {
      j.begin_object();
      j.kv("serial_s", s.serial_s);
      j.kv("parallel_s", s.parallel_s);
      j.kv("replicates_per_s", s.replicates_per_s);
      j.kv("p50_ms", s.p50_ms);
      j.kv("tail_ms", s.tail ? s.tail->value : 0.0);
      j.kv("tail_percentile", s.tail ? s.tail->percentile : 0.0);
      j.kv("speedup", s.speedup);
      j.kv("serial_slowdown", s.serial_slowdown);
      j.kv("parallel_slowdown", s.parallel_slowdown);
      j.kv("raw_replicates_per_s", s.raw_replicates_per_s);
      j.kv("raw_p50_ms", s.raw_p50_ms);
      j.end_object();
    }
    j.end_array();
    j.key("record");
    j.begin_array();
    for (const CellRecord& r : records()) {
      j.begin_object();
      j.kv("cell", r.cell);
      j.kv("replicates", r.replicates);
      for (const Output& o : r.outputs) {
        j.key(o.name);
        j.begin_object();
        j.kv("mean", o.mean);
        j.kv("ci95", o.ci95);
        j.end_object();
      }
      j.kv("digest", obs::JsonWriter::hex64(r.digest));
      j.end_object();
    }
    j.end_array();
    j.kv("outputs_digest", obs::JsonWriter::hex64(outputs_digest()));
    j.key("counters");
    j.begin_object();
    const Counts counts{reference_};
    for (const auto& [name, value] : counts.all()) j.kv(name, value);
    j.end_object();
    j.kv("attempted", attempted_);
    j.kv("failed", failed_);
    j.key("errors");
    j.begin_array();
    for (const std::string& e : errors_) j.value(e);
    j.end_array();
    j.end_object();
    std::ofstream out{args_.report, std::ios::binary};
    out << j.str() << '\n';
    if (!out.good()) std::fprintf(stderr, "perfbench: could not write %s\n", args_.report.c_str());
  }

  void print_result(const std::vector<Metric>& metrics) const {
    std::string line = "{\"correct\": ";
    line += failed_ == 0 && errors_.empty() ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted_);
    line += ", \"failed\": " + std::to_string(failed_);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(), finite(metrics[i].value),
                    metrics[i].unit.c_str());
      line += buf;
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
  }

  Args args_;
  int nproc_;
  Workload w_;
  runner::SweepSpec spec_;
  std::size_t replicates_ = 0;
  std::vector<SetupStats> setups_;
  std::vector<PassStats> stats_;
  std::vector<std::vector<double>> serial_seconds_;  // per timed pass, reference_ order
  double sharded_wall_s_ = 0.0;
  std::vector<runner::ReplicateResult> reference_;  // warm-up serial pass
  runner::SweepReport warmup_parallel_;
  TraceTotals traced_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> errors_;
};

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <hall-sweep|campus-shards|fabric-storage> "
                 "--seed <n> --seconds <s> --trace <0|1> [--report <file>]\n");
    return 2;
  }
  if (const char* why = refused_build()) {
    std::fprintf(stderr, "perfbench: refusing to time this build: %s\n", why);
    return 2;
  }
  if (!self_test()) return 3;
  try {
    Run run{*args, available_cpus()};
    return run.execute();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
