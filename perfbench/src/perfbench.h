// Shared declarations of the repo benchmark (perfbench).
//
// The benchmark drives the simulator only through its public APIs
// (runner::SweepRunner, scenario::World, scenario::Campus, the obs registry)
// and times its own calls into them; nothing inside src/ is instrumented.
// main.cpp orchestrates one run: set-up timing, repeated serial + parallel
// passes until the time budget is spent, and (with --trace 1) a separate
// traced run that splits host time by layer.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/survivability.h"
#include "obs/metrics.h"
#include "runner/sweep.h"
#include "scenario/world.h"

namespace perfbench {

using namespace smn;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- statistics -----------------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double mean(const std::vector<double>& v);
/// Mean of the values left after dropping the lowest and highest fifth.
[[nodiscard]] double trimmed_mean(std::vector<double> v);

/// The highest percentile of `v` that still has at least `kTailBeyond`
/// samples strictly above it in sorted order: the sample at sorted index
/// n - kTailBeyond - 1, labelled 100 * (n - kTailBeyond) / n. Empty when
/// n <= kTailBeyond.
inline constexpr std::size_t kTailBeyond = 10;
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t n = 0;
};
[[nodiscard]] std::optional<Tail> tail_percentile(std::vector<double> v);

// ---- host-speed calibration (calibration.cpp) ------------------------------

/// Nominal kernel time. Calibrated timings read as host time on a host where
/// the kernel takes this long (about its time on a quiet 4-vCPU Xeon VM).
inline constexpr double kCalibrationReference_s = 0.001;

/// Runs the calibration kernel on `threads` threads at once and returns
/// mean kernel time over kCalibrationReference_s: 1.0 on a quiet reference
/// host, 1.2 on a host running 20% slower right now.
[[nodiscard]] double host_slowdown(int threads = 1);

// ---- heap allocation counter (alloc_counter.cpp) --------------------------

/// Program-wide count of operator new calls since start-up.
[[nodiscard]] std::uint64_t allocations();

// ---- workloads (workloads.cpp) ---------------------------------------------

struct Workload {
  std::string name;
  std::string preset;  // runner::make_sweep preset the grid comes from
  std::uint64_t first_seed = 1;
  std::uint64_t seeds = 1;  // replicates per cell in one pass
  double days = 1.0;        // simulated days per replicate
  int jobs = 1;             // parallel pass: sweep worker threads
  int shards = 1;           // sharded pass (campus only): threads inside each replicate
  bool frontier = false;    // enable the survivability frontier on every cell

  /// Builds the grid: every blueprint plus per-cell configs. Timed as the
  /// topology part of set-up.
  [[nodiscard]] runner::SweepSpec build_spec() const;
};

/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed, int nproc);

[[nodiscard]] std::size_t halls_of(const runner::CellSpec& cell);

// ---- set-up and end-to-end passes (passes.cpp) ----------------------------

struct SetupTiming {
  double topology_s = 0.0;  // build_spec(): blueprints and configs
  double worlds_s = 0.0;    // construction + start() of every replicate, serially
  std::size_t replicates = 0;
  [[nodiscard]] double total_s() const { return topology_s + worlds_s; }
};
[[nodiscard]] SetupTiming time_setup(const Workload& w);

/// jobs=1 / shards=1: every replicate through SweepRunner::run_replicate on
/// the calling thread, each one timed between two calibration kernels.
/// Results are in (cell, seed) order; the vectors below share that order.
struct SerialPass {
  std::vector<runner::ReplicateResult> results;
  std::vector<double> seconds;          // wall time of each replicate
  std::vector<double> ms_per_hall_day;  // the same, per simulated hall-day
  std::vector<double> slowdown;         // host slowdown around each replicate
  std::size_t failed = 0;               // replicates that threw
  [[nodiscard]] double total_s() const;
};
[[nodiscard]] SerialPass run_serial(const Workload& w, const runner::SweepSpec& spec);

/// SweepRunner::run at the given width, between two runs of the
/// calibration kernel on `jobs` threads.
struct ParallelPass {
  runner::SweepReport report;
  double wall_s = 0.0;
  double slowdown = 1.0;
};
[[nodiscard]] ParallelPass run_parallel(const runner::SweepSpec& spec, int jobs, int shards);

/// Number of replicates whose determinism signals (trace hash, metrics hash,
/// event count, frontier hash) differ between the two sets; a replicate
/// missing from either side counts as a mismatch. Messages go to `errors`.
[[nodiscard]] std::size_t count_mismatches(const std::vector<runner::ReplicateResult>& a,
                                           const std::vector<runner::ReplicateResult>& b,
                                           const char* what, std::vector<std::string>& errors);
[[nodiscard]] std::vector<runner::ReplicateResult> flatten(const runner::SweepReport& report);

// ---- traced run (traced.cpp) -----------------------------------------------

/// Layers a World step is charged to. The two fault scans are identified by
/// the benchmark's own re-attached periodic callbacks; every other step by
/// the obs counter it moved (see attribute()).
enum Layer : std::size_t {
  kFaultScan = 0,
  kContamination,
  kFaultOther,
  kTelemetry,
  kCore,
  kMaintenance,
  kRobotics,
  kStorage,
  kSimOther,
  kLayerCount,
};

/// Obs counters watched around every step, in attribution priority order:
/// a FOM wakeup names the component whose event ran, so wakeups win over
/// the fault counters a repair or cascade may move on the way.
inline constexpr std::array<const char*, 7> kWatchedCounters = {
    "sim_wakeups_robot_total",     "sim_wakeups_technician_total",
    "sim_wakeups_ticket_total",    "sim_wakeups_storage_total",
    "sim_wakeups_telemetry_total", "fault_injected_total",
    "cascade_hops_total",
};
inline constexpr std::array<Layer, kWatchedCounters.size()> kWatchedLayers = {
    kRobotics, kMaintenance, kCore, kStorage, kTelemetry, kFaultOther, kFaultOther,
};
using CounterValues = std::array<std::uint64_t, kWatchedCounters.size()>;

/// Which scan callback (if any) ran inside the step.
enum class ScanTag : std::uint8_t { kNone, kFault, kContamination };

[[nodiscard]] Layer attribute(ScanTag tag, const CounterValues& before,
                              const CounterValues& after);

struct TracedWorld {
  std::array<double, kLayerCount> layer_s{};
  double step_loop_s = 0.0;   // wall time from the first step to the end of run_until
  double covered_s = 0.0;     // sum of step spans inside step_loop_s
  double total_s = 0.0;       // construction through snapshot (overhead numerator)
  double frontier_s = 0.0;
  std::uint64_t steps = 0;
  std::uint64_t scan_calls = 0;
  std::uint64_t steady_allocs = 0;  // operator new calls after the first simulated day
  double steady_days = 0.0;
  std::vector<obs::SnapshotEntry> snapshot;
  analysis::FrontierResult frontier;
};

/// Runs one World replicate step by step. `reference` is the untraced obs
/// snapshot of the same (config, seed): only instruments present there are
/// looked up, so the traced registry keeps the untraced schema.
[[nodiscard]] TracedWorld trace_world(const topology::Blueprint& bp, scenario::WorldConfig cfg,
                                      sim::Duration duration,
                                      const std::vector<obs::SnapshotEntry>& reference);

/// True when `traced` equals `untraced` except for exactly +1 on
/// sim_events_total (the traced run's horizon sentinel). Otherwise false,
/// with the first difference in `why`.
[[nodiscard]] bool snapshots_match(const std::vector<obs::SnapshotEntry>& untraced,
                                   const std::vector<obs::SnapshotEntry>& traced,
                                   std::string& why);

/// One executor call of a traced campus, split into wall and thread time.
struct TaskSpan {
  double start_s = 0.0;  // relative to the chunk's entry
  double end_s = 0.0;
  std::thread::id thread;
};
struct ChunkSplit {
  double domain_busy_s = 0.0;  // thread time inside domain tasks
  double straggler_s = 0.0;    // thread time participating shards wait for the busiest one
  double handoff_s = 0.0;      // chunk wall time not on the critical path (dispatch + join)
};
/// `wall_s` is the executor call's wall time; the critical path is the
/// busiest thread's summed task time.
[[nodiscard]] ChunkSplit split_chunk(double wall_s, const std::vector<TaskSpan>& spans);

struct TracedCampus {
  double wall_s = 0.0;  // run_for() wall time
  double chunk_s = 0.0;
  ChunkSplit split;
  double coordinator_s = 0.0;  // wall_s outside every chunk and the benchmark's bookkeeping
  std::uint64_t chunks = 0;
  std::uint64_t barriers = 0;
  std::uint64_t useful_barriers = 0;  // barriers that delivered at least one message
  std::uint64_t messages = 0;
  std::uint64_t trace_hash = 0;
  std::uint64_t metrics_hash = 0;
};
[[nodiscard]] TracedCampus trace_campus(const runner::CellSpec& cell, std::uint64_t seed,
                                        sim::Duration duration, int shards);

// ---- self-test (selftest.cpp) ----------------------------------------------

/// Checks the percentile, attribution and chunk-split code on fixed inputs.
/// Returns false (with messages on stderr) on the first failure.
[[nodiscard]] bool self_test();

}  // namespace perfbench
