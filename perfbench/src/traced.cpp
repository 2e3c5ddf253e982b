// The traced run: host time split by layer, measured from outside src/.
//
// World: the benchmark re-attaches FaultInjector::step_once and
// ContaminationProcess::step_once through its own schedule_every (registered
// before World::start() in the original order, originals stopped after it),
// drives Simulator::step() up to a sentinel at the horizon, and times every
// step. A step is charged to the scan whose callback ran in it, else to the
// layer whose obs counter it moved, else to sim.other.
//
// Campus: the benchmark passes its own Campus::Executor over a ShardPool and
// times each chunk and each domain task on the thread that ran it.
#include <algorithm>
#include <cstdio>
#include <optional>

#include "perfbench.h"
#include "runner/shard_pool.h"
#include "scenario/campus.h"

namespace perfbench {
namespace {

[[nodiscard]] bool has_entry(const std::vector<obs::SnapshotEntry>& snap, const std::string& name) {
  return std::binary_search(
      snap.begin(), snap.end(), obs::SnapshotEntry{name, 0.0},
      [](const obs::SnapshotEntry& a, const obs::SnapshotEntry& b) { return a.name < b.name; });
}

/// Same post-run frontier as SweepRunner::run_replicate, recorded into the
/// same instruments so the traced snapshot stays comparable.
void record_frontier(obs::Registry& reg, const analysis::FrontierResult& f) {
  reg.counter("survivability_orderings_total")->inc(f.samples);
  reg.counter("survivability_curve_points_total")->inc(f.samples * (f.elements + 1));
  reg.gauge("survivability_elements")->set(static_cast<double>(f.elements));
  reg.gauge("survivability_auc_connectivity")->set(f.auc_connectivity);
  reg.gauge("survivability_auc_reachability")->set(f.auc_reachability);
  reg.gauge("survivability_auc_bisection")->set(f.auc_bisection);
}

}  // namespace

Layer attribute(ScanTag tag, const CounterValues& before, const CounterValues& after) {
  if (tag == ScanTag::kFault) return kFaultScan;
  if (tag == ScanTag::kContamination) return kContamination;
  for (std::size_t i = 0; i < kWatchedCounters.size(); ++i) {
    if (after[i] != before[i]) return kWatchedLayers[i];
  }
  return kSimOther;
}

TracedWorld trace_world(const topology::Blueprint& bp, scenario::WorldConfig cfg,
                        sim::Duration duration,
                        const std::vector<obs::SnapshotEntry>& reference) {
  TracedWorld out;
  const Clock::time_point begin = Clock::now();
  const std::uint64_t seed = cfg.seed;
  scenario::World world{bp, std::move(cfg)};
  sim::Simulator& sim = world.simulator();

  std::array<const obs::Counter*, kWatchedCounters.size()> watched{};
  if (obs::Registry* reg = world.obs().metrics()) {
    for (std::size_t i = 0; i < kWatchedCounters.size(); ++i) {
      // Registry::counter() registers missing names, which would change the
      // snapshot: only look up what the untraced run registered.
      if (has_entry(reference, kWatchedCounters[i])) watched[i] = reg->counter(kWatchedCounters[i]);
    }
  }
  const auto read_counters = [&watched] {
    CounterValues v{};
    for (std::size_t i = 0; i < watched.size(); ++i) v[i] = watched[i] ? watched[i]->value() : 0;
    return v;
  };

  ScanTag tag = ScanTag::kNone;
  sim.schedule_every(world.config().faults.step, [&world, &tag, &out] {
    tag = ScanTag::kFault;
    ++out.scan_calls;
    world.injector().step_once();
  });
  sim.schedule_every(world.config().contamination.step, [&world, &tag] {
    tag = ScanTag::kContamination;
    world.contamination().step_once();
  });
  world.start();
  world.injector().stop();
  world.contamination().stop();

  const sim::TimePoint horizon = sim.now() + duration;
  const sim::TimePoint warm = sim.now() + sim::Duration::days(1);
  bool sentinel = false;
  sim.schedule_at(horizon, [&sentinel] { sentinel = true; });

  std::optional<std::uint64_t> allocs_at_warm;
  CounterValues before = read_counters();
  const Clock::time_point loop_start = Clock::now();
  while (!sentinel) {
    if (!allocs_at_warm && sim.now() >= warm) allocs_at_warm = allocations();
    tag = ScanTag::kNone;
    const Clock::time_point a = Clock::now();
    const bool ran = sim.step();
    const Clock::time_point b = Clock::now();
    if (!ran) break;
    const double span = seconds_between(a, b);
    const CounterValues after = read_counters();
    out.layer_s[attribute(tag, before, after)] += span;
    out.covered_s += span;
    ++out.steps;
    before = after;
  }
  const std::uint64_t allocs_end = allocations();
  {
    // Events at exactly the horizon that were scheduled after the sentinel.
    const Clock::time_point a = Clock::now();
    sim.run_until(horizon);
    const double span = seconds_between(a, Clock::now());
    out.layer_s[kSimOther] += span;
    out.covered_s += span;
  }
  out.step_loop_s = seconds_between(loop_start, Clock::now());
  if (allocs_at_warm) {
    out.steady_allocs = allocs_end - *allocs_at_warm;
    out.steady_days = (horizon - warm).to_days();
  }
  world.check_invariants();

  const analysis::SurvivabilityConfig& sc = world.config().survivability;
  if (sc.enabled && sc.orderings > 0) {
    const Clock::time_point a = Clock::now();
    analysis::SurvivabilityFrontier frontier{bp};
    const std::vector<std::uint64_t> seeds = analysis::SurvivabilityFrontier::ordering_seeds(
        analysis::SurvivabilityFrontier::mix_seed(sc.seed, seed), sc.orderings);
    out.frontier = frontier.compute(sc.mode, seeds);
    out.frontier_s = seconds_between(a, Clock::now());
    if (obs::Registry* reg = world.obs().metrics()) record_frontier(*reg, out.frontier);
  }
  if (const obs::Registry* reg = world.obs().metrics()) out.snapshot = reg->snapshot();
  out.total_s = seconds_between(begin, Clock::now());
  return out;
}

bool snapshots_match(const std::vector<obs::SnapshotEntry>& untraced,
                     const std::vector<obs::SnapshotEntry>& traced, std::string& why) {
  if (untraced.size() != traced.size()) {
    why = "snapshot has " + std::to_string(traced.size()) + " entries, untraced " +
          std::to_string(untraced.size());
    return false;
  }
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    const obs::SnapshotEntry& u = untraced[i];
    const obs::SnapshotEntry& t = traced[i];
    const double expected = u.name == "sim_events_total" ? u.value + 1.0 : u.value;
    if (u.name != t.name || t.value != expected) {
      char buf[200];
      std::snprintf(buf, sizeof buf, "%s: traced %.17g, untraced %.17g", u.name.c_str(), t.value,
                    u.value);
      why = buf;
      return false;
    }
  }
  return true;
}

ChunkSplit split_chunk(double wall_s, const std::vector<TaskSpan>& spans) {
  ChunkSplit out;
  std::vector<std::pair<std::thread::id, double>> per_thread;
  for (const TaskSpan& s : spans) {
    const double d = s.end_s - s.start_s;
    out.domain_busy_s += d;
    auto it = std::find_if(per_thread.begin(), per_thread.end(),
                           [&s](const auto& p) { return p.first == s.thread; });
    if (it == per_thread.end()) {
      per_thread.emplace_back(s.thread, d);
    } else {
      it->second += d;
    }
  }
  double critical = 0.0;
  for (const auto& p : per_thread) critical = std::max(critical, p.second);
  for (const auto& p : per_thread) out.straggler_s += critical - p.second;
  out.handoff_s = std::max(0.0, wall_s - critical);
  return out;
}

TracedCampus trace_campus(const runner::CellSpec& cell, std::uint64_t seed,
                          sim::Duration duration, int shards) {
  scenario::CampusConfig cfg = cell.campus_config;
  cfg.hall = cell.config;
  cfg.hall.seed = seed;
  scenario::Campus campus{cell.campus, std::move(cfg)};
  campus.start();
  runner::ShardPool pool{shards};

  TracedCampus out;
  std::vector<TaskSpan> spans;
  // Timing wrappers, built once and pointed at each chunk's task vector, so
  // the benchmark adds no allocation per chunk.
  std::vector<scenario::Campus::Task> wrapped;
  std::vector<scenario::Campus::Task>* current = nullptr;
  Clock::time_point enter;
  double bookkeeping_s = 0.0;  // the benchmark's own work between chunks
  std::uint64_t seen_barriers = 0;
  std::uint64_t seen_messages = 0;
  // One exchange runs between two executor calls; note whether it moved
  // anything.
  const auto observe_barriers = [&] {
    if (campus.barriers_passed() != seen_barriers && campus.messages_exchanged() != seen_messages) {
      ++out.useful_barriers;
    }
    seen_barriers = campus.barriers_passed();
    seen_messages = campus.messages_exchanged();
  };
  const scenario::Campus::Executor exec = [&](std::vector<scenario::Campus::Task>& tasks) {
    const Clock::time_point book = Clock::now();
    observe_barriers();
    enter = Clock::now();
    bookkeeping_s += seconds_between(book, enter);
    current = &tasks;
    if (wrapped.size() != tasks.size()) {
      spans.resize(tasks.size());
      wrapped.clear();
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        wrapped.emplace_back([&current, &spans, &enter, i] {
          TaskSpan& s = spans[i];
          s.thread = std::this_thread::get_id();
          s.start_s = seconds_between(enter, Clock::now());
          (*current)[i]();
          s.end_s = seconds_between(enter, Clock::now());
        });
      }
    }
    pool.run(wrapped);
    const Clock::time_point exit = Clock::now();
    const double wall = seconds_between(enter, exit);
    const ChunkSplit split = split_chunk(wall, spans);
    out.chunk_s += wall;
    out.split.domain_busy_s += split.domain_busy_s;
    out.split.straggler_s += split.straggler_s;
    out.split.handoff_s += split.handoff_s;
    ++out.chunks;
    bookkeeping_s += seconds_between(exit, Clock::now());
  };

  const Clock::time_point start = Clock::now();
  campus.run_for(duration, exec);
  out.wall_s = seconds_between(start, Clock::now());
  observe_barriers();
  out.coordinator_s = std::max(0.0, out.wall_s - out.chunk_s - bookkeeping_s);
  out.barriers = campus.barriers_passed();
  out.messages = campus.messages_exchanged();
  campus.check_invariants();
  out.trace_hash = campus.trace_hash();
  out.metrics_hash = campus.metrics_hash();
  return out;
}

}  // namespace perfbench
