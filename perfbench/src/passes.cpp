// Set-up timing and the end-to-end passes. Every pass runs the same
// (cell, seed) grid; the serial one times every replicate on its own, the
// parallel one measures throughput at jobs=N, the campus's sharded one at
// jobs=1, shards=N.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <optional>

#include "perfbench.h"
#include "scenario/campus.h"

namespace perfbench {

SetupTiming time_setup(const Workload& w) {
  SetupTiming t;
  const Clock::time_point t0 = Clock::now();
  const runner::SweepSpec spec = w.build_spec();
  t.topology_s = seconds_between(t0, Clock::now());
  // Mirrors SweepRunner::run_replicate's construction; destruction is left
  // outside the timed span.
  for (const runner::CellSpec& cell : spec.cells) {
    for (std::uint64_t s = 0; s < spec.seeds; ++s) {
      const std::uint64_t seed = spec.first_seed + s;
      if (cell.is_campus()) {
        scenario::CampusConfig cfg = cell.campus_config;
        cfg.hall = cell.config;
        cfg.hall.seed = seed;
        std::optional<scenario::Campus> campus;
        const Clock::time_point a = Clock::now();
        campus.emplace(cell.campus, std::move(cfg));
        campus->start();
        t.worlds_s += seconds_between(a, Clock::now());
      } else {
        scenario::WorldConfig cfg = cell.config;
        cfg.seed = seed;
        std::optional<scenario::World> world;
        const Clock::time_point a = Clock::now();
        world.emplace(cell.blueprint, std::move(cfg));
        world->start();
        t.worlds_s += seconds_between(a, Clock::now());
      }
      ++t.replicates;
    }
  }
  return t;
}

double SerialPass::total_s() const {
  double total = 0.0;
  for (const double s : seconds) total += s;
  return total;
}

SerialPass run_serial(const Workload& w, const runner::SweepSpec& spec) {
  SerialPass pass;
  double before = host_slowdown();
  for (std::size_t c = 0; c < spec.cells.size(); ++c) {
    const runner::CellSpec& cell = spec.cells[c];
    const double hall_days = w.days * static_cast<double>(halls_of(cell));
    for (std::uint64_t s = 0; s < spec.seeds; ++s) {
      const std::uint64_t seed = spec.first_seed + s;
      const Clock::time_point a = Clock::now();
      try {
        pass.results.push_back(
            runner::SweepRunner::run_replicate(cell, c, seed, spec.duration, false, 1));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: replicate %s seed %llu threw: %s\n", cell.name.c_str(),
                     static_cast<unsigned long long>(seed), e.what());
        ++pass.failed;
        continue;
      }
      const double secs = seconds_between(a, Clock::now());
      const double after = host_slowdown();
      pass.seconds.push_back(secs);
      pass.ms_per_hall_day.push_back(secs * 1000.0 / hall_days);
      pass.slowdown.push_back(0.5 * (before + after));
      before = after;
    }
  }
  return pass;
}

ParallelPass run_parallel(const runner::SweepSpec& spec, int jobs, int shards) {
  runner::SweepRunner::Options opts;
  opts.jobs = jobs;
  opts.shards = shards;
  runner::SweepRunner sweeper;
  ParallelPass pass;
  const double before = host_slowdown(jobs);
  const Clock::time_point start = Clock::now();
  pass.report = sweeper.run(spec, opts);
  pass.wall_s = seconds_between(start, Clock::now());
  pass.slowdown = 0.5 * (before + host_slowdown(jobs));
  return pass;
}

std::vector<runner::ReplicateResult> flatten(const runner::SweepReport& report) {
  std::vector<runner::ReplicateResult> out;
  for (const runner::CellReport& cell : report.cells) {
    out.insert(out.end(), cell.replicates.begin(), cell.replicates.end());
  }
  return out;
}

std::size_t count_mismatches(const std::vector<runner::ReplicateResult>& a,
                             const std::vector<runner::ReplicateResult>& b, const char* what,
                             std::vector<std::string>& errors) {
  std::size_t mismatches = 0;
  std::size_t j = 0;
  for (const runner::ReplicateResult& ra : a) {
    while (j < b.size() && (b[j].cell < ra.cell || (b[j].cell == ra.cell && b[j].seed < ra.seed))) {
      ++j;
      ++mismatches;  // present only in b
    }
    const bool found = j < b.size() && b[j].cell == ra.cell && b[j].seed == ra.seed;
    if (!found || b[j].trace_hash != ra.trace_hash || b[j].metrics_hash != ra.metrics_hash ||
        b[j].events != ra.events || b[j].survivability.hash != ra.survivability.hash) {
      ++mismatches;
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s: cell %zu seed %llu %s", what, ra.cell,
                    static_cast<unsigned long long>(ra.seed),
                    found ? "differs" : "missing");
      errors.emplace_back(buf);
    }
    if (found) ++j;
  }
  mismatches += b.size() - std::min(j, b.size());
  return mismatches;
}

}  // namespace perfbench
