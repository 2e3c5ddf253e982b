#include <algorithm>
#include <stdexcept>

#include "perfbench.h"
#include "runner/presets.h"

namespace perfbench {

Workload make_workload(const std::string& name, std::uint64_t seed, int nproc) {
  Workload w;
  w.name = name;
  // Disjoint replicate seed ranges per benchmark seed: a pass never uses
  // more than 1000 seeds per cell.
  w.first_seed = 1 + (seed % 1'000'000) * 1000;
  const int wide = std::clamp(nproc, 1, 4);
  if (name == "hall-sweep") {
    // E2 grid: the 144-link standard hall at L0-L4.
    w.preset = "availability";
    w.seeds = 8;
    w.days = 60.0;
    w.jobs = wide;
  } else if (name == "campus-shards") {
    // Four 16-link halls on a trunk ring at L3; one-minute epoch barriers.
    w.preset = "campus";
    w.seeds = 40;
    w.days = 8.0;
    w.jobs = wide;
    w.shards = wide;
  } else if (name == "fabric-storage") {
    // E19 grid: five fabrics x {human L0, robot L4}, storage data plane on,
    // plus the E20 link-failure frontier on every cell.
    w.preset = "storage";
    w.seeds = 4;
    w.days = 30.0;
    w.jobs = wide;
    w.frontier = true;
  } else {
    throw std::invalid_argument{"unknown workload '" + name +
                                "' (use hall-sweep|campus-shards|fabric-storage)"};
  }
  return w;
}

runner::SweepSpec Workload::build_spec() const {
  runner::SweepSpec spec = runner::make_sweep(preset, sim::Duration::days(days), first_seed, seeds);
  if (frontier) {
    for (runner::CellSpec& cell : spec.cells) {
      cell.config.survivability.enabled = true;
      cell.config.survivability.mode = analysis::FailureMode::kLinks;
    }
  }
  return spec;
}

std::size_t halls_of(const runner::CellSpec& cell) {
  return cell.is_campus() ? cell.campus.halls.size() : 1;
}

}  // namespace perfbench
