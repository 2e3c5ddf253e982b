// smn_sim — command-line scenario runner.
//
// Builds a topology, runs a self-maintaining world at a chosen automation
// level for N simulated days, prints a summary, and optionally dumps a
// time-series CSV for plotting.
//
//   smn_sim --topology leaf-spine --level L3 --days 60 --seed 7
//   smn_sim --topology gpu --level L0 --days 30 --csv run.csv
//   smn_sim --topology fat-tree --k 8 --level L4 --proactive off
//
// Flags (defaults in brackets):
//   --topology leaf-spine|fat-tree|jellyfish|xpander|gpu|hybrid [leaf-spine]
//   --level L0|L1|L2|L3|L4                                 [L3]
//   --days N                                               [60]
//   --seed N                                               [1]
//   --leaves N --spines N --servers N --uplinks N          [12 4 8 1]
//   --k N                 (fat-tree)                       [8]
//   --switches N --degree N (jellyfish/xpander)            [32 8]
//   --gpus N --rails N    (gpu)                            [16 8]
//   --neighbors N --rewire F (hybrid ring-lattice: Watts-Strogatz
//                         lattice degree and rewiring beta)    [4 0.1]
//   --proactive on|off                                     [per level]
//   --impact-aware on|off                                  [per level]
//   --storage on|off      enable the SNS-repair storage data plane
//                         (striped objects, degraded reads, fabric-
//                         throttled background reconstruction)   [off]
//   --csv FILE            write hourly time series
//   --metrics FILE        write the obs metrics registry in Prometheus text
//                         exposition format after the run
//   --trace FILE          enable structured tracing and write Chrome
//                         trace_event JSON (load in Perfetto / chrome://tracing)
//   --audit-determinism   run every topology preset three times with the same
//                         seed — twice with observability on, once with it
//                         off — and fail (exit 1) if any executed-event trace
//                         hash diverges or the two obs-on metrics-snapshot
//                         hashes differ; every preset is audited both plain
//                         and with the storage data plane enabled, and a
//                         survivability dimension runs each fabric twice
//                         plain and twice with the frontier computed — the
//                         four trace hashes must agree (the frontier is a
//                         pure observer) and the two frontier curve hashes
//                         must reproduce bit-for-bit; honors
//                         --level/--seed/--days (days defaults to 10 in
//                         audit mode)
//
// Subcommand: `smnctl analyze` — static fabric analysis, no simulation.
// `--survivability` computes Couto-style progressive-failure frontiers
// (largest-component, server-reachability, and bisection-proxy curves vs %
// elements failed, mean over seeded orderings) via the incremental
// reverse-replay union-find engine in src/analysis/survivability.h:
//
//   smnctl analyze --survivability                      # all preset fabrics
//   smnctl analyze --survivability --topology fat-tree --mode links
//   smnctl analyze --survivability --orderings 64 --json frontier.json
//
// Analyze flags (defaults in brackets):
//   --survivability       compute progressive-failure frontier curves
//   --topology X          one fabric (accepts the same topology flags as the
//                         runner, plus hybrid); default: the five audit
//                         fabrics + hybrid beta=0.1/0.5
//   --mode links|switches|both   which elements fail           [both]
//   --orderings N         seeded failure orderings per curve   [32]
//   --seed N              ordering seed base                   [1]
//   --json FILE           write smn-survivability-v1 JSON with the full
//                         mean/ci95 curve arrays per fabric x mode
//
// Subcommand: `smnctl sweep` — the parallel Monte-Carlo sweep engine
// (src/runner). Runs a named grid of worlds across a seed range on all
// cores and emits the machine-readable smn-sweep-v1 JSON report:
//
//   smnctl sweep --preset availability --seeds 32 --days 45 --jobs 8
//                --json sweep.json
//
// Sweep flags (defaults in brackets):
//   --preset availability|topologies|quick|campus|storage|
//            storage-quick|storage-campus|survivability  [availability]
//   --seeds N             replicates per cell                [8]
//   --first-seed N                                           [1]
//   --days N              simulated days per replicate       [30]
//   --jobs J              worker threads, 0 = all cores      [0]
//   --shards N            worker threads per campus replicate (one per hall
//                         domain, epoch-barrier synchronized); results are
//                         byte-identical at any value        [1]
//   --json FILE           write the JSON report
//   --no-timing           omit timing fields from the JSON so byte-level
//                         diffs across jobs and shards counts are meaningful
//   --sample-traces       trace one replicate per cell (the lowest seed) and
//                         embed its trace hash + file name in the JSON
//   --trace-dir DIR       where --sample-traces writes the trace files  [.]
//   --quiet               suppress per-replicate progress
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "analysis/cost.h"
#include "analysis/report.h"
#include "analysis/stats.h"
#include "analysis/survivability.h"
#include "analysis/timeseries.h"
#include "obs/json_writer.h"
#include "runner/presets.h"
#include "runner/sweep.h"
#include "scenario/world.h"
#include "storage/data_plane.h"
#include "topology/builders.h"

namespace {

using namespace smn;

struct Args {
  std::map<std::string, std::string> kv;

  [[nodiscard]] std::string get(const std::string& key, const std::string& dflt) const {
    const auto it = kv.find(key);
    return it == kv.end() ? dflt : it->second;
  }
  [[nodiscard]] int geti(const std::string& key, int dflt) const {
    const auto it = kv.find(key);
    return it == kv.end() ? dflt : std::atoi(it->second.c_str());
  }
  [[nodiscard]] double getd(const std::string& key, double dflt) const {
    const auto it = kv.find(key);
    return it == kv.end() ? dflt : std::atof(it->second.c_str());
  }
  [[nodiscard]] bool onoff(const std::string& key, bool dflt) const {
    const auto it = kv.find(key);
    if (it == kv.end()) return dflt;
    return it->second == "on" || it->second == "true" || it->second == "1";
  }
  [[nodiscard]] bool has(const std::string& key) const { return kv.contains(key); }
};

topology::Blueprint build_topology(const Args& args) {
  const std::string kind = args.get("topology", "leaf-spine");
  if (kind == "leaf-spine") {
    return topology::build_leaf_spine({.leaves = args.geti("leaves", 12),
                                       .spines = args.geti("spines", 4),
                                       .servers_per_leaf = args.geti("servers", 8),
                                       .uplinks_per_spine = args.geti("uplinks", 1)});
  }
  if (kind == "fat-tree") {
    return topology::build_fat_tree({.k = args.geti("k", 8)});
  }
  if (kind == "jellyfish") {
    return topology::build_jellyfish(
        {.switches = args.geti("switches", 32),
         .network_degree = args.geti("degree", 8),
         .servers_per_switch = args.geti("servers", 4),
         .seed = static_cast<std::uint64_t>(args.geti("seed", 1))});
  }
  if (kind == "xpander") {
    return topology::build_xpander(
        {.network_degree = args.geti("degree", 7),
         .lift = args.geti("lift", 4),
         .servers_per_switch = args.geti("servers", 4),
         .seed = static_cast<std::uint64_t>(args.geti("seed", 1))});
  }
  if (kind == "gpu") {
    return topology::build_gpu_cluster({.gpu_servers = args.geti("gpus", 16),
                                        .rails = args.geti("rails", 8),
                                        .spines = args.geti("spines", 2)});
  }
  if (kind == "hybrid") {
    return topology::build_hybrid(
        {.switches = args.geti("switches", 32),
         .lattice_neighbors = args.geti("neighbors", 4),
         .rewire_fraction = args.getd("rewire", 0.1),
         .servers_per_switch = args.geti("servers", 4),
         .seed = static_cast<std::uint64_t>(args.geti("seed", 1))});
  }
  throw std::invalid_argument{"unknown --topology " + kind};
}

core::AutomationLevel parse_level(const std::string& s) {
  if (s == "L0") return core::AutomationLevel::kL0_Manual;
  if (s == "L1") return core::AutomationLevel::kL1_OperatorAssist;
  if (s == "L2") return core::AutomationLevel::kL2_PartialAutomation;
  if (s == "L3") return core::AutomationLevel::kL3_HighAutomation;
  if (s == "L4") return core::AutomationLevel::kL4_FullAutomation;
  throw std::invalid_argument{"unknown --level " + s + " (use L0..L4)"};
}

scenario::WorldConfig world_config(const Args& args, core::AutomationLevel level) {
  scenario::WorldConfig cfg = scenario::WorldConfig::for_level(level);
  cfg.seed = static_cast<std::uint64_t>(args.geti("seed", 1));
  cfg.network.aoc_max_m = 5.0;
  if (args.has("proactive")) {
    cfg.controller.proactive.enabled = args.onoff("proactive", false);
  }
  if (args.has("impact-aware")) {
    cfg.controller.impact_aware = args.onoff("impact-aware", true);
  }
  // `--storage on`: the SNS-repair data plane with the E19 layout (8+2
  // groups, fabric-throttled background reconstruction).
  if (args.onoff("storage", false)) {
    cfg.storage = runner::storage_world(level, cfg.seed).storage;
  }
  // Tracing is opt-in per run: the buffer is only allocated (and the trace
  // instrumentation only records) when the caller asked for an output file.
  if (args.has("trace")) cfg.obs.trace = true;
  return cfg;
}

// The determinism audit (DESIGN.md "deterministic by construction"): every
// topology preset is simulated three times from identical configs — twice
// with observability on, once with it off entirely. All three per-event trace
// hashes must match bit-for-bit (instrumentation observes the event stream,
// never perturbs it), and the two obs-on runs must produce bit-identical
// metrics-snapshot hashes (the instrumentation itself is reproducible). Any
// divergence — hash-order iteration, an uninitialized read, a wall-clock
// leak, a metric fed from nondeterministic state — fails the audit.
int run_determinism_audit(const Args& args) {
  const core::AutomationLevel level = parse_level(args.get("level", "L3"));
  const int days = args.geti("days", 10);
  static const char* const kPresets[] = {"leaf-spine", "fat-tree", "jellyfish", "xpander",
                                         "gpu"};
  std::printf("determinism audit: level %s, %d days, seed %d\n", core::to_string(level), days,
              args.geti("seed", 1));
  bool ok = true;
  // Every preset runs twice over: plain, and with the SNS-repair storage
  // data plane enabled — the subsystem's reads, repairs, and throttle
  // updates must be as reproducible as everything else.
  for (const bool with_storage : {false, true}) {
    for (const char* preset : kPresets) {
      Args preset_args = args;
      preset_args.kv["topology"] = preset;
      preset_args.kv["storage"] = with_storage ? "on" : "off";
      const topology::Blueprint bp = build_topology(preset_args);
      std::uint64_t hash[3] = {};
      std::uint64_t events[3] = {};
      std::uint64_t metrics[3] = {};
      for (int run = 0; run < 3; ++run) {
        scenario::WorldConfig cfg = world_config(preset_args, level);
        // Runs 0/1: full observability. Run 2: everything off, proving the
        // instrumentation never feeds back into RNG draws or event order.
        cfg.obs = run < 2 ? obs::Options{} : obs::Options::disabled();
        scenario::World world{bp, cfg};
        world.run_for(sim::Duration::days(days));
        world.check_invariants();
        hash[run] = world.simulator().trace_hash();
        events[run] = world.simulator().events_processed();
        metrics[run] = world.obs().metrics_hash();
      }
      const bool trace_match = hash[0] == hash[1] && hash[1] == hash[2] &&
                               events[0] == events[1] && events[1] == events[2];
      const bool metrics_match = metrics[0] == metrics[1];
      ok = ok && trace_match && metrics_match;
      const std::string label = std::string{preset} + (with_storage ? "+storage" : "");
      std::printf("  %-19s %10llu events  trace %016llx/%016llx/%016llx %s  metrics %016llx/%016llx %s\n",
                  label.c_str(), static_cast<unsigned long long>(events[0]),
                  static_cast<unsigned long long>(hash[0]),
                  static_cast<unsigned long long>(hash[1]),
                  static_cast<unsigned long long>(hash[2]), trace_match ? "OK" : "DIVERGED",
                  static_cast<unsigned long long>(metrics[0]),
                  static_cast<unsigned long long>(metrics[1]), metrics_match ? "OK" : "DIVERGED");
    }
  }
  // Survivability dimension: each fabric runs twice plain and twice with the
  // frontier computed (exactly what the sweep runner does post-run). All four
  // trace hashes must agree — computing curves is a pure observation of the
  // blueprint, never of the simulation — and the two frontier computations
  // must reproduce identical curve hashes in both failure modes.
  std::printf("  survivability frontier (pure observer + curve reproducibility):\n");
  for (const char* preset : kPresets) {
    Args preset_args = args;
    preset_args.kv["topology"] = preset;
    const topology::Blueprint bp = build_topology(preset_args);
    std::uint64_t trace[4] = {};
    std::uint64_t links_hash[2] = {};
    std::uint64_t switches_hash[2] = {};
    for (int run = 0; run < 4; ++run) {
      scenario::WorldConfig cfg = world_config(preset_args, level);
      const bool with_frontier = run >= 2;
      cfg.survivability.enabled = with_frontier;
      scenario::World world{bp, cfg};
      world.run_for(sim::Duration::days(days));
      world.check_invariants();
      trace[run] = world.simulator().trace_hash();
      if (with_frontier) {
        analysis::SurvivabilityFrontier frontier{bp};
        analysis::SurvivabilityConfig scfg = cfg.survivability;
        scfg.mode = analysis::FailureMode::kLinks;
        links_hash[run - 2] = frontier.compute(scfg).hash;
        scfg.mode = analysis::FailureMode::kSwitches;
        switches_hash[run - 2] = frontier.compute(scfg).hash;
      }
    }
    const bool trace_match = trace[0] == trace[1] && trace[1] == trace[2] &&
                             trace[2] == trace[3];
    const bool curve_match =
        links_hash[0] == links_hash[1] && switches_hash[0] == switches_hash[1];
    ok = ok && trace_match && curve_match;
    std::printf("  %-19s trace %016llx x4 %s  curves links %016llx/%016llx switches "
                "%016llx/%016llx %s\n",
                preset, static_cast<unsigned long long>(trace[0]),
                trace_match ? "OK" : "DIVERGED",
                static_cast<unsigned long long>(links_hash[0]),
                static_cast<unsigned long long>(links_hash[1]),
                static_cast<unsigned long long>(switches_hash[0]),
                static_cast<unsigned long long>(switches_hash[1]),
                curve_match ? "OK" : "DIVERGED");
  }
  if (!ok) {
    std::fprintf(stderr, "determinism audit FAILED: trace or metrics hashes diverged\n");
    return 1;
  }
  std::printf(
      "determinism audit passed: traces identical with obs on/off, metrics and "
      "survivability curves reproduce\n");
  return 0;
}

/// Flags that take no value.
[[nodiscard]] bool is_boolean_flag(const std::string& key) {
  return key == "audit-determinism" || key == "quiet" || key == "no-timing" ||
         key == "sample-traces" || key == "survivability";
}

// Parses `--key value` pairs (and bare boolean flags) from argv[start..).
// Returns 0 on success, 2 on a usage error, and sets `args.kv["help"]` when
// --help was requested.
int parse_flags(int argc, char** argv, int start, Args& args) {
  for (int i = start; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
      return 2;
    }
    const std::string key = argv[i] + 2;
    if (key == "help") {
      args.kv["help"] = "on";
      return 0;
    }
    if (is_boolean_flag(key)) {
      args.kv[key] = "on";
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for --%s\n", key.c_str());
      return 2;
    }
    args.kv[key] = argv[++i];
  }
  return 0;
}

// `smnctl sweep`: run a preset Monte-Carlo grid on the worker pool and emit
// the smn-sweep-v1 JSON report.
int run_sweep(const Args& args) {
  const std::string preset = args.get("preset", "availability");
  const int days = args.geti("days", 30);
  const auto seeds = static_cast<std::uint64_t>(args.geti("seeds", 8));
  const auto first_seed = static_cast<std::uint64_t>(args.geti("first-seed", 1));
  const int jobs = args.geti("jobs", 0);
  const int shards = args.geti("shards", 1);
  const bool quiet = args.onoff("quiet", false);

  const runner::SweepSpec spec =
      runner::make_sweep(preset, sim::Duration::days(days), first_seed, seeds);
  std::printf("sweep: preset %s, %zu cells x %llu seeds, %d days, jobs %s, shards %d\n",
              preset.c_str(), spec.cells.size(), static_cast<unsigned long long>(seeds), days,
              jobs == 0 ? "auto" : std::to_string(jobs).c_str(), shards < 1 ? 1 : shards);

  runner::SweepRunner sweeper;
  runner::SweepRunner::Options opts;
  opts.jobs = jobs;
  opts.shards = shards;
  opts.sample_traces = args.onoff("sample-traces", false);
  if (!quiet) {
    opts.on_result = [&](const runner::ReplicateResult& r, std::size_t done,
                         std::size_t total) {
      std::printf("  [%zu/%zu] %s seed %llu  trace %s\n", done, total,
                  spec.cells[r.cell].name.c_str(), static_cast<unsigned long long>(r.seed),
                  obs::JsonWriter::hex64(r.trace_hash).c_str());
    };
  }
  const runner::SweepReport report = sweeper.run(spec, opts);

  using analysis::Table;
  Table table{{"cell", "n", "avail mean", "ci95", "down lh", "backlog", "cost $/yr"}};
  for (const runner::CellReport& cell : report.cells) {
    table.add_row({cell.name, Table::num(cell.replicates.size()),
                   Table::num(cell.stats[runner::kAvailability].mean, 6),
                   Table::num(cell.stats[runner::kAvailability].ci95, 6),
                   Table::num(cell.stats[runner::kDowntimeLinkHours].mean, 1),
                   Table::num(cell.stats[runner::kOpenBacklog].mean, 1),
                   Table::num(cell.stats[runner::kAnnualCostUsd].mean, 0)});
  }
  table.print(std::cout);
  std::printf("%zu/%zu replicates in %.2fs (%.2f replicates/sec, jobs=%d)\n",
              report.replicates_done, report.replicates_total, report.wall_seconds,
              report.replicates_per_sec, report.jobs);

  if (args.has("json")) {
    const std::string path = args.get("json", "sweep.json");
    std::ofstream out{path};
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
      return 1;
    }
    runner::JsonOptions jopts;
    jopts.include_timing = !args.onoff("no-timing", false);
    out << runner::to_json(report, jopts) << '\n';
    std::printf("report written to %s\n", path.c_str());
  }
  if (opts.sample_traces) {
    const std::string dir = args.get("trace-dir", ".");
    if (!runner::write_sampled_traces(report, dir)) return 1;
    for (const runner::CellReport& cell : report.cells) {
      for (const runner::ReplicateResult& r : cell.replicates) {
        if (r.sampled_trace_json.empty()) continue;
        std::printf("sampled trace %s/%s (hash %s)\n", dir.c_str(),
                    runner::sampled_trace_filename(cell.name, r.seed).c_str(),
                    obs::JsonWriter::hex64(r.sampled_trace_hash).c_str());
      }
    }
  }
  return 0;
}

// `smnctl analyze --survivability`: progressive-failure frontier summary rows
// for one fabric or the whole preset family — static analysis of the
// blueprint, no simulation involved.
int run_analyze(const Args& args) {
  if (!args.onoff("survivability", false)) {
    std::fprintf(stderr, "analyze: nothing to analyze (pass --survivability)\n");
    return 2;
  }
  analysis::SurvivabilityConfig scfg;
  scfg.enabled = true;
  scfg.orderings = args.geti("orderings", 32);
  scfg.seed = static_cast<std::uint64_t>(args.geti("seed", 1));

  std::vector<analysis::FailureMode> modes;
  const std::string mode_arg = args.get("mode", "both");
  if (mode_arg == "links") {
    modes = {analysis::FailureMode::kLinks};
  } else if (mode_arg == "switches" || mode_arg == "devices") {
    modes = {analysis::FailureMode::kSwitches};
  } else if (mode_arg == "both") {
    modes = {analysis::FailureMode::kLinks, analysis::FailureMode::kSwitches};
  } else {
    std::fprintf(stderr, "unknown --mode %s (use links|switches|both)\n", mode_arg.c_str());
    return 2;
  }

  struct Fabric {
    std::string name;
    topology::Blueprint bp;
  };
  std::vector<Fabric> fabrics;
  if (args.has("topology")) {
    fabrics.push_back({args.get("topology", "leaf-spine"), build_topology(args)});
  } else {
    // The five audit fabrics plus the two hybrid dials — the E20 family.
    for (const char* preset : {"leaf-spine", "fat-tree", "jellyfish", "xpander", "gpu"}) {
      Args preset_args = args;
      preset_args.kv["topology"] = preset;
      fabrics.push_back({preset, build_topology(preset_args)});
    }
    for (const double beta : {0.1, 0.5}) {
      Args hybrid_args = args;
      hybrid_args.kv["topology"] = "hybrid";
      hybrid_args.kv["rewire"] = beta == 0.1 ? "0.1" : "0.5";
      fabrics.push_back({"hybrid-" + hybrid_args.kv["rewire"], build_topology(hybrid_args)});
    }
  }

  using analysis::Table;
  Table table{{"fabric", "mode", "elem", "conn@25%", "conn@50%", "reach@25%", "reach@50%",
               "bisec@50%", "auc conn", "auc reach", "auc bisec", "curve hash"}};
  obs::JsonWriter w;
  w.begin_object();
  w.kv("schema", "smn-survivability-v1");
  w.kv("orderings", static_cast<std::int64_t>(scfg.orderings));
  w.kv("seed", scfg.seed);
  w.key("fabrics");
  w.begin_array();
  for (Fabric& f : fabrics) {
    analysis::SurvivabilityFrontier frontier{f.bp};
    for (const analysis::FailureMode mode : modes) {
      analysis::SurvivabilityConfig cfg = scfg;
      cfg.mode = mode;
      const analysis::FrontierResult r = frontier.compute(cfg);
      table.add_row({f.name, analysis::to_string(mode), Table::num(r.elements),
                     Table::num(analysis::curve_value_at(r.largest_component, 0.25), 4),
                     Table::num(analysis::curve_value_at(r.largest_component, 0.50), 4),
                     Table::num(analysis::curve_value_at(r.server_reachability, 0.25), 4),
                     Table::num(analysis::curve_value_at(r.server_reachability, 0.50), 4),
                     Table::num(analysis::curve_value_at(r.bisection, 0.50), 4),
                     Table::num(r.auc_connectivity, 4), Table::num(r.auc_reachability, 4),
                     Table::num(r.auc_bisection, 4), obs::JsonWriter::hex64(r.hash)});
      w.begin_object();
      w.kv("fabric", f.name);
      w.kv("mode", analysis::to_string(mode));
      w.kv("elements", r.elements);
      w.kv("devices", r.devices);
      w.kv("servers", r.servers);
      w.kv("auc_connectivity", r.auc_connectivity);
      w.kv("auc_reachability", r.auc_reachability);
      w.kv("auc_bisection", r.auc_bisection);
      w.kv("hash", obs::JsonWriter::hex64(r.hash));
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
      emit_curve("largest_component", r.largest_component);
      emit_curve("server_reachability", r.server_reachability);
      emit_curve("bisection", r.bisection);
      w.end_object();
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
  table.print(std::cout);

  if (args.has("json")) {
    const std::string path = args.get("json", "survivability.json");
    std::ofstream out{path};
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
      return 1;
    }
    out << w.str() << '\n';
    std::printf("frontier curves written to %s\n", path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  const bool is_sweep = argc > 1 && std::strcmp(argv[1], "sweep") == 0;
  const bool is_analyze = argc > 1 && std::strcmp(argv[1], "analyze") == 0;
  if (parse_flags(argc, argv, (is_sweep || is_analyze) ? 2 : 1, args) != 0) return 2;
  if (args.has("help")) {
    std::printf("see the header of tools/smn_sim.cpp for flags\n");
    return 0;
  }
  if (is_sweep || is_analyze) {
    try {
      return is_sweep ? run_sweep(args) : run_analyze(args);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }

  try {
    if (args.onoff("audit-determinism", false)) {
      return run_determinism_audit(args);
    }
    const topology::Blueprint bp = build_topology(args);
    const core::AutomationLevel level = parse_level(args.get("level", "L3"));
    const int days = args.geti("days", 60);

    scenario::World world{bp, world_config(args, level)};

    analysis::TimeSeriesRecorder recorder{world.simulator(), sim::Duration::hours(1)};
    const bool want_csv = args.has("csv");
    if (want_csv) {
      recorder.add_column("availability",
                          [&] { return world.availability().fleet_availability(); });
      recorder.add_column("links_down", [&] {
        return static_cast<double>(world.network().count_links(net::LinkState::kDown));
      });
      recorder.add_column("links_flapping", [&] {
        return static_cast<double>(
            world.network().count_links(net::LinkState::kFlapping));
      });
      recorder.add_column("open_tickets", [&] {
        return static_cast<double>(
            world.tickets().count(maintenance::TicketState::kOpen) +
            world.tickets().count(maintenance::TicketState::kDispatched) +
            world.tickets().count(maintenance::TicketState::kInProgress));
      });
      recorder.add_column("robot_busy_hours", [&] {
        return world.has_fleet() ? world.fleet().busy_hours() : 0.0;
      });
      recorder.add_column("technician_hours",
                          [&] { return world.technicians().labor_hours(); });
      recorder.start();
    }

    std::printf("smn_sim: %s, %zu devices, %zu links, %s, %d days, seed %d\n",
                bp.name().c_str(), bp.nodes().size(), bp.links().size(),
                core::to_string(level), days, args.geti("seed", 1));
    world.run_for(sim::Duration::days(days));

    // Summary.
    using analysis::Table;
    std::size_t resolved = 0, cancelled = 0, proactive = 0;
    analysis::SampleStats resolve_hours;
    for (const maintenance::Ticket& t : world.tickets().all()) {
      if (t.proactive) ++proactive;
      if (t.state == maintenance::TicketState::kResolved) {
        ++resolved;
        if (t.genuine && !t.proactive) {
          resolve_hours.push((t.resolved - t.opened).to_hours());
        }
      }
      if (t.state == maintenance::TicketState::kCancelled) ++cancelled;
    }

    Table summary{{"metric", "value"}};
    summary.add_row({"fleet availability",
                     Table::num(world.availability().fleet_availability(), 6)});
    summary.add_row(
        {"downtime link-hours", Table::num(world.availability().downtime_link_hours(), 1)});
    summary.add_row(
        {"impaired link-hours", Table::num(world.availability().impaired_link_hours(), 1)});
    summary.add_row({"faults injected", Table::num(world.injector().log().size())});
    summary.add_row({"tickets resolved", Table::num(resolved)});
    summary.add_row({"tickets cancelled (verified transients)", Table::num(cancelled)});
    summary.add_row({"proactive tickets", Table::num(proactive)});
    summary.add_row({"median ticket (h)", Table::num(resolve_hours.median())});
    summary.add_row({"p95 ticket (h)", Table::num(resolve_hours.percentile(95))});
    summary.add_row({"technician labor (h)", Table::num(world.technicians().labor_hours(), 1)});
    if (world.has_fleet()) {
      summary.add_row({"robot jobs", Table::num(world.fleet().completed())});
      summary.add_row({"robot busy (h)", Table::num(world.fleet().busy_hours(), 1)});
      summary.add_row({"robot escalations", Table::num(world.fleet().escalations())});
      summary.add_row({"robot breakdowns", Table::num(world.fleet().breakdowns())});
    }
    summary.add_row({"cascade collateral", Table::num(world.cascade().induced_count())});
    summary.add_row(
        {"supervision hours", Table::num(world.controller().supervision_hours(), 1)});
    if (world.has_storage()) {
      const storage::DataPlane& dp = world.storage();
      summary.add_row({"storage reads (degraded)",
                       Table::num(dp.reads()) + " (" + Table::num(dp.degraded_reads()) + ")"});
      summary.add_row({"storage repairs", Table::num(dp.repairs_completed())});
      summary.add_row(
          {"storage mean repair window (h)", Table::num(dp.mean_repair_window_hours(), 2)});
      summary.add_row({"storage data-loss fraction", Table::num(dp.data_loss_fraction(), 6)});
    }

    analysis::CostInputs costs;
    costs.technician_hours = world.technicians().labor_hours();
    costs.robot_busy_hours = world.has_fleet() ? world.fleet().busy_hours() : 0;
    costs.robot_units = world.has_fleet() ? world.fleet().units_online() : 0;
    costs.elapsed_years = days / 365.0;
    costs.downtime_link_hours = world.availability().downtime_link_hours();
    costs.impaired_link_hours = world.availability().impaired_link_hours();
    const analysis::CostBreakdown cost = analysis::compute_cost({}, costs);
    summary.add_row({"run cost ($)", Table::num(cost.total_usd, 0)});
    summary.print(std::cout);

    if (want_csv) {
      recorder.sample_now();
      std::ofstream csv{args.get("csv", "run.csv")};
      recorder.write_csv(csv);
      std::printf("time series written to %s (%zu rows)\n",
                  args.get("csv", "run.csv").c_str(), recorder.rows());
    }
    if (args.has("metrics")) {
      const std::string path = args.get("metrics", "metrics.prom");
      if (!world.obs().write_metrics_prom(path)) {
        std::fprintf(stderr, "cannot write metrics to %s\n", path.c_str());
        return 1;
      }
      std::printf("metrics written to %s (%zu instruments)\n", path.c_str(),
                  world.obs().metrics() != nullptr ? world.obs().metrics()->size() : 0);
    }
    if (args.has("trace")) {
      const std::string path = args.get("trace", "trace.json");
      if (!world.obs().write_trace_json(path)) {
        std::fprintf(stderr, "cannot write trace to %s\n", path.c_str());
        return 1;
      }
      const obs::TraceBuffer* tb = world.obs().trace();
      std::printf("trace written to %s (%zu events, %llu dropped)\n", path.c_str(),
                  tb != nullptr ? tb->size() : 0,
                  static_cast<unsigned long long>(tb != nullptr ? tb->dropped() : 0));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
