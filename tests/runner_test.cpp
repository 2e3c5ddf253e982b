// The parallel sweep engine's contract: thread count is never
// simulation-visible (byte-identical reports at jobs=1 vs jobs=4 modulo
// timing fields), cancellation stops a sweep mid-grid without losing landed
// replicates, and degenerate grids (no cells, zero seeds) terminate cleanly.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <fstream>
#include <sstream>

#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "runner/channel.h"
#include "runner/presets.h"
#include "runner/sweep.h"
#include "scenario/world.h"
#include "topology/builders.h"

namespace smn {
namespace {

using runner::BoundedChannel;
using obs::JsonWriter;
using runner::SweepReport;
using runner::SweepRunner;
using runner::SweepSpec;

// Serializes {"k": s} and returns the raw JSON, exercising the writer's
// string escaping end to end.
std::string json_of(std::string_view s) {
  JsonWriter w;
  w.begin_object();
  w.key("k");
  w.value(s);
  w.end_object();
  return w.str();
}

TEST(JsonWriter, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(json_of("say \"hi\""), "{\"k\":\"say \\\"hi\\\"\"}");
  EXPECT_EQ(json_of("C:\\path\\file"), "{\"k\":\"C:\\\\path\\\\file\"}");
  // A key needs the same treatment as a value.
  JsonWriter w;
  w.begin_object();
  w.key("a\"b");
  w.value(1);
  w.end_object();
  EXPECT_EQ(w.str(), "{\"a\\\"b\":1}");
}

TEST(JsonWriter, EscapesCommonWhitespaceControls) {
  EXPECT_EQ(json_of("a\nb"), "{\"k\":\"a\\nb\"}");
  EXPECT_EQ(json_of("a\rb"), "{\"k\":\"a\\rb\"}");
  EXPECT_EQ(json_of("a\tb"), "{\"k\":\"a\\tb\"}");
}

TEST(JsonWriter, EscapesRemainingControlCharsAsUnicode) {
  EXPECT_EQ(json_of(std::string_view{"\x00", 1}), "{\"k\":\"\\u0000\"}");
  EXPECT_EQ(json_of("\x01\x1f"), "{\"k\":\"\\u0001\\u001f\"}");
  EXPECT_EQ(json_of("bell\x07"), "{\"k\":\"bell\\u0007\"}");
}

TEST(JsonWriter, PassesNonAsciiUtf8Through) {
  // UTF-8 bytes >= 0x80 are valid JSON string content and must survive
  // verbatim — no escaping, no mangling.
  EXPECT_EQ(json_of("smn→obs µs"), "{\"k\":\"smn→obs µs\"}");
  EXPECT_EQ(json_of("héllo"), "{\"k\":\"héllo\"}");
}

TEST(JsonWriter, Hex64IsZeroPaddedLowercase) {
  EXPECT_EQ(JsonWriter::hex64(0), "0000000000000000");
  EXPECT_EQ(JsonWriter::hex64(0xDEADBEEFull), "00000000deadbeef");
  EXPECT_EQ(JsonWriter::hex64(~0ull), "ffffffffffffffff");
}

TEST(JsonWriter, NonFiniteDoublesSerializeAsNull) {
  JsonWriter w;
  w.begin_object();
  w.kv("nan", std::numeric_limits<double>::quiet_NaN());
  w.kv("inf", std::numeric_limits<double>::infinity());
  w.end_object();
  EXPECT_EQ(w.str(), "{\"nan\":null,\"inf\":null}");
}

// A grid small enough for unit-test budgets but with enough fault traffic
// that traces are genuinely seed-dependent (cf. determinism_test.cpp).
SweepSpec tiny_spec(std::uint64_t seeds, double days) {
  SweepSpec spec;
  spec.first_seed = 3;
  spec.seeds = seeds;
  spec.duration = sim::Duration::days(days);
  const topology::Blueprint bp =
      topology::build_leaf_spine({.leaves = 4, .spines = 2, .servers_per_leaf = 2});
  for (const core::AutomationLevel level :
       {core::AutomationLevel::kL0_Manual, core::AutomationLevel::kL3_HighAutomation}) {
    scenario::WorldConfig cfg = scenario::WorldConfig::for_level(level);
    cfg.faults.transceiver_afr = 4.0;
    cfg.faults.gray_rate_per_year = 100.0;
    spec.cells.push_back({core::to_string(level), bp, cfg});
  }
  return spec;
}

TEST(BoundedChannel, DeliversInOrderAndDrainsAfterClose) {
  BoundedChannel<int> ch{2};
  EXPECT_TRUE(ch.push(1));
  EXPECT_TRUE(ch.push(2));
  ch.close();
  EXPECT_FALSE(ch.push(3));  // late producer must not block or enqueue
  EXPECT_EQ(ch.pop(), 1);
  EXPECT_EQ(ch.pop(), 2);
  EXPECT_EQ(ch.pop(), std::nullopt);
}

TEST(BoundedChannel, BlockedProducerWakesOnConsume) {
  BoundedChannel<int> ch{1};
  ASSERT_TRUE(ch.push(1));
  std::thread producer{[&] { EXPECT_TRUE(ch.push(2)); }};
  EXPECT_EQ(ch.pop(), 1);  // frees the slot the producer is waiting for
  EXPECT_EQ(ch.pop(), 2);
  producer.join();
}

TEST(SweepRunner, ThreadCountInvariance) {
  const SweepSpec spec = tiny_spec(/*seeds=*/3, /*days=*/2.0);
  SweepRunner serial;
  SweepRunner threaded;
  SweepRunner::Options serial_opts;
  serial_opts.jobs = 1;
  SweepRunner::Options threaded_opts;
  threaded_opts.jobs = 4;
  const SweepReport a = serial.run(spec, serial_opts);
  const SweepReport b = threaded.run(spec, threaded_opts);

  ASSERT_EQ(a.cells.size(), b.cells.size());
  ASSERT_EQ(a.replicates_done, 6u);
  ASSERT_EQ(b.replicates_done, 6u);
  for (std::size_t c = 0; c < a.cells.size(); ++c) {
    ASSERT_EQ(a.cells[c].replicates.size(), b.cells[c].replicates.size());
    for (std::size_t i = 0; i < a.cells[c].replicates.size(); ++i) {
      EXPECT_EQ(a.cells[c].replicates[i].seed, b.cells[c].replicates[i].seed);
      EXPECT_EQ(a.cells[c].replicates[i].trace_hash, b.cells[c].replicates[i].trace_hash)
          << "cell " << a.cells[c].name << " seed " << a.cells[c].replicates[i].seed;
      EXPECT_EQ(a.cells[c].replicates[i].events, b.cells[c].replicates[i].events);
      EXPECT_EQ(a.cells[c].replicates[i].metrics_hash, b.cells[c].replicates[i].metrics_hash);
    }
    // Per-cell obs aggregates (metrics are on by default) must also be
    // thread-count invariant.
    ASSERT_FALSE(a.cells[c].obs.empty());
    ASSERT_EQ(a.cells[c].obs.size(), b.cells[c].obs.size());
    for (std::size_t i = 0; i < a.cells[c].obs.size(); ++i) {
      EXPECT_EQ(a.cells[c].obs[i].name, b.cells[c].obs[i].name);
      EXPECT_EQ(a.cells[c].obs[i].mean, b.cells[c].obs[i].mean);
    }
  }
  // The whole report — stats accumulated in sorted order — must serialize
  // byte-identically once the timing fields (jobs, wall clock) are excluded.
  const runner::JsonOptions no_timing{.include_timing = false};
  EXPECT_EQ(runner::to_json(a, no_timing), runner::to_json(b, no_timing));
}

TEST(SweepRunner, TraceSamplingThreadCountInvariance) {
  const SweepSpec spec = tiny_spec(/*seeds=*/3, /*days=*/1.0);
  SweepRunner::Options serial_opts;
  serial_opts.jobs = 1;
  serial_opts.sample_traces = true;
  SweepRunner::Options threaded_opts;
  threaded_opts.jobs = 4;
  threaded_opts.sample_traces = true;
  SweepRunner runner;
  const SweepReport a = runner.run(spec, serial_opts);
  const SweepReport b = runner.run(spec, threaded_opts);

  // With sampling on, the report (which now embeds per-cell sampled_trace
  // hash + file name) must still be byte-identical across thread counts.
  const runner::JsonOptions no_timing{.include_timing = false};
  const std::string ja = runner::to_json(a, no_timing);
  EXPECT_EQ(ja, runner::to_json(b, no_timing));
  EXPECT_NE(ja.find("\"sampled_trace\""), std::string::npos);

  for (const runner::CellReport& cell : a.cells) {
    for (const runner::ReplicateResult& r : cell.replicates) {
      if (r.seed == spec.first_seed) {
        // Exactly the cheapest seed carries the trace, and the embedded hash
        // is the FNV-1a of exactly those bytes.
        ASSERT_FALSE(r.sampled_trace_json.empty()) << cell.name;
        EXPECT_EQ(r.sampled_trace_hash, obs::fnv1a(r.sampled_trace_json));
      } else {
        EXPECT_TRUE(r.sampled_trace_json.empty());
        EXPECT_EQ(r.sampled_trace_hash, 0u);
      }
    }
  }

  // Tracing is a pure observer: the sampled replicate's determinism signals
  // are identical to a run with sampling off.
  const SweepReport plain = runner.run(spec, SweepRunner::Options{.jobs = 1});
  for (std::size_t c = 0; c < a.cells.size(); ++c) {
    EXPECT_EQ(a.cells[c].replicates[0].trace_hash, plain.cells[c].replicates[0].trace_hash);
    EXPECT_EQ(a.cells[c].replicates[0].metrics_hash, plain.cells[c].replicates[0].metrics_hash);
  }
}

TEST(SweepRunner, SampledTraceByteMatchesSoloTracedRerun) {
  const SweepSpec spec = tiny_spec(/*seeds=*/2, /*days=*/1.0);
  SweepRunner runner;
  const SweepReport report =
      runner.run(spec, SweepRunner::Options{.jobs = 2, .sample_traces = true});

  for (std::size_t c = 0; c < report.cells.size(); ++c) {
    const runner::ReplicateResult& r = report.cells[c].replicates.front();
    ASSERT_EQ(r.seed, spec.first_seed);
    ASSERT_FALSE(r.sampled_trace_json.empty());
    // Solo rerun, the way `smnctl run --trace` builds a traced world.
    scenario::WorldConfig cfg = spec.cells[c].config;
    cfg.seed = r.seed;
    cfg.obs.trace = true;
    scenario::World world{spec.cells[c].blueprint, std::move(cfg)};
    world.run_for(spec.duration);
    world.check_invariants();
    ASSERT_NE(world.obs().trace(), nullptr);
    const std::string solo = world.obs().trace()->to_chrome_json();
    EXPECT_EQ(solo, r.sampled_trace_json) << report.cells[c].name;
    EXPECT_EQ(obs::fnv1a(solo), r.sampled_trace_hash);
  }
}

TEST(SweepRunner, SampledTraceFilesRoundTrip) {
  const SweepSpec spec = tiny_spec(/*seeds=*/1, /*days=*/0.5);
  SweepRunner runner;
  const SweepReport report =
      runner.run(spec, SweepRunner::Options{.jobs = 1, .sample_traces = true});

  const std::string dir = ::testing::TempDir() + "/smn_sampled_traces";
  ASSERT_TRUE(runner::write_sampled_traces(report, dir));
  for (const runner::CellReport& cell : report.cells) {
    const runner::ReplicateResult& r = cell.replicates.front();
    std::ifstream in{dir + "/" + runner::sampled_trace_filename(cell.name, r.seed),
                     std::ios::binary};
    ASSERT_TRUE(in.good()) << cell.name;
    std::ostringstream content;
    content << in.rdbuf();
    EXPECT_EQ(content.str(), r.sampled_trace_json);
  }
}

TEST(SweepRunner, SampledTraceFilenameSanitizesCellNames) {
  EXPECT_EQ(runner::sampled_trace_filename("quick/L3", 7), "trace_quick_L3_seed7.json");
  EXPECT_EQ(runner::sampled_trace_filename("a b\"c", 1), "trace_a_b_c_seed1.json");
  EXPECT_EQ(runner::sampled_trace_filename("L0-manual_x", 12), "trace_L0-manual_x_seed12.json");
}

TEST(SweepRunner, SeedsProduceDistinctTraces) {
  const SweepSpec spec = tiny_spec(/*seeds=*/2, /*days=*/4.0);
  SweepRunner sweeper;
  SweepRunner::Options opts;
  opts.jobs = 2;
  const SweepReport report = sweeper.run(spec, opts);
  for (const runner::CellReport& cell : report.cells) {
    ASSERT_EQ(cell.replicates.size(), 2u);
    EXPECT_NE(cell.replicates[0].trace_hash, cell.replicates[1].trace_hash)
        << "seed had no effect in cell " << cell.name;
  }
}

TEST(SweepRunner, CancellationStopsMidSweep) {
  const SweepSpec spec = tiny_spec(/*seeds=*/32, /*days=*/0.5);
  SweepRunner sweeper;
  std::atomic<std::size_t> seen{0};
  SweepRunner::Options opts;
  opts.jobs = 2;
  opts.on_result = [&](const runner::ReplicateResult&, std::size_t done, std::size_t) {
    seen.store(done);
    if (done >= 3) sweeper.request_stop();
  };
  const SweepReport report = sweeper.run(spec, opts);
  EXPECT_GE(report.replicates_done, 3u);
  EXPECT_LT(report.replicates_done, report.replicates_total);
  EXPECT_TRUE(report.stopped_early);
  EXPECT_EQ(report.replicates_total, 64u);
  // Landed replicates are still aggregated and serializable.
  const std::string json = runner::to_json(report);
  EXPECT_NE(json.find("\"stopped_early\":true"), std::string::npos);
}

TEST(SweepRunner, EmptyGridTerminates) {
  SweepSpec spec;  // no cells at all
  spec.seeds = 5;
  SweepRunner sweeper;
  const SweepReport report = sweeper.run(spec);
  EXPECT_EQ(report.replicates_total, 0u);
  EXPECT_EQ(report.replicates_done, 0u);
  EXPECT_FALSE(report.stopped_early);
  EXPECT_NE(runner::to_json(report).find("\"cells\":[]"), std::string::npos);
}

TEST(SweepRunner, ZeroSeedsTerminates) {
  SweepSpec spec = tiny_spec(/*seeds=*/1, /*days=*/0.5);
  spec.seeds = 0;
  SweepRunner sweeper;
  const SweepReport report = sweeper.run(spec);
  EXPECT_EQ(report.replicates_total, 0u);
  EXPECT_EQ(report.replicates_done, 0u);
  ASSERT_EQ(report.cells.size(), 2u);  // cells are still named in the report
  EXPECT_TRUE(report.cells[0].replicates.empty());
}

// tiny_spec with the survivability frontier enabled on both cells — one per
// failure mode so the sweep exercises both replay paths.
SweepSpec tiny_survivability_spec(std::uint64_t seeds, double days) {
  SweepSpec spec = tiny_spec(seeds, days);
  spec.cells[0].config.survivability.enabled = true;
  spec.cells[0].config.survivability.orderings = 6;
  spec.cells[1].config.survivability.enabled = true;
  spec.cells[1].config.survivability.orderings = 6;
  spec.cells[1].config.survivability.mode = analysis::FailureMode::kSwitches;
  return spec;
}

TEST(SweepSurvivability, JobCountInvariantReportsWithCurves) {
  // In-process version of the CI jobs-determinism gate for the survivability
  // dimension: the report — including every curve array — must be
  // byte-identical at jobs=1 and jobs=4.
  const SweepSpec spec = tiny_survivability_spec(/*seeds=*/2, /*days=*/1.0);
  SweepRunner serial;
  SweepRunner threaded;
  SweepRunner::Options serial_opts;
  serial_opts.jobs = 1;
  SweepRunner::Options threaded_opts;
  threaded_opts.jobs = 4;
  const SweepReport a = serial.run(spec, serial_opts);
  const SweepReport b = threaded.run(spec, threaded_opts);

  ASSERT_EQ(a.cells.size(), 2u);
  for (std::size_t c = 0; c < a.cells.size(); ++c) {
    ASSERT_TRUE(a.cells[c].survivability.present()) << a.cells[c].name;
    EXPECT_EQ(a.cells[c].survivability.hash, b.cells[c].survivability.hash);
    EXPECT_EQ(a.cells[c].survivability.largest_component.mean,
              b.cells[c].survivability.largest_component.mean);
    for (std::size_t i = 0; i < a.cells[c].replicates.size(); ++i) {
      ASSERT_TRUE(a.cells[c].replicates[i].survivability.present());
      EXPECT_EQ(a.cells[c].replicates[i].survivability.hash,
                b.cells[c].replicates[i].survivability.hash);
      EXPECT_GT(a.cells[c].replicates[i].metrics[runner::kSurvivabilityAucConnectivity], 0.0);
    }
  }
  EXPECT_EQ(a.cells[1].survivability.mode, analysis::FailureMode::kSwitches);

  const runner::JsonOptions no_timing{.include_timing = false};
  const std::string json = runner::to_json(a, no_timing);
  EXPECT_EQ(json, runner::to_json(b, no_timing));
  EXPECT_NE(json.find("\"survivability\""), std::string::npos);
  EXPECT_NE(json.find("\"survivability_hash\""), std::string::npos);
  EXPECT_NE(json.find("\"largest_component\""), std::string::npos);
}

TEST(SweepSurvivability, DisabledCellsCarryNoCurveBlock) {
  const SweepSpec spec = tiny_spec(/*seeds=*/1, /*days=*/0.5);
  SweepRunner sweeper;
  const SweepReport report = sweeper.run(spec);
  for (const runner::CellReport& cell : report.cells) {
    EXPECT_FALSE(cell.survivability.present()) << cell.name;
  }
  const std::string json = runner::to_json(report);
  EXPECT_EQ(json.find("\"survivability\""), std::string::npos);
  EXPECT_EQ(json.find("\"survivability_hash\""), std::string::npos);
}

TEST(SweepSurvivability, CellCurvesAreMonotoneAndMatchAucMetric) {
  const SweepSpec spec = tiny_survivability_spec(/*seeds=*/2, /*days=*/0.5);
  SweepRunner sweeper;
  const SweepReport report = sweeper.run(spec);
  for (const runner::CellReport& cell : report.cells) {
    const analysis::FrontierResult& s = cell.survivability;
    ASSERT_TRUE(s.present());
    ASSERT_EQ(s.largest_component.mean.size(), s.elements + 1);
    for (const auto* curve :
         {&s.largest_component.mean, &s.server_reachability.mean, &s.bisection.mean}) {
      for (std::size_t k = 1; k < curve->size(); ++k) {
        ASSERT_LE((*curve)[k], (*curve)[k - 1]) << cell.name << " k=" << k;
      }
    }
    // The per-cell AUC metric aggregate is the mean of per-replicate AUCs,
    // each strictly inside (0, 1] for a connected fabric.
    EXPECT_GT(s.auc_connectivity, 0.0);
    EXPECT_LE(s.auc_connectivity, 1.0);
  }
}

TEST(SweepPresets, KnownNamesBuildAndUnknownThrows) {
  for (const std::string& name : runner::sweep_preset_names()) {
    const SweepSpec spec = runner::make_sweep(name, sim::Duration::days(1), 1, 2);
    EXPECT_FALSE(spec.cells.empty()) << name;
  }
  EXPECT_THROW(runner::make_sweep("nope", sim::Duration::days(1), 1, 2),
               std::invalid_argument);
}

}  // namespace
}  // namespace smn
