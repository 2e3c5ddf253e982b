// The observability subsystem's contract: the registry hands out stable
// handles with eager-registration semantics, histograms bucket and flatten
// deterministically, traces serialize to loadable Chrome trace_event JSON,
// the flight recorder keeps exactly the last N records, and — the load-bearing
// property — none of it perturbs the simulation (same trace hash with obs on
// or off).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "scenario/world.h"
#include "topology/builders.h"

namespace smn {
namespace {

using obs::FlightRecorder;
using obs::Histogram;
using obs::Registry;
using obs::SnapshotEntry;
using obs::TraceBuffer;

[[nodiscard]] double value_of(const std::vector<SnapshotEntry>& snap, const std::string& name) {
  for (const SnapshotEntry& e : snap) {
    if (e.name == name) return e.value;
  }
  ADD_FAILURE() << "snapshot has no entry named " << name;
  return -1.0;
}

TEST(Registry, ReRegistrationReturnsTheSameHandle) {
  Registry reg;
  obs::Counter* a = reg.counter("events_total");
  obs::Counter* b = reg.counter("events_total");
  EXPECT_EQ(a, b);
  EXPECT_EQ(reg.size(), 1u);
  a->inc(3);
  EXPECT_EQ(b->value(), 3u);

  obs::Gauge* g1 = reg.gauge("backlog");
  obs::Gauge* g2 = reg.gauge("backlog");
  EXPECT_EQ(g1, g2);
  Histogram* h1 = reg.histogram("hours", {1.0, 4.0});
  Histogram* h2 = reg.histogram("hours", {1.0, 4.0});
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(Registry, KindMismatchThrows) {
  Registry reg;
  (void)reg.counter("x");
  EXPECT_THROW((void)reg.gauge("x"), std::invalid_argument);
  EXPECT_THROW((void)reg.histogram("x", {1.0}), std::invalid_argument);
  (void)reg.histogram("h", {1.0, 2.0});
  EXPECT_THROW((void)reg.counter("h"), std::invalid_argument);
  // Same name, same kind, different bounds is also a wiring bug.
  EXPECT_THROW((void)reg.histogram("h", {1.0, 3.0}), std::invalid_argument);
}

TEST(Histogram, RejectsNonAscendingBounds) {
  EXPECT_THROW((Histogram{{2.0, 1.0}}), std::invalid_argument);
  EXPECT_THROW((Histogram{{1.0, 1.0}}), std::invalid_argument);
  EXPECT_NO_THROW((Histogram{{}}));  // degenerate: everything lands in +inf
}

TEST(Histogram, BucketsOnUpperEdgeInclusive) {
  Histogram h{{1.0, 4.0, 12.0}};
  h.observe(0.5);   // <= 1      -> bucket 0
  h.observe(1.0);   // == bound  -> bucket 0 (le semantics)
  h.observe(2.0);   //           -> bucket 1
  h.observe(12.0);  // == bound  -> bucket 2
  h.observe(99.0);  //           -> +inf bucket
  ASSERT_EQ(h.counts().size(), 4u);
  EXPECT_EQ(h.counts()[0], 2u);
  EXPECT_EQ(h.counts()[1], 1u);
  EXPECT_EQ(h.counts()[2], 1u);
  EXPECT_EQ(h.counts()[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 2.0 + 12.0 + 99.0);
}

TEST(Registry, SnapshotIsSortedAndFlattensHistogramsCumulatively) {
  Registry reg;
  reg.counter("zzz_total")->inc(7);
  reg.gauge("aaa_level")->set(2.5);
  Histogram* h = reg.histogram("mid_hours", {1.0, 4.0});
  h->observe(0.5);
  h->observe(2.0);
  h->observe(9.0);

  const std::vector<SnapshotEntry> snap = reg.snapshot();
  // 1 counter + 1 gauge + (2 buckets + sum + count) = 6 entries, sorted.
  ASSERT_EQ(snap.size(), 6u);
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].name, snap[i].name);
  }
  EXPECT_EQ(value_of(snap, "zzz_total"), 7.0);
  EXPECT_EQ(value_of(snap, "aaa_level"), 2.5);
  EXPECT_EQ(value_of(snap, "mid_hours_le_1"), 1.0);  // cumulative
  EXPECT_EQ(value_of(snap, "mid_hours_le_4"), 2.0);
  EXPECT_EQ(value_of(snap, "mid_hours_count"), 3.0);
  EXPECT_DOUBLE_EQ(value_of(snap, "mid_hours_sum"), 11.5);
}

TEST(Registry, SnapshotHashIsStableAndValueSensitive) {
  Registry a;
  Registry b;
  a.counter("n")->inc(5);
  b.counter("n")->inc(5);
  EXPECT_EQ(a.snapshot_hash(), b.snapshot_hash());
  b.counter("n")->inc();
  EXPECT_NE(a.snapshot_hash(), b.snapshot_hash());
}

TEST(Registry, PrometheusExposition) {
  Registry reg;
  reg.counter("jobs_total")->inc(2);
  reg.gauge("backlog")->set(3.0);
  Histogram* h = reg.histogram("hours", {1.0, 4.0});
  h->observe(0.5);
  h->observe(9.0);

  const std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("# TYPE jobs_total counter\njobs_total 2\n"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE backlog gauge\nbacklog 3\n"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE hours histogram\n"), std::string::npos);
  EXPECT_NE(prom.find("hours_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(prom.find("hours_bucket{le=\"4\"} 1\n"), std::string::npos);
  EXPECT_NE(prom.find("hours_bucket{le=\"+Inf\"} 2\n"), std::string::npos);
  EXPECT_NE(prom.find("hours_sum 9.5\n"), std::string::npos);
  EXPECT_NE(prom.find("hours_count 2\n"), std::string::npos);
  // Every line is either a comment or `name value` — no trailing garbage.
  EXPECT_EQ(prom.back(), '\n');
}

TEST(TraceBuffer, RecordsAllPhaseKindsWithSimTimestamps) {
  TraceBuffer tb;
  const sim::TimePoint t1 = sim::TimePoint{} + sim::Duration::hours(1);
  const sim::TimePoint t2 = sim::TimePoint{} + sim::Duration::hours(3);
  tb.instant("detect", "controller", t1, "link", 42);
  tb.complete("repair", "robot", t1, t2, "ticket", 7, "botched", 0);
  tb.async_begin("ticket", "ticket", t1, /*id=*/7);
  tb.async_end("ticket", "ticket", t2, /*id=*/7);

  ASSERT_EQ(tb.size(), 4u);
  EXPECT_EQ(tb.events()[0].ph, TraceBuffer::Phase::kInstant);
  EXPECT_EQ(tb.events()[0].ts_us, t1.count_us());
  EXPECT_EQ(tb.events()[1].ph, TraceBuffer::Phase::kComplete);
  EXPECT_EQ(tb.events()[1].dur_us, (t2 - t1).count_us());
  EXPECT_EQ(tb.events()[2].id, 7u);
  EXPECT_EQ(tb.dropped(), 0u);
}

TEST(TraceBuffer, ChromeJsonIsWellFormed) {
  TraceBuffer tb;
  const sim::TimePoint t1 = sim::TimePoint{} + sim::Duration::hours(1);
  const sim::TimePoint t2 = sim::TimePoint{} + sim::Duration::hours(2);
  tb.instant("detect", "controller", t1, "link", 42);
  tb.complete("repair", "robot", t1, t2);
  tb.async_begin("ticket", "ticket", t1, /*id=*/0xabcd);

  const std::string json = tb.to_chrome_json();
  EXPECT_EQ(json.find("{\"traceEvents\":[{"), 0u);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":3600000000"), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"000000000000abcd\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"link\":42}"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"smn_dropped_events\":0"), std::string::npos);
  // Balanced braces/brackets — the writer closed everything it opened.
  long depth = 0;
  for (const char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
  }
  EXPECT_EQ(depth, 0);
}

TEST(TraceBuffer, BoundedBufferCountsDrops) {
  TraceBuffer tb{/*max_events=*/2};
  const sim::TimePoint t = sim::TimePoint{};
  tb.instant("a", "t", t);
  tb.instant("b", "t", t);
  tb.instant("c", "t", t);
  tb.instant("d", "t", t);
  EXPECT_EQ(tb.size(), 2u);
  EXPECT_EQ(tb.dropped(), 2u);
  EXPECT_NE(tb.to_chrome_json().find("\"smn_dropped_events\":2"), std::string::npos);
}

TEST(FlightRecorder, KeepsLastNInArrivalOrderAcrossWraparound) {
  FlightRecorder rec{/*capacity=*/4};
  for (std::int64_t i = 0; i < 10; ++i) {
    rec.record(i * 100, "evt", i);
  }
  EXPECT_EQ(rec.total_recorded(), 10u);
  EXPECT_EQ(rec.capacity(), 4u);
  const std::vector<FlightRecorder::Record> recent = rec.recent();
  ASSERT_EQ(recent.size(), 4u);
  for (std::size_t i = 0; i < recent.size(); ++i) {
    EXPECT_EQ(recent[i].a, static_cast<std::int64_t>(6 + i));  // oldest first
    EXPECT_EQ(recent[i].t_us, (6 + static_cast<std::int64_t>(i)) * 100);
  }
}

TEST(FlightRecorder, PartiallyFilledRingReportsOnlyWhatHappened) {
  FlightRecorder rec{/*capacity=*/8};
  rec.record(10, "first", 1);
  rec.record(20, "second", 2);
  const std::vector<FlightRecorder::Record> recent = rec.recent();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0].a, 1);
  EXPECT_EQ(recent[1].a, 2);
}

TEST(FlightRecorderDeathTest, AssertFailureDumpsRecentHistory) {
  // The whole point of the recorder: when an invariant breaks, the last N
  // events reach stderr before abort(). The death-test child installs its own
  // recorder (the hook is thread-local and the child is a fresh process).
  EXPECT_DEATH(
      {
        FlightRecorder rec{/*capacity=*/4};
        rec.install();
        rec.record(1000, "link-transition", 5, 2);
        rec.record(2000, "dispatch-robot", 9, 0);
        SMN_ASSERT(false, "synthetic invariant failure");
      },
      "flight recorder.*dispatch-robot");
}

TEST(FlightRecorderDeathTest, UninstalledRecorderDoesNotDump) {
  EXPECT_DEATH(
      {
        FlightRecorder rec{/*capacity=*/4};
        rec.install();
        rec.record(1000, "evt", 1);
        rec.uninstall();
        SMN_ASSERT(false, "no recorder armed");
      },
      "SMN_CHECK failed");
}

TEST(ObsBundle, DisabledOptionsProduceNullFacilities) {
  obs::Obs off{obs::Options::disabled()};
  EXPECT_EQ(off.metrics(), nullptr);
  EXPECT_EQ(off.trace(), nullptr);
  EXPECT_EQ(off.recorder(), nullptr);
  EXPECT_EQ(off.metrics_hash(), 0u);

  obs::Obs on{obs::Options{}};
  EXPECT_NE(on.metrics(), nullptr);
  EXPECT_EQ(on.trace(), nullptr);  // tracing is opt-in
  EXPECT_NE(on.recorder(), nullptr);
  EXPECT_NE(on.metrics_hash(), 0u);  // empty registry still hashes the offset
}

// The subsystem's central promise: instrumentation observes the event stream
// without perturbing it. A world with full observability and a world with
// none must execute the identical event sequence.
TEST(ObsWorld, InstrumentationDoesNotPerturbTheSimulation) {
  const topology::Blueprint bp =
      topology::build_leaf_spine({.leaves = 4, .spines = 2, .servers_per_leaf = 2});
  scenario::WorldConfig base = scenario::WorldConfig::for_level(
      core::AutomationLevel::kL3_HighAutomation);
  base.seed = 11;
  base.faults.transceiver_afr = 4.0;
  base.faults.gray_rate_per_year = 60.0;

  std::uint64_t hash[3] = {};
  std::uint64_t metrics_hash[2] = {};
  for (int run = 0; run < 3; ++run) {
    scenario::WorldConfig cfg = base;
    if (run == 2) {
      cfg.obs = obs::Options::disabled();
    } else {
      cfg.obs.trace = run == 1;  // run 1 additionally traces
    }
    scenario::World world{bp, cfg};
    world.run_for(sim::Duration::days(5));
    hash[run] = world.simulator().trace_hash();
    if (run < 2) metrics_hash[run] = world.obs().metrics_hash();
  }
  EXPECT_EQ(hash[0], hash[1]);
  EXPECT_EQ(hash[0], hash[2]);
  EXPECT_EQ(metrics_hash[0], metrics_hash[1]);
  EXPECT_NE(metrics_hash[0], 0u);
}

// The registry actually sees traffic: a fault-heavy world increments the
// wired instruments, and the flattened snapshot reflects them.
TEST(ObsWorld, WorldMetricsSeeSimulationTraffic) {
  const topology::Blueprint bp =
      topology::build_leaf_spine({.leaves = 4, .spines = 2, .servers_per_leaf = 2});
  scenario::WorldConfig cfg = scenario::WorldConfig::for_level(
      core::AutomationLevel::kL3_HighAutomation);
  cfg.seed = 7;
  cfg.faults.transceiver_afr = 4.0;
  cfg.faults.gray_rate_per_year = 60.0;
  cfg.obs.trace = true;
  scenario::World world{bp, cfg};
  world.run_for(sim::Duration::days(10));

  ASSERT_NE(world.obs().metrics(), nullptr);
  const std::vector<SnapshotEntry> snap = world.obs().metrics()->snapshot();
  EXPECT_GT(value_of(snap, "sim_events_total"), 0.0);
  EXPECT_GT(value_of(snap, "net_link_transitions_total"), 0.0);
  EXPECT_GT(value_of(snap, "tickets_opened_total"), 0.0);
  EXPECT_GT(value_of(snap, "controller_detections_total"), 0.0);
  ASSERT_NE(world.obs().trace(), nullptr);
  EXPECT_GT(world.obs().trace()->size(), 0u);
}

}  // namespace
}  // namespace smn
