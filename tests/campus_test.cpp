// The sharded campus contract: barriers on the send calendar, canonical
// exchange ordering, the shared spare depot, and — the property everything
// else exists to deliver — byte-identical results at any shard count. The
// differential suite anchors the sharded path to the plain World: an
// uncoupled campus domain must be event-for-event the same simulation as a
// standalone World at the derived seed.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/spare_pool.h"
#include "net/domain.h"
#include "obs/metrics.h"
#include "runner/presets.h"
#include "runner/shard_pool.h"
#include "runner/sweep.h"
#include "scenario/campus.h"
#include "scenario/world.h"
#include "sim/epoch.h"
#include "sim/rng.h"
#include "topology/builders.h"
#include "topology/campus.h"

namespace smn {
namespace {

using scenario::Campus;
using scenario::CampusConfig;
using sim::Duration;
using sim::TimePoint;

TEST(ExchangeKey, OrdersBySentThenSourceThenSequence) {
  const TimePoint t0;
  const TimePoint t1 = t0 + Duration::seconds(1);
  const sim::ExchangeKey early{t0, 5, 99};
  const sim::ExchangeKey late{t1, 0, 0};
  EXPECT_LT(early, late);
  // Simultaneous sends: the lower source hall wins, then the sequence number
  // — the tie-break that makes simultaneous cross-shard events deterministic.
  EXPECT_LT((sim::ExchangeKey{t0, 0, 7}), (sim::ExchangeKey{t0, 1, 2}));
  EXPECT_LT((sim::ExchangeKey{t0, 1, 2}), (sim::ExchangeKey{t0, 1, 3}));
  EXPECT_FALSE((sim::ExchangeKey{t0, 1, 3}) < (sim::ExchangeKey{t0, 1, 3}));
}

TEST(SparePool, RestockAccruesFractionalCarry) {
  core::SparePool pool{{.initial_stock = 0, .restock_per_day = 1.5, .max_stock = 10}};
  pool.restock_to(TimePoint{} + Duration::days(1));
  EXPECT_EQ(pool.stock(), 1);  // 1.5 accrued, 0.5 carried
  pool.restock_to(TimePoint{} + Duration::days(2));
  EXPECT_EQ(pool.stock(), 3);  // carry 0.5 + 1.5 = 2 whole units
}

TEST(SparePool, RestockSaturatesAtShelfCapacity) {
  core::SparePool pool{{.initial_stock = 4, .restock_per_day = 100.0, .max_stock = 8}};
  pool.restock_to(TimePoint{} + Duration::days(5));
  EXPECT_EQ(pool.stock(), 8);
  // The surplus is returned, not banked: another instant of restock cannot
  // exceed the shelf either.
  pool.restock_to(TimePoint{} + Duration::days(5) + Duration::hours(1));
  EXPECT_EQ(pool.stock(), 8);
}

TEST(SparePool, RestockIsCadenceIndependent) {
  // Saturating shelves: three units a day onto a one-unit shelf, drained by
  // an hourly grant. Restocking every minute or only at the grant instants
  // must decide every grant alike — the stock is a function of the clock, so
  // the campus may place its barriers anywhere.
  const core::SparePool::Config cfg{.initial_stock = 0, .restock_per_day = 3.0, .max_stock = 1};
  core::SparePool every_minute{cfg};
  core::SparePool at_grants{cfg};
  int mismatches = 0;
  for (int minute = 1; minute <= 10 * 24 * 60; ++minute) {
    const TimePoint t = TimePoint{} + Duration::minutes(minute);
    every_minute.restock_to(t);
    if (minute % 60 != 0) continue;
    at_grants.restock_to(t);
    const int a = every_minute.grant(1);
    const int b = at_grants.grant(1);
    if (a != b || every_minute.stock() != at_grants.stock()) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(every_minute.granted_total(), at_grants.granted_total());
  EXPECT_EQ(at_grants.granted_total(), 30u);  // every arrival finds an empty shelf
  EXPECT_EQ(at_grants.stock(), every_minute.stock());
}

TEST(SparePool, GrantsClampToStockAndTallyTotals) {
  core::SparePool pool{{.initial_stock = 3, .restock_per_day = 0.0, .max_stock = 10}};
  EXPECT_EQ(pool.grant(2), 2);
  EXPECT_EQ(pool.grant(5), 1);  // only one unit left
  EXPECT_EQ(pool.grant(4), 0);
  EXPECT_EQ(pool.grant(-1), 0);  // nonsense requests grant nothing
  EXPECT_EQ(pool.stock(), 0);
  EXPECT_EQ(pool.granted_total(), 3u);
  EXPECT_EQ(pool.denied_total(), 8u);
}

TEST(DomainGraphTest, RingCampusAdjacencyAndLookahead) {
  topology::CampusParams params;
  params.halls = 4;
  params.hall = {.leaves = 2, .spines = 1, .servers_per_leaf = 1};
  const topology::CampusBlueprint bp = topology::build_campus(params);
  const net::DomainGraph graph{bp};
  ASSERT_EQ(graph.domains(), 4u);
  EXPECT_TRUE(graph.coupled());
  // Ring: every hall has exactly two trunk peers, sorted by hall index.
  for (int h = 0; h < 4; ++h) {
    const std::vector<net::DomainPeer>& peers = graph.peers(h);
    ASSERT_EQ(peers.size(), 2u) << "hall " << h;
    EXPECT_LT(peers[0].hall, peers[1].hall);
  }
  EXPECT_LT(graph.min_latency(), Duration::max());
  EXPECT_GT(graph.min_latency(), Duration::zero());
  EXPECT_EQ(graph.latency(0, 1), graph.latency(1, 0));
  EXPECT_EQ(graph.latency(0, 2), Duration::max());  // not adjacent on the ring
}

TEST(DomainGraphTest, RejectsZeroLatencyTrunks) {
  topology::CampusParams params;
  params.halls = 2;
  params.hall = {.leaves = 2, .spines = 1, .servers_per_leaf = 1};
  topology::CampusBlueprint bp = topology::build_campus(params);
  bp.cross_links[0].latency = Duration::zero();  // lookahead 0 is unschedulable
  EXPECT_THROW((net::DomainGraph{bp}), std::logic_error);
  bp.cross_links[0].latency = Duration::minutes(1);
  bp.cross_links[0].hall_b = 7;  // dangling hall index
  EXPECT_THROW((net::DomainGraph{bp}), std::logic_error);
}

TEST(CampusBlueprintTest, RingAndMeshTrunkCounts) {
  topology::CampusParams params;
  params.hall = {.leaves = 2, .spines = 1, .servers_per_leaf = 1};
  params.halls = 4;
  EXPECT_EQ(topology::build_campus(params).cross_links.size(), 4u);  // ring with wrap
  params.halls = 2;
  EXPECT_EQ(topology::build_campus(params).cross_links.size(), 1u);  // no duplicate wrap
  params.halls = 4;
  params.ring = false;
  EXPECT_EQ(topology::build_campus(params).cross_links.size(), 6u);  // full mesh
}

TEST(DomainSeed, HallZeroRunsTheCampusSeed) {
  EXPECT_EQ(scenario::domain_seed(42, 0), 42u);
  EXPECT_NE(scenario::domain_seed(42, 1), scenario::domain_seed(42, 2));
  EXPECT_NE(scenario::domain_seed(42, 1), scenario::domain_seed(43, 1));
}

// ---------------------------------------------------------------------------
// Campus fixtures.

topology::CampusBlueprint tiny_campus(int halls, bool coupled) {
  topology::CampusParams params;
  params.halls = halls;
  params.hall = {.leaves = 2, .spines = 1, .servers_per_leaf = 1};
  topology::CampusBlueprint bp = topology::build_campus(params);
  if (!coupled) bp.cross_links.clear();
  return bp;
}

CampusConfig tiny_config(std::uint64_t seed) {
  CampusConfig cfg;
  cfg.hall = scenario::WorldConfig::for_level(core::AutomationLevel::kL3_HighAutomation);
  cfg.hall.seed = seed;
  // Boosted fault traffic so short runs still produce seed-dependent traces
  // and spare requests (cf. runner_test.cpp tiny_spec).
  cfg.hall.faults.transceiver_afr = 4.0;
  cfg.hall.faults.gray_rate_per_year = 100.0;
  cfg.traffic_period = Duration::minutes(30);
  cfg.spare_audit_period = Duration::hours(3);
  return cfg;
}

/// Everything a shard count could possibly perturb, captured in one blob.
struct CampusSignature {
  std::vector<std::uint64_t> domain_traces;
  std::uint64_t trace_hash = 0;
  std::uint64_t metrics_hash = 0;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t barriers = 0;
  int depot_stock = 0;
  std::vector<obs::SnapshotEntry> snapshot;
};

CampusSignature signature_of(Campus& campus) {
  CampusSignature sig;
  for (std::size_t i = 0; i < campus.domain_count(); ++i) {
    sig.domain_traces.push_back(campus.domain(i).simulator().trace_hash());
  }
  sig.trace_hash = campus.trace_hash();
  sig.metrics_hash = campus.metrics_hash();
  sig.events = campus.events_processed();
  sig.messages = campus.messages_exchanged();
  sig.barriers = campus.barriers_passed();
  sig.depot_stock = campus.spare_pool().stock();
  sig.snapshot = campus.merged_snapshot();
  return sig;
}

void expect_equal(const CampusSignature& a, const CampusSignature& b, const std::string& what) {
  EXPECT_EQ(a.domain_traces, b.domain_traces) << what;
  EXPECT_EQ(a.trace_hash, b.trace_hash) << what;
  EXPECT_EQ(a.metrics_hash, b.metrics_hash) << what;
  EXPECT_EQ(a.events, b.events) << what;
  EXPECT_EQ(a.messages, b.messages) << what;
  EXPECT_EQ(a.barriers, b.barriers) << what;
  EXPECT_EQ(a.depot_stock, b.depot_stock) << what;
  ASSERT_EQ(a.snapshot.size(), b.snapshot.size()) << what;
  for (std::size_t i = 0; i < a.snapshot.size(); ++i) {
    EXPECT_EQ(a.snapshot[i].name, b.snapshot[i].name) << what;
    EXPECT_EQ(a.snapshot[i].value, b.snapshot[i].value) << what << " " << a.snapshot[i].name;
  }
}

CampusSignature run_campus(const topology::CampusBlueprint& bp, const CampusConfig& cfg,
                           Duration span, int shards, int chunks = 1) {
  Campus campus{bp, cfg};
  runner::ShardPool pool{shards};
  const Campus::Executor exec = shards > 1 ? pool.executor() : Campus::Executor{};
  // Deliberately ragged chunking: run_for boundaries land between send
  // instants, proving barriers stay on the send calendar regardless.
  const Duration chunk = Duration::microseconds(span.count_us() / chunks);
  Duration remaining = span;
  for (int i = 0; i + 1 < chunks; ++i) {
    campus.run_for(chunk, exec);
    remaining = remaining - chunk;
  }
  campus.run_for(remaining, exec);
  campus.check_invariants();
  return signature_of(campus);
}

TEST(CampusTest, UncoupledDomainsMatchStandaloneWorlds) {
  const topology::CampusBlueprint bp = tiny_campus(/*halls=*/3, /*coupled=*/false);
  const CampusConfig cfg = tiny_config(/*seed=*/11);
  Campus campus{bp, cfg};
  EXPECT_FALSE(campus.coupled());
  campus.run_for(Duration::days(1));
  campus.check_invariants();
  EXPECT_EQ(campus.barriers_passed(), 0u);
  EXPECT_EQ(campus.messages_exchanged(), 0u);

  // The anchor of the differential suite: with no trunks, domain i is
  // event-for-event (and metric-for-metric) a standalone World at the
  // derived seed. Hall 0 runs the campus seed itself.
  for (std::size_t i = 0; i < campus.domain_count(); ++i) {
    scenario::WorldConfig solo_cfg = cfg.hall;
    solo_cfg.seed = scenario::domain_seed(cfg.hall.seed, i);
    scenario::World solo{bp.halls[i], std::move(solo_cfg)};
    solo.run_for(Duration::days(1));
    EXPECT_EQ(campus.domain(i).simulator().trace_hash(), solo.simulator().trace_hash())
        << "hall " << i;
    ASSERT_NE(solo.obs().metrics(), nullptr);
    ASSERT_NE(campus.domain(i).obs().metrics(), nullptr);
    EXPECT_EQ(campus.domain(i).obs().metrics()->snapshot_hash(),
              solo.obs().metrics()->snapshot_hash())
        << "hall " << i;
  }
}

TEST(CampusTest, CoupledCampusExchangesMessages) {
  const topology::CampusBlueprint bp = tiny_campus(/*halls=*/4, /*coupled=*/true);
  Campus campus{bp, tiny_config(/*seed=*/5)};
  ASSERT_TRUE(campus.coupled());
  EXPECT_GT(campus.lookahead(), Duration::zero());
  campus.run_for(Duration::days(1));
  campus.check_invariants();
  // One barrier per distinct send instant: the 30-minute traffic tick (the
  // 3-hour spare audits fall on the same instants).
  EXPECT_EQ(campus.barriers_passed(), 48u);
  EXPECT_GT(campus.messages_exchanged(), 0u);
  // Cross-traffic flows landed: every hall received flows from its two ring
  // peers (2 flows per peer per 30-minute tick over a day).
  const std::vector<obs::SnapshotEntry> snap = campus.merged_snapshot();
  double rx = 0.0;
  for (const obs::SnapshotEntry& e : snap) {
    if (e.name == "campus_xtraffic_rx_total") rx = e.value;
  }
  EXPECT_GT(rx, 0.0);
}

TEST(CampusTest, ShardCountInvariance) {
  const topology::CampusBlueprint bp = tiny_campus(/*halls=*/4, /*coupled=*/true);
  const CampusConfig cfg = tiny_config(/*seed=*/7);
  const CampusSignature serial = run_campus(bp, cfg, Duration::days(1), /*shards=*/1);
  const CampusSignature two = run_campus(bp, cfg, Duration::days(1), /*shards=*/2);
  const CampusSignature four = run_campus(bp, cfg, Duration::days(1), /*shards=*/4);
  EXPECT_GT(serial.messages, 0u);
  expect_equal(serial, two, "shards=1 vs shards=2");
  expect_equal(serial, four, "shards=1 vs shards=4");
}

TEST(CampusTest, RaggedChunkingLeavesBarriersFixed) {
  const topology::CampusBlueprint bp = tiny_campus(/*halls=*/3, /*coupled=*/true);
  const CampusConfig cfg = tiny_config(/*seed=*/9);
  const CampusSignature whole = run_campus(bp, cfg, Duration::hours(13), 1, /*chunks=*/1);
  // 7 chunks of 13 hours is 111.43 minutes per chunk: every chunk boundary
  // lands between send instants.
  const CampusSignature ragged = run_campus(bp, cfg, Duration::hours(13), 1, /*chunks=*/7);
  const CampusSignature ragged_sharded = run_campus(bp, cfg, Duration::hours(13), 2,
                                                    /*chunks=*/7);
  expect_equal(whole, ragged, "one run_for vs 7 ragged chunks");
  expect_equal(whole, ragged_sharded, "one run_for vs 7 ragged chunks on 2 shards");
}

TEST(CampusTest, EmptyEpochsStillSynchronize) {
  // No producers at all: the send calendar is empty, so a coupled campus
  // crosses no barrier and its domains remain exactly standalone Worlds.
  const topology::CampusBlueprint bp = tiny_campus(/*halls=*/2, /*coupled=*/true);
  CampusConfig cfg = tiny_config(/*seed=*/13);
  cfg.traffic_period = Duration::zero();
  cfg.spare_audit_period = Duration::zero();
  Campus campus{bp, cfg};
  campus.run_for(Duration::hours(1));
  EXPECT_EQ(campus.barriers_passed(), 0u);
  EXPECT_EQ(campus.messages_exchanged(), 0u);

  scenario::WorldConfig solo_cfg = cfg.hall;
  scenario::World solo{bp.halls[0], std::move(solo_cfg)};
  solo.run_for(Duration::hours(1));
  EXPECT_EQ(campus.domain(0).simulator().trace_hash(), solo.simulator().trace_hash());
}

TEST(CampusTest, BarriersFallOnDistinctSendInstants) {
  // Producers whose periods do not nest: 25-minute traffic and 2-hour spare
  // audits. A day has 57 traffic instants and 12 audit instants, two of them
  // shared (10 h and 20 h), so 67 barriers.
  const topology::CampusBlueprint bp = tiny_campus(/*halls=*/3, /*coupled=*/true);
  CampusConfig cfg = tiny_config(/*seed=*/17);
  cfg.traffic_period = Duration::minutes(25);
  cfg.spare_audit_period = Duration::hours(2);
  Campus campus{bp, cfg};
  campus.run_for(Duration::days(1));
  EXPECT_EQ(campus.barriers_passed(), 67u);
  double barriers_counter = 0.0;
  for (const obs::SnapshotEntry& e : campus.merged_snapshot()) {
    if (e.name == "campus_barriers_total") barriers_counter = e.value;
  }
  EXPECT_EQ(barriers_counter, 67.0);  // registered once, in hall 0

  // Audits alone: the calendar follows the one producer left.
  cfg.traffic_period = Duration::zero();
  Campus audits_only{bp, cfg};
  audits_only.run_for(Duration::days(1));
  EXPECT_EQ(audits_only.barriers_passed(), 12u);
}

TEST(CampusTest, SpareDepotArbitrationIsSharedAndBounded) {
  const topology::CampusBlueprint bp = tiny_campus(/*halls=*/4, /*coupled=*/true);
  CampusConfig cfg = tiny_config(/*seed=*/3);
  // A starved depot: some requests must be denied, and the arbitration is
  // part of the shard-invariance surface covered above.
  cfg.spare_pool = {.initial_stock = 1, .restock_per_day = 0.5, .max_stock = 2};
  Campus campus{bp, cfg};
  campus.run_for(Duration::days(2));
  const core::SparePool& pool = campus.spare_pool();
  EXPECT_GT(pool.granted_total() + pool.denied_total(), 0u);
  EXPECT_LE(pool.stock(), 2);
  double requested = 0.0;
  double granted = 0.0;
  double denied = 0.0;
  for (const obs::SnapshotEntry& e : campus.merged_snapshot()) {
    if (e.name == "campus_spares_requested_total") requested = e.value;
    if (e.name == "campus_spares_granted_total") granted = e.value;
    if (e.name == "campus_spares_denied_total") denied = e.value;
  }
  EXPECT_GT(requested, 0.0);
  // The answer counters increment at grant *delivery* (sent + 2*lookahead),
  // so decisions made at the final barriers may still be in flight when the
  // run ends: delivered answers never exceed requests, and the depot's own
  // tally (updated at decision time) never trails the delivered count.
  EXPECT_LE(granted + denied, requested);
  EXPECT_GT(granted + denied, 0.0);
  EXPECT_LE(granted, static_cast<double>(pool.granted_total()));
  EXPECT_LE(denied, static_cast<double>(pool.denied_total()));
  EXPECT_EQ(requested, static_cast<double>(pool.granted_total() + pool.denied_total()));
}

TEST(CampusTest, RandomizedDifferentialShardedVsReference) {
  // Deterministically-randomized campus shapes: every draw comes from a
  // named sim RNG stream, so failures reproduce exactly.
  sim::RngStream rng = sim::RngFactory{20260808}.stream("campus-difftest");
  for (int trial = 0; trial < 4; ++trial) {
    const int halls = static_cast<int>(rng.uniform_int(2, 4));
    const std::uint64_t seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1000));
    CampusConfig cfg = tiny_config(seed);
    cfg.traffic_period = Duration::minutes(static_cast<double>(rng.uniform_int(7, 45)));
    cfg.flows_per_tick = static_cast<int>(rng.uniform_int(1, 3));
    cfg.spare_audit_period = Duration::hours(static_cast<double>(rng.uniform_int(1, 6)));
    const topology::CampusBlueprint bp = tiny_campus(halls, /*coupled=*/true);
    const std::string what = "trial " + std::to_string(trial) + " halls " +
                             std::to_string(halls) + " seed " + std::to_string(seed);
    const CampusSignature reference = run_campus(bp, cfg, Duration::hours(30), /*shards=*/1);
    const CampusSignature sharded = run_campus(bp, cfg, Duration::hours(30), /*shards=*/2);
    expect_equal(reference, sharded, what);
  }
}

TEST(ShardPoolTest, RunsEveryTaskExactlyOnceAcrossRounds) {
  runner::ShardPool pool{4};
  EXPECT_EQ(pool.shards(), 4);
  std::vector<std::atomic<int>> counts(64);
  for (int round = 0; round < 10; ++round) {
    std::vector<runner::ShardPool::Task> tasks;
    tasks.reserve(counts.size());
    for (std::size_t i = 0; i < counts.size(); ++i) {
      tasks.push_back([&counts, i] { counts[i].fetch_add(1, std::memory_order_relaxed); });
    }
    pool.run(tasks);
  }
  for (const std::atomic<int>& c : counts) EXPECT_EQ(c.load(), 10);
}

TEST(ShardPoolTest, SingleShardRunsInline) {
  runner::ShardPool pool{1};
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<runner::ShardPool::Task> tasks;
  std::vector<std::thread::id> ran_on(3);
  for (std::size_t i = 0; i < ran_on.size(); ++i) {
    tasks.push_back([&ran_on, i] { ran_on[i] = std::this_thread::get_id(); });
  }
  pool.run(tasks);
  for (const std::thread::id& id : ran_on) EXPECT_EQ(id, caller);
  std::vector<runner::ShardPool::Task> empty;
  pool.run(empty);  // no-op, must not deadlock
}

TEST(CampusSweep, ShardAndJobCountInvariantReports) {
  // The in-process version of the CI gate: campus-preset sweep JSON must be
  // byte-identical across every jobs x shards combination once timing fields
  // are excluded.
  const runner::SweepSpec spec =
      runner::make_sweep("campus", sim::Duration::days(2), /*first_seed=*/1, /*seeds=*/2);
  ASSERT_EQ(spec.cells.size(), 1u);
  ASSERT_TRUE(spec.cells[0].is_campus());

  const runner::JsonOptions no_timing{.include_timing = false};
  std::string reference;
  for (const auto& [jobs, shards] : std::vector<std::pair<int, int>>{
           {1, 1}, {1, 2}, {1, 4}, {2, 2}}) {
    runner::SweepRunner sweeper;
    runner::SweepRunner::Options opts;
    opts.jobs = jobs;
    opts.shards = shards;
    const runner::SweepReport report = sweeper.run(spec, opts);
    EXPECT_EQ(report.replicates_done, 2u);
    const std::string json = runner::to_json(report, no_timing);
    if (reference.empty()) {
      reference = json;
      EXPECT_NE(json.find("campus/L3"), std::string::npos);
    } else {
      EXPECT_EQ(json, reference) << "jobs=" << jobs << " shards=" << shards;
    }
  }
}

TEST(CampusSweep, SurvivabilityCurvesAreShardInvariant) {
  // The survivability preset's campus cell aggregates per-hall frontiers.
  // Frontiers are computed on the calling thread in hall order, so curves,
  // hashes, and the full report must be byte-identical at any shard width.
  const runner::SweepSpec preset =
      runner::make_sweep("survivability", sim::Duration::days(1), /*first_seed=*/1, /*seeds=*/1);
  runner::SweepSpec spec;
  spec.first_seed = preset.first_seed;
  spec.seeds = 1;
  spec.duration = preset.duration;
  for (const runner::CellSpec& cell : preset.cells) {
    if (cell.is_campus()) spec.cells.push_back(cell);
  }
  ASSERT_EQ(spec.cells.size(), 1u);
  spec.cells[0].config.survivability.orderings = 4;  // keep the unit budget

  const runner::ReplicateResult one =
      runner::SweepRunner::run_replicate(spec.cells[0], 0, 1, spec.duration,
                                         /*sample_trace=*/false, /*shards=*/1);
  const runner::ReplicateResult two =
      runner::SweepRunner::run_replicate(spec.cells[0], 0, 1, spec.duration,
                                         /*sample_trace=*/false, /*shards=*/2);
  const runner::ReplicateResult four =
      runner::SweepRunner::run_replicate(spec.cells[0], 0, 1, spec.duration,
                                         /*sample_trace=*/false, /*shards=*/4);
  ASSERT_TRUE(one.survivability.present());
  // 4 halls x 4 orderings aggregated into one campus frontier.
  EXPECT_EQ(one.survivability.samples, 16u);
  for (const runner::ReplicateResult* other : {&two, &four}) {
    EXPECT_EQ(one.trace_hash, other->trace_hash);
    EXPECT_EQ(one.metrics_hash, other->metrics_hash);
    EXPECT_EQ(one.survivability.hash, other->survivability.hash);
    EXPECT_EQ(one.survivability.largest_component.mean,
              other->survivability.largest_component.mean);
    EXPECT_EQ(one.survivability.server_reachability.ci95,
              other->survivability.server_reachability.ci95);
    EXPECT_EQ(one.metrics[runner::kSurvivabilityAucConnectivity],
              other->metrics[runner::kSurvivabilityAucConnectivity]);
  }
  // The campus-aggregate frontier instruments ride the merged snapshot.
  bool has_auc_gauge = false;
  for (const obs::SnapshotEntry& e : one.obs_snapshot) {
    if (e.name == "survivability_auc_connectivity") has_auc_gauge = true;
  }
  EXPECT_TRUE(has_auc_gauge);

  // Full-report byte identity across jobs x shards, curves included.
  const runner::JsonOptions no_timing{.include_timing = false};
  std::string reference;
  for (const auto& [jobs, shards] : std::vector<std::pair<int, int>>{{1, 1}, {1, 2}, {2, 4}}) {
    runner::SweepRunner sweeper;
    runner::SweepRunner::Options opts;
    opts.jobs = jobs;
    opts.shards = shards;
    const std::string json = runner::to_json(sweeper.run(spec, opts), no_timing);
    if (reference.empty()) {
      reference = json;
      EXPECT_NE(json.find("\"survivability\""), std::string::npos);
    } else {
      EXPECT_EQ(json, reference) << "jobs=" << jobs << " shards=" << shards;
    }
  }
}

TEST(CampusSweep, CampusCellMetricsAreAggregatedAcrossHalls) {
  const runner::SweepSpec spec =
      runner::make_sweep("campus", sim::Duration::days(1), /*first_seed=*/1, /*seeds=*/1);
  const runner::ReplicateResult r =
      runner::SweepRunner::run_replicate(spec.cells[0], 0, 1, spec.duration);
  EXPECT_GT(r.events, 0u);
  EXPECT_NE(r.trace_hash, 0u);
  EXPECT_GT(r.metrics[runner::kAvailability], 0.0);
  EXPECT_LE(r.metrics[runner::kAvailability], 1.0);
  // The merged snapshot carries the campus-coupling instruments.
  bool has_campus_instrument = false;
  for (const obs::SnapshotEntry& e : r.obs_snapshot) {
    if (e.name == "campus_xtraffic_tx_total") has_campus_instrument = true;
  }
  EXPECT_TRUE(has_campus_instrument);
}

}  // namespace
}  // namespace smn
