// Zero-allocation contracts of the steady-state hot loops: once a warm-up has
// grown every arena and scratch buffer to its working size, the loop must not
// touch the heap again.
//   * the event engine: schedule/cancel/execute with fom-sized captures;
//   * the fault calendars: the hourly drain, gray candidates and re-checks
//     after repairs, reseats and vibration (the fault log's own growth aside);
//   * the storage data plane: the healthy-fabric clean-read tick;
//   * the survivability frontier: make_ordering + replay, both failure modes,
//     and aggregation, whose allocations do not grow with the curve length;
//   * the campus exchange: barriers, gathers and cross-hall deliveries;
//   * the tray index: tray-mate queries into a reused buffer.
//
// The counter is a program-wide replacement of global operator new, so these
// tests build as their own executable (smn_alloc_tests) and never share a
// process with smn_tests.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "analysis/survivability.h"
#include "fault/environment.h"
#include "fault/injector.h"
#include "net/network.h"
#include "runner/presets.h"
#include "scenario/campus.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "storage/data_plane.h"
#include "topology/builders.h"
#include "topology/campus.h"
#include "topology/tray_index.h"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace smn {
namespace {

[[nodiscard]] std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

TEST(ZeroAlloc, EventQueueScheduleCancelExecute) {
  constexpr int kRounds = 32;
  constexpr int kBatch = 4096;
  sim::Simulator sim;
  std::uint64_t sink = 0;
  std::vector<sim::EventId> cancels;  // capacity reached in warm-up, then reused
  auto one_round = [&] {
    cancels.clear();
    for (int i = 0; i < kBatch; ++i) {
      // The fom wakeup shape: one pointer + one index, well inside the
      // inline budget.
      sim.schedule_after(sim::Duration::seconds(60.0 + i), [&sink, i] {
        sink += static_cast<std::uint64_t>(i);
      });
      cancels.push_back(sim.schedule_after(sim::Duration::seconds(90.0 + i), [&sink, i] {
        sink += static_cast<std::uint64_t>(i) * 3;
      }));
    }
    // Half the pending work is cancelled (re-armed wakeups), half executes;
    // the round then drains fully so every round sees the same working set.
    for (const sim::EventId id : cancels) sim.cancel(id);
    sim.run_until(sim.now() + sim::Duration::hours(2.0));
  };
  one_round();  // warm-up: arena, heap and cancels vector reach working size

  const std::uint64_t before = allocs();
  for (int r = 0; r < kRounds; ++r) one_round();
  EXPECT_EQ(allocs() - before, 0u) << "heap allocations across " << kRounds * 2 * kBatch
                                   << " steady-state events";
  // Every round ran exactly its uncancelled half.
  constexpr std::uint64_t kRoundSum = std::uint64_t{kBatch} * (kBatch - 1) / 2;
  EXPECT_EQ(sink, (kRounds + 1) * kRoundSum);
}

TEST(ZeroAlloc, FaultCalendarTick) {
  sim::Simulator sim;
  const topology::Blueprint bp = runner::standard_fabric();
  net::Network net{bp, net::Network::Config{}, sim};
  fault::Environment env;
  sim::RngFactory rngs{23};
  fault::FaultInjector::Config cfg;  // accelerated: faults every few hours
  cfg.transceiver_afr = 0.5;
  cfg.cable_afr = 0.2;
  cfg.switch_afr = 0.3;
  cfg.server_nic_afr = 0.1;
  cfg.linecard_afr = 0.3;
  cfg.gray_rate_per_year = 3.0;
  fault::FaultInjector injector{net, env, rngs.stream("faults"), cfg};
  std::uint64_t log_growths = 0;
  std::size_t log_capacity = 0;
  injector.subscribe([&](const fault::FaultEvent&) {
    if (injector.log().capacity() != log_capacity) ++log_growths;
    log_capacity = injector.log().capacity();
  });
  injector.start();
  // A daily crew: restores dead hardware, reseats ends, shakes a row.
  // Every touch ends in refresh_link, so the calendars re-check it.
  std::int32_t next_reseat = 0;
  sim.schedule_every(sim::Duration::days(1), [&] {
    for (const net::Link& l : net.links()) {
      net::Link& m = net.link_mut(l.id);
      m.end_a.condition.transceiver_healthy = true;
      m.end_b.condition.transceiver_healthy = true;
      m.cable.intact = true;
      net.refresh_link(l.id);
    }
    for (const net::Device& d : net.devices()) {
      if (!d.healthy) net.set_device_health(d.id, true);
      for (std::size_t c = 0; c < d.linecards_healthy.size(); ++c) {
        if (!d.linecards_healthy[c]) net.set_linecard_health(d.id, static_cast<int>(c), true);
      }
    }
    // Two dozen reseats a day: each redraws a calendar entry, so stale heap
    // entries pile up and the heap compacts in place several times.
    for (int i = 0; i < 24; ++i) {
      const net::LinkId reseat{next_reseat++ % static_cast<std::int32_t>(net.links().size())};
      net::EndCondition& end = net.link_mut(reseat).end_a.condition;
      end.reseat_count += 1;
      net::reset_contacts(end);
      net.refresh_link(reseat);
    }
    env.add_vibration(sim.now(), sim::Duration::hours(3.0), 0.5);
    env.prune(sim.now());
  });
  // Warm-up. The calendars reach their working size at arming; the event
  // engine's arena grows to the peak of concurrently pending events, so a
  // burst of no-ops takes it past any peak this fabric reaches.
  for (int i = 0; i < 512; ++i) sim.schedule_after(sim::Duration::seconds(1.0), [] {});
  sim.run_until(sim.now() + sim::Duration::days(30.0));

  const std::size_t faults_before = injector.log().size();
  log_growths = 0;
  const std::uint64_t before = allocs();
  sim.run_until(sim.now() + sim::Duration::days(60.0));
  const std::uint64_t steady = allocs() - before;
  const std::size_t faults = injector.log().size() - faults_before;
  EXPECT_EQ(steady, log_growths) << "heap allocations beyond the fault log's across " << faults
                                 << " faults in 60 steady-state days";
  EXPECT_GT(faults, 30u);
  net.check_invariants();
}

TEST(ZeroAlloc, StorageCleanReadTick) {
  sim::Simulator sim;
  const topology::Blueprint bp = runner::standard_fabric();
  net::Network net{bp, net::Network::Config{}, sim};
  sim::RngFactory rngs{17};
  storage::DataPlane::Config cfg;
  cfg.enabled = true;
  cfg.layout.stripes = 256;  // 8+2, the default layout
  cfg.read_interval = sim::Duration::minutes(1);
  cfg.reads_per_tick = 64;
  storage::DataPlane dp{net, rngs.stream("storage"), cfg};
  dp.start();
  sim.run_until(sim.now() + sim::Duration::hours(2.0));  // warm-up

  const std::uint64_t reads_before = dp.reads();
  const std::uint64_t before = allocs();
  sim.run_until(sim.now() + sim::Duration::days(4.0));
  const std::uint64_t steady = allocs() - before;
  const std::uint64_t reads = dp.reads() - reads_before;
  EXPECT_EQ(steady, 0u) << "heap allocations across " << reads << " steady-state reads";
  EXPECT_GT(reads, 0u);
  EXPECT_EQ(dp.degraded_reads(), 0u);  // the fabric stayed healthy
  dp.check_invariants();
}

TEST(ZeroAlloc, SurvivabilityReplayBothModes) {
  constexpr int kOrderings = 400;
  const topology::Blueprint bp = runner::standard_fabric();
  analysis::SurvivabilityFrontier engine{bp};
  for (const analysis::FailureMode mode :
       {analysis::FailureMode::kLinks, analysis::FailureMode::kSwitches}) {
    std::vector<std::int32_t> order;
    analysis::SurvivabilityCurves curves;
    engine.make_ordering(mode, 1, order);
    engine.replay(mode, order, curves);  // warm-up: scratch reaches steady size

    const std::uint64_t before = allocs();
    for (int i = 0; i < kOrderings; ++i) {
      engine.make_ordering(mode, static_cast<std::uint64_t>(i + 2), order);
      engine.replay(mode, order, curves);
    }
    EXPECT_EQ(allocs() - before, 0u)
        << analysis::to_string(mode) << ": heap allocations across " << kOrderings
        << " steady-state replays";
    EXPECT_EQ(curves.largest_component.size(), engine.element_count(mode) + 1);
  }
}

TEST(ZeroAlloc, TrayMates) {
  const topology::Blueprint bp = topology::build_fat_tree({.k = 8});
  const topology::TrayIndex index{bp};
  const auto links = static_cast<std::int32_t>(bp.links().size());
  std::vector<std::int32_t> mates;
  for (std::int32_t l = 0; l < links; ++l) index.mates(l, mates);  // warm-up

  const std::uint64_t before = allocs();
  std::size_t total = 0;
  for (std::int32_t l = 0; l < links; ++l) {
    index.mates(l, mates);
    total += mates.size();
  }
  EXPECT_EQ(allocs() - before, 0u) << "heap allocations across " << links << " mates queries";
  EXPECT_GT(total, 0u);
}

TEST(ZeroAlloc, SurvivabilityAggregationIsFlatInCurveLength) {
  // One aggregate_curves call allocates its output and scratch once, however
  // many points the curves have: the standard hall's 144 links cost no more
  // allocations than a 16-link fabric.
  constexpr int kSamples = 16;
  const auto allocs_of_one_call = [](const topology::Blueprint& bp) {
    analysis::SurvivabilityFrontier engine{bp};
    const analysis::FailureMode mode = analysis::FailureMode::kLinks;
    std::vector<analysis::SurvivabilityCurves> samples(kSamples);
    std::vector<std::int32_t> order;
    for (int i = 0; i < kSamples; ++i) {
      engine.make_ordering(mode, static_cast<std::uint64_t>(i + 1), order);
      engine.replay(mode, order, samples[static_cast<std::size_t>(i)]);
    }
    const std::uint64_t before = allocs();
    const analysis::FrontierResult r = analysis::aggregate_curves(
        mode, engine.element_count(mode), engine.device_count(), engine.server_count(), samples);
    const std::uint64_t used = allocs() - before;
    EXPECT_EQ(r.samples, static_cast<std::size_t>(kSamples));
    return used;
  };
  const topology::Blueprint small =
      topology::build_leaf_spine({.leaves = 4, .spines = 2, .servers_per_leaf = 2});
  const topology::Blueprint standard = runner::standard_fabric();
  ASSERT_EQ(small.links().size(), 16u);
  ASSERT_EQ(standard.links().size(), 144u);
  EXPECT_EQ(allocs_of_one_call(standard), allocs_of_one_call(small));
}

TEST(ZeroAlloc, CampusExchange) {
  // A coupled campus whose halls never fault: what runs is the coordinator —
  // the barriers at the 30-minute traffic instants, the gathers and the
  // cross-hall deliveries — plus each hall's idle event loop. The invariant
  // sweep is off because Simulator::check_invariants allocates its scratch.
  topology::CampusParams params;
  params.halls = 4;
  params.hall = {.leaves = 2, .spines = 1, .servers_per_leaf = 1};
  scenario::CampusConfig cfg;
  cfg.hall = scenario::WorldConfig::for_level(core::AutomationLevel::kL3_HighAutomation);
  cfg.hall.seed = 29;
  cfg.hall.faults.transceiver_afr = 0.0;
  cfg.hall.faults.cable_afr = 0.0;
  cfg.hall.faults.switch_afr = 0.0;
  cfg.hall.faults.server_nic_afr = 0.0;
  cfg.hall.faults.linecard_afr = 0.0;
  cfg.hall.faults.gray_rate_per_year = 0.0;
  cfg.hall.contamination.mean_accumulation_per_day = 0.0;
  cfg.hall.invariant_interval = sim::Duration::zero();
  cfg.traffic_period = sim::Duration::minutes(30);
  cfg.spare_audit_period = sim::Duration::hours(3);
  scenario::Campus campus{topology::build_campus(params), cfg};
  campus.run_for(sim::Duration::days(1));  // warm-up: outboxes, arenas, pending list

  const std::uint64_t barriers_before = campus.barriers_passed();
  const std::uint64_t messages_before = campus.messages_exchanged();
  const std::uint64_t before = allocs();
  campus.run_for(sim::Duration::days(1));
  const std::uint64_t steady = allocs() - before;
  const std::uint64_t messages = campus.messages_exchanged() - messages_before;
  EXPECT_EQ(steady, 0u) << "heap allocations across " << messages << " exchanged messages";
  EXPECT_EQ(campus.barriers_passed() - barriers_before, 48u);
  EXPECT_GT(messages, 0u);
  EXPECT_EQ(campus.spare_pool().granted_total() + campus.spare_pool().denied_total(), 0u);
}

}  // namespace
}  // namespace smn
