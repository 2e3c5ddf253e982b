// Chaos suite: heavy randomized fault storms across seeds and automation
// levels, asserting the global invariants that must survive anything —
// no leaked drains, no stuck tickets, no unrepaired hardware once the storm
// stops, and bounded statistics.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "scenario/world.h"
#include "test_util.h"
#include "topology/builders.h"

namespace smn::scenario {
namespace {

using core::AutomationLevel;
using sim::Duration;

struct ChaosCase {
  std::uint64_t seed;
  AutomationLevel level;
};

std::string case_name(const ChaosCase& c) {
  return "seed" + std::to_string(c.seed) + "_L" + std::to_string(static_cast<int>(c.level));
}

// Without a printer gtest renders the case as raw bytes, padding included,
// and the ctest names change from build to build.
void PrintTo(const ChaosCase& c, std::ostream* os) { *os << case_name(c); }

class ChaosStorm : public ::testing::TestWithParam<ChaosCase> {};

TEST_P(ChaosStorm, SurvivesAndConverges) {
  const ChaosCase param = GetParam();
  const topology::Blueprint bp = topology::build_leaf_spine(
      {.leaves = 6, .spines = 3, .servers_per_leaf = 4, .uplinks_per_spine = 2});

  WorldConfig cfg = WorldConfig::for_level(param.level);
  cfg.network = testutil::short_aoc();
  cfg.network.chassis_ports_per_linecard = 4;
  cfg.seed = param.seed;
  // Storm-grade rates: an order of magnitude past the accelerated defaults.
  cfg.faults.transceiver_afr = 1.5;
  cfg.faults.cable_afr = 0.3;
  cfg.faults.switch_afr = 0.2;
  cfg.faults.server_nic_afr = 0.1;
  cfg.faults.linecard_afr = 0.3;
  cfg.faults.gray_rate_per_year = 12.0;
  cfg.faults.oxidation_rate_per_year = 3.0;
  cfg.contamination.mean_accumulation_per_day = 0.02;
  cfg.detection.false_positive_per_year = 2.0;
  World world{bp, cfg};
  world.run_for(Duration::days(45));

  // The storm produced real work.
  EXPECT_GT(world.injector().log().size(), 20u);
  EXPECT_GT(world.tickets().total(), 5u);

  // Invariants during and after the storm.
  const double avail = world.availability().fleet_availability();
  EXPECT_GE(avail, 0.0);
  EXPECT_LE(avail, 1.0);
  for (const maintenance::Ticket& t : world.tickets().all()) {
    EXPECT_LE(t.actions_taken, world.controller().config().max_attempts_per_ticket);
    if (t.state == maintenance::TicketState::kResolved) {
      EXPECT_GE(t.resolved.count_us(), t.opened.count_us());
    }
  }

  // Stop the weather and let the repair machinery drain the backlog.
  world.injector().stop();
  world.contamination().stop();
  world.run_for(Duration::days(30));

  // Every drain must have been restored (parked links would count too, but
  // no EnergyManager runs here).
  for (const net::Link& l : world.network().links()) {
    EXPECT_FALSE(l.admin_down) << "leaked drain on link " << l.id.value();
  }
  // Hard-down links should be essentially gone. Allow a small residue for
  // tickets cancelled at the attempt cap (they re-detect and eventually
  // clear; at storm rates a few may still be in flight).
  EXPECT_LE(world.network().count_links(net::LinkState::kDown), 2u);
  // No ticket left dangling in dispatched/in-progress forever: anything
  // still open must be younger than the drain window.
  for (const maintenance::Ticket& t : world.tickets().all()) {
    if (t.state == maintenance::TicketState::kOpen ||
        t.state == maintenance::TicketState::kDispatched ||
        t.state == maintenance::TicketState::kInProgress) {
      EXPECT_GT(t.opened + Duration::days(30), world.now() - Duration::days(30));
    }
  }
}

std::vector<ChaosCase> chaos_cases() {
  std::vector<ChaosCase> cases;
  const AutomationLevel levels[] = {
      AutomationLevel::kL0_Manual, AutomationLevel::kL2_PartialAutomation,
      AutomationLevel::kL3_HighAutomation, AutomationLevel::kL4_FullAutomation};
  std::uint64_t seed = 1000;
  for (const AutomationLevel level : levels) {
    for (int i = 0; i < 3; ++i) cases.push_back({seed++, level});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Storms, ChaosStorm, ::testing::ValuesIn(chaos_cases()),
                         [](const auto& pi) { return case_name(pi.param); });

}  // namespace
}  // namespace smn::scenario
