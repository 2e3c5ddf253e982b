// SMN_ASSERT / SMN_DCHECK semantics and the runtime invariant sweeps: a
// passing sweep on healthy components, and death tests proving corruption is
// actually detected (ISSUE acceptance: "invariant violations detected").
#include "core/check.h"

#include <gtest/gtest.h>

#include "maintenance/ticket.h"
#include "net/network.h"
#include "scenario/world.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "storage/stripe_pool.h"
#include "topology/builders.h"

namespace smn {
namespace {

using sim::Duration;
using sim::TimePoint;

TEST(Check, AssertPassesOnTrueCondition) {
  SMN_ASSERT(1 + 1 == 2);
  SMN_ASSERT(true, "context %d never rendered", 42);
}

TEST(CheckDeathTest, AssertAbortsAndPrintsExpression) {
  EXPECT_DEATH(SMN_ASSERT(2 + 2 == 5), "SMN_CHECK failed: 2 \\+ 2 == 5");
}

TEST(CheckDeathTest, AssertPrintsContextMessage) {
  const int got = 7;
  EXPECT_DEATH(SMN_ASSERT(got == 3, "got=%d want=3", got), "context: got=7 want=3");
}

TEST(Check, DcheckCompilesInBothModes) {
#if SMN_DCHECK_IS_ON
  EXPECT_DEATH(SMN_DCHECK(false, "dcheck active"), "SMN_CHECK failed");
#else
  SMN_DCHECK(false, "compiled away; must not abort");
#endif
}

TEST(Check, SimulatorInvariantsHoldThroughRunAndCancellation) {
  sim::Simulator sim;
  const sim::EventId id = sim.schedule_after(Duration::seconds(5), [] {});
  sim.schedule_after(Duration::seconds(1), [] {});
  sim.cancel(id);
  sim.cancel(sim::EventId{424242});  // stale id: must not poison bookkeeping
  sim.check_invariants();
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  sim.check_invariants();
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Check, WorldInvariantSweepPassesOnHealthyRun) {
  scenario::WorldConfig cfg = scenario::WorldConfig::for_level(core::AutomationLevel::kL3_HighAutomation);
  cfg.seed = 11;
  // Force several in-simulation sweeps on top of the explicit final one.
  cfg.invariant_interval = Duration::hours(12);
  scenario::World world{topology::build_leaf_spine({.leaves = 4, .spines = 2, .servers_per_leaf = 2}),
                        cfg};
  world.run_for(Duration::days(5));
  world.check_invariants();
}

TEST(CheckDeathTest, NetworkDetectsCorruptedLinkEndpoint) {
  sim::Simulator sim;
  net::Network network{topology::build_leaf_spine({.leaves = 2, .spines = 2, .servers_per_leaf = 1}),
                       {}, sim};
  network.check_invariants();
  // Point a link at a device that does not exist; the referential-integrity
  // sweep must catch it.
  network.link_mut(net::LinkId{0}).end_a.device = net::DeviceId{10000};
  EXPECT_DEATH(network.check_invariants(), "out of range");
}

TEST(CheckDeathTest, NetworkDetectsOutOfRangeContamination) {
  sim::Simulator sim;
  net::Network network{topology::build_leaf_spine({.leaves = 2, .spines = 2, .servers_per_leaf = 1}),
                       {}, sim};
  network.link_mut(net::LinkId{0}).end_b.condition.contamination = 1.5;
  EXPECT_DEATH(network.check_invariants(), "out of \\[0,1\\]");
}

TEST(CheckDeathTest, StripePoolDetectsReusedServer) {
  sim::Simulator sim;
  net::Network network{topology::build_leaf_spine({.leaves = 2, .spines = 2, .servers_per_leaf = 2}),
                       {}, sim};
  const std::vector<net::DeviceId>& servers = network.servers();
  ASSERT_GE(servers.size(), 4u);
  storage::StripePool::Config cfg;
  cfg.data_units = 2;
  // 2+1 stripes: stripe 0 is legal; stripe 1 puts both data units on one
  // server.
  cfg.explicit_placements = {{servers[0], servers[1], servers[2]},
                             {servers[3], servers[3], servers[0]}};
  sim::RngStream rng = sim::RngFactory{1}.stream("unused");
  const storage::StripePool pool{network, rng, cfg};
  EXPECT_DEATH(pool.check_invariants(), "stripe 1 reuses a server");
}

TEST(Check, TicketInvariantsHoldThroughLifecycle) {
  maintenance::TicketSystem tickets;
  const TimePoint t0 = TimePoint::origin() + Duration::hours(1);
  const int id = *tickets.open(t0, net::LinkId{3}, telemetry::IssueKind::kDown, true);
  tickets.check_invariants();
  tickets.mark_dispatched(id, t0 + Duration::minutes(5));
  tickets.mark_started(id, t0 + Duration::minutes(30));
  tickets.check_invariants();
  tickets.mark_resolved(id, t0 + Duration::hours(2), "robot");
  tickets.check_invariants();
  // A second ticket for the same link is legal once the first closed.
  ASSERT_TRUE(tickets.open(t0 + Duration::hours(3), net::LinkId{3},
                           telemetry::IssueKind::kFlapping, true)
                  .has_value());
  tickets.check_invariants();
}

}  // namespace
}  // namespace smn
