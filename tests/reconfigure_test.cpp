// Tests for Network::rewire and the robotic topology reconfigurer.
#include <gtest/gtest.h>

#include "core/reconfigure.h"
#include "fault/cascade.h"
#include "net/traffic.h"
#include "test_util.h"
#include "topology/builders.h"

namespace smn::core {
namespace {

using sim::Duration;

struct RewireFixture : ::testing::Test {
  sim::Simulator sim;
  topology::Blueprint bp = topology::build_leaf_spine(
      {.leaves = 4, .spines = 2, .servers_per_leaf = 4, .uplinks_per_spine = 2});
  net::Network net{bp, testutil::short_aoc(), sim};
};

TEST_F(RewireFixture, RewireMovesEndpointsAndIndexes) {
  const auto leaves = net.devices_with_role(topology::NodeRole::kTorSwitch);
  const auto spines = net.devices_with_role(topology::NodeRole::kSpineSwitch);
  const net::LinkId lid = net.links_between(leaves[0], spines[0])[0];
  const std::size_t before_at_l0 = net.links_at(leaves[0]).size();
  const std::size_t before_at_l1 = net.links_at(leaves[1]).size();

  net.rewire(lid, leaves[1], spines[0]);

  const net::Link& l = net.link(lid);
  EXPECT_EQ(l.end_a.device, leaves[1]);
  EXPECT_EQ(l.end_b.device, spines[0]);
  EXPECT_EQ(l.state, net::LinkState::kUp);  // fresh hardware
  EXPECT_EQ(net.links_at(leaves[0]).size(), before_at_l0 - 1);
  EXPECT_EQ(net.links_at(leaves[1]).size(), before_at_l1 + 1);
  EXPECT_EQ(net.links_between(leaves[1], spines[0]).size(), 3u);
  // The embedded blueprint followed.
  const topology::LinkSpec& spec = net.blueprint().link(l.topology_link_index);
  EXPECT_EQ(spec.node_a, leaves[1].value());
  EXPECT_GT(spec.route.length_m, 0.0);
  net.blueprint().validate();
}

TEST_F(RewireFixture, RewireResetsHardwareCondition) {
  const net::LinkId lid{0};
  net.link_mut(lid).end_a.condition.contamination = 0.9;
  net.link_mut(lid).cable.wear = 0.7;
  const auto spines = net.devices_with_role(topology::NodeRole::kSpineSwitch);
  const auto leaves = net.devices_with_role(topology::NodeRole::kTorSwitch);
  net.rewire(lid, leaves[2], spines[1]);
  EXPECT_DOUBLE_EQ(net.link(lid).end_a.condition.contamination, 0.0);
  EXPECT_DOUBLE_EQ(net.link(lid).cable.wear, 0.0);
}

TEST_F(RewireFixture, RewireRejectsSelfLoop) {
  const auto spines = net.devices_with_role(topology::NodeRole::kSpineSwitch);
  EXPECT_THROW(net.rewire(net::LinkId{0}, spines[0], spines[0]), std::invalid_argument);
}

TEST_F(RewireFixture, PortsStayUniquePerDevice) {
  const auto leaves = net.devices_with_role(topology::NodeRole::kTorSwitch);
  const auto spines = net.devices_with_role(topology::NodeRole::kSpineSwitch);
  while (!net.links_between(leaves[0], spines[0]).empty()) {
    net.rewire(net.links_between(leaves[0], spines[0])[0], leaves[1], spines[1]);
  }
  std::set<int> ports;
  for (const net::LinkId lid : net.links_at(leaves[1])) {
    const net::Link& l = net.link(lid);
    const int port = l.end_a.device == leaves[1] ? l.end_a.port : l.end_b.port;
    EXPECT_TRUE(ports.insert(port).second) << "duplicate port " << port;
  }
}

struct ReconfigureFixture : ::testing::Test {
  sim::Simulator sim;
  // Thin 100G uplinks make the *fabric* the bottleneck for the hot leaf
  // pair, which is the regime reconfiguration is for.
  topology::Blueprint bp = topology::build_leaf_spine({.leaves = 4,
                                                       .spines = 2,
                                                       .servers_per_leaf = 4,
                                                       .uplinks_per_spine = 1,
                                                       .server_gbps = 100.0,
                                                       .uplink_gbps = 100.0});
  net::Network net{bp, testutil::short_aoc(), sim};
  sim::RngFactory rngs{51};

  net::TrafficMatrix hot_pair_matrix() {
    net::TrafficMatrix tm;
    const auto servers = net.servers();
    // Leaf 0 hosts servers 0..3, leaf 1 hosts 4..7: saturate that direction.
    for (int s = 0; s < 4; ++s) {
      for (int d = 4; d < 8; ++d) {
        tm.flows.push_back(net::Flow{servers[static_cast<size_t>(s)],
                                     servers[static_cast<size_t>(d)], 30.0});
      }
    }
    return tm;
  }
};

TEST_F(ReconfigureFixture, PlanImprovesDeliveredGoodputAndRestoresWiring) {
  const net::TrafficMatrix tm = hot_pair_matrix();
  const net::LoadReport before = net::route_and_load(net, tm);
  ASSERT_LT(before.delivered_gbps, before.demand_gbps);  // fabric is the bottleneck

  std::vector<std::pair<int, int>> original_endpoints;
  for (const net::Link& l : net.links()) {
    original_endpoints.emplace_back(l.end_a.device.value(), l.end_b.device.value());
  }

  TopologyReconfigurer rec{net, nullptr};
  const TopologyReconfigurer::Plan plan = rec.plan(tm);
  EXPECT_FALSE(plan.moves.empty());
  EXPECT_GT(plan.delivered_after_gbps, plan.delivered_before_gbps);

  // plan() must leave the network exactly as it found it.
  for (const net::Link& l : net.links()) {
    const auto& [a, b] = original_endpoints[static_cast<size_t>(l.id.value())];
    EXPECT_EQ(l.end_a.device.value(), a);
    EXPECT_EQ(l.end_b.device.value(), b);
  }
  const net::LoadReport still = net::route_and_load(net, tm);
  EXPECT_NEAR(still.delivered_gbps, before.delivered_gbps, 1e-6);
}

TEST_F(ReconfigureFixture, ApplyInstantlyRealizesThePlan) {
  const net::TrafficMatrix tm = hot_pair_matrix();
  TopologyReconfigurer rec{net, nullptr};
  const auto plan = rec.plan(tm);
  ASSERT_FALSE(plan.moves.empty());
  rec.apply_instantly(plan);
  const net::LoadReport after = net::route_and_load(net, tm);
  EXPECT_NEAR(after.delivered_gbps, plan.delivered_after_gbps, 1e-6);
}

TEST_F(ReconfigureFixture, PlanNeverStealsServerAccessLinks) {
  TopologyReconfigurer rec{net, nullptr};
  const auto plan = rec.plan(hot_pair_matrix());
  for (const auto& m : plan.moves) {
    for (const auto& r : m.rewires) {
      EXPECT_TRUE(topology::is_switch(net.device(r.from_a).role));
      EXPECT_TRUE(topology::is_switch(net.device(r.from_b).role));
    }
  }
}

TEST_F(ReconfigureFixture, ApplyViaFleetRequiresCableCapability) {
  fault::Environment env;
  fault::FaultInjector injector{net, env, rngs.stream("inj")};
  fault::CascadeModel cascade{net, env, injector, rngs.stream("c")};
  fault::ContaminationProcess contamination{net, env, rngs.stream("co")};

  robotics::RobotFleet::Config no_cable = robotics::RobotFleet::row_coverage(bp);
  robotics::RobotFleet fleet{net, cascade, &contamination, rngs.stream("f"), no_cable};
  TopologyReconfigurer rec{net, &fleet};
  const auto plan = rec.plan(hot_pair_matrix());
  ASSERT_FALSE(plan.moves.empty());
  EXPECT_EQ(rec.apply(plan, nullptr), 0);  // refused: not cable-capable

  robotics::RobotFleet::Config with_cable = robotics::RobotFleet::row_coverage(bp);
  with_cable.can_replace_cable = true;
  with_cable.failure_per_job = 0.0;
  robotics::RobotFleet l4fleet{net, cascade, &contamination, rngs.stream("f4"), with_cable};
  TopologyReconfigurer rec4{net, &l4fleet};
  std::size_t total_rewires = 0;
  for (const auto& m : plan.moves) total_rewires += m.rewires.size();
  bool finished = false;
  const int dispatched = rec4.apply(plan, [&] { finished = true; });
  EXPECT_EQ(dispatched, static_cast<int>(total_rewires));
  sim.run_until(sim.now() + Duration::days(1));
  EXPECT_TRUE(finished);
  const net::LoadReport after = net::route_and_load(net, hot_pair_matrix());
  EXPECT_NEAR(after.delivered_gbps, plan.delivered_after_gbps, 1.0);
  for (const net::Link& l : net.links()) EXPECT_FALSE(l.admin_down);
}

}  // namespace
}  // namespace smn::core
