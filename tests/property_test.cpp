// Property-style parameterized suites: invariants that must hold across
// whole families of inputs, not just hand-picked cases.
#include <gtest/gtest.h>

#include <set>

#include "analysis/cost.h"
#include "core/escalation.h"
#include "fault/cascade.h"
#include "net/link.h"
#include "net/network.h"
#include "net/routing.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "test_util.h"
#include "topology/builders.h"
#include "topology/metrics.h"

namespace smn {
namespace {

using sim::Duration;
using sim::TimePoint;

// ---------- Blueprint invariants across every builder/size ----------

struct BlueprintCase {
  const char* name;
  topology::Blueprint (*build)();
};

// Without a printer, gtest renders each case (and with it the ctest name
// gtest_discover_tests records) as the raw bytes of the two pointers above,
// which move with ASLR on every run and with any layout change of the binary.
void PrintTo(const BlueprintCase& c, std::ostream* os) { *os << c.name; }

topology::Blueprint bp_fat4() { return topology::build_fat_tree({.k = 4}); }
topology::Blueprint bp_fat8() { return topology::build_fat_tree({.k = 8}); }
topology::Blueprint bp_ls_small() {
  return topology::build_leaf_spine({.leaves = 4, .spines = 2, .servers_per_leaf = 3});
}
topology::Blueprint bp_ls_wide() {
  return topology::build_leaf_spine(
      {.leaves = 20, .spines = 6, .servers_per_leaf = 10, .uplinks_per_spine = 2});
}
topology::Blueprint bp_jelly() {
  return topology::build_jellyfish(
      {.switches = 30, .network_degree = 6, .servers_per_switch = 3, .seed = 11});
}
topology::Blueprint bp_jelly_dense() {
  return topology::build_jellyfish(
      {.switches = 24, .network_degree = 12, .servers_per_switch = 2, .seed = 12});
}
topology::Blueprint bp_xpander() {
  return topology::build_xpander(
      {.network_degree = 6, .lift = 5, .servers_per_switch = 3, .seed = 13});
}
topology::Blueprint bp_gpu() {
  return topology::build_gpu_cluster({.gpu_servers = 12, .rails = 6, .spines = 2});
}

class BlueprintInvariants : public ::testing::TestWithParam<BlueprintCase> {};

TEST_P(BlueprintInvariants, ValidatesAndPortsAreConsistent) {
  const topology::Blueprint bp = GetParam().build();
  bp.validate();

  // ports_used on each node equals its link-endpoint count, and port numbers
  // are unique per node.
  std::vector<int> endpoint_count(bp.nodes().size(), 0);
  std::set<std::pair<int, int>> seen_ports;
  for (const topology::LinkSpec& l : bp.links()) {
    ++endpoint_count[static_cast<size_t>(l.node_a)];
    ++endpoint_count[static_cast<size_t>(l.node_b)];
    EXPECT_TRUE(seen_ports.insert({l.node_a, l.port_a}).second);
    EXPECT_TRUE(seen_ports.insert({l.node_b, l.port_b}).second);
  }
  for (std::size_t i = 0; i < bp.nodes().size(); ++i) {
    EXPECT_EQ(bp.nodes()[i].ports_used, endpoint_count[i]) << "node " << i;
  }
}

TEST_P(BlueprintInvariants, CableRoutesHavePositiveLengthAndValidSegments) {
  const topology::Blueprint bp = GetParam().build();
  for (const topology::LinkSpec& l : bp.links()) {
    EXPECT_GT(l.route.length_m, 0.0);
    const auto& la = bp.node(l.node_a).location;
    const auto& lb = bp.node(l.node_b).location;
    if (la.same_rack(lb)) {
      EXPECT_TRUE(l.route.segments.empty());
    } else {
      EXPECT_FALSE(l.route.segments.empty());
    }
  }
}

TEST_P(BlueprintInvariants, EveryServerIsConnected) {
  const topology::Blueprint bp = GetParam().build();
  const auto adj = bp.adjacency();
  for (std::size_t i = 0; i < bp.nodes().size(); ++i) {
    if (!topology::is_switch(bp.nodes()[i].role)) {
      EXPECT_FALSE(adj[i].empty()) << bp.nodes()[i].name;
    }
  }
}

TEST_P(BlueprintInvariants, MetricsAreFiniteAndInRange) {
  const topology::Blueprint bp = GetParam().build();
  const topology::WiringStats w = topology::compute_wiring_stats(bp);
  EXPECT_EQ(w.in_rack + w.same_row + w.cross_row, w.links);
  EXPECT_GE(w.max_length_m, w.mean_length_m);
  const topology::SelfMaintainability m = topology::compute_self_maintainability(bp);
  for (const double v : {m.reachability, m.occlusion, m.uniformity, m.blast_radius,
                         m.port_density, m.bundling}) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  EXPECT_GE(m.score, 0.0);
  EXPECT_LE(m.score, 100.0);
}

TEST_P(BlueprintInvariants, FullFabricIsFullyConnected) {
  sim::Simulator sim;
  const topology::Blueprint bp = GetParam().build();
  net::Network net{bp, net::Network::Config{}, sim};
  sim::RngFactory f{1};
  sim::RngStream rng = f.stream("prop");
  EXPECT_DOUBLE_EQ(net::sampled_pair_connectivity(net, rng, 50), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllBuilders, BlueprintInvariants,
    ::testing::Values(BlueprintCase{"fat4", bp_fat4}, BlueprintCase{"fat8", bp_fat8},
                      BlueprintCase{"ls_small", bp_ls_small},
                      BlueprintCase{"ls_wide", bp_ls_wide},
                      BlueprintCase{"jelly", bp_jelly},
                      BlueprintCase{"jelly_dense", bp_jelly_dense},
                      BlueprintCase{"xpander", bp_xpander}, BlueprintCase{"gpu", bp_gpu}),
    [](const auto& pi) { return pi.param.name; });

// ---------- Link state machine properties over the condition space ----------

class LinkStateProperty : public ::testing::TestWithParam<double> {};

TEST_P(LinkStateProperty, StateIsMonotoneInContamination) {
  // Higher contamination never makes the derived state better.
  const double c = GetParam();
  net::Link link;
  link.medium = net::CableMedium::kMpoOptical;
  link.end_a.condition.contamination = c;
  const auto rank = [](net::LinkState s) { return static_cast<int>(s); };
  const net::LinkState at_c = link.derive_state(TimePoint::origin(), true);
  link.end_a.condition.contamination = std::min(1.0, c + 0.25);
  const net::LinkState at_more = link.derive_state(TimePoint::origin(), true);
  EXPECT_GE(rank(at_more), rank(at_c));
}

TEST_P(LinkStateProperty, AdminDownAndDeviceDeathDominateEverything) {
  net::Link link;
  link.end_a.condition.contamination = GetParam();
  link.admin_down = true;
  EXPECT_EQ(link.derive_state(TimePoint::origin(), true), net::LinkState::kDown);
  link.admin_down = false;
  EXPECT_EQ(link.derive_state(TimePoint::origin(), false), net::LinkState::kDown);
}

TEST_P(LinkStateProperty, LossRateOrdersWithSeverity) {
  const double c = GetParam();
  net::Link link;
  link.end_b.condition.contamination = c;
  const net::LinkState s = link.derive_state(TimePoint::origin(), true);
  EXPECT_LE(net::Link::loss_rate(net::LinkState::kUp), net::Link::loss_rate(s));
  EXPECT_LE(net::Link::loss_rate(s), net::Link::loss_rate(net::LinkState::kDown));
}

INSTANTIATE_TEST_SUITE_P(ContaminationSweep, LinkStateProperty,
                         ::testing::Values(0.0, 0.1, 0.3, 0.34, 0.36, 0.5, 0.59, 0.61,
                                           0.8, 1.0));

// ---------- Escalation ladder properties ----------

class EscalationProperty : public ::testing::TestWithParam<int> {};

TEST_P(EscalationProperty, DecisionIsAlwaysLegalForTheMedium) {
  sim::Simulator sim;
  const topology::Blueprint bp = bp_ls_small();
  net::Network net{bp, testutil::short_aoc(), sim};
  maintenance::TicketSystem tickets;
  core::EscalationPolicy policy;

  const int attempts = GetParam();
  for (const net::Link& l : net.links()) {
    maintenance::Ticket t;
    t.id = 0;
    t.link = l.id;
    t.opened = sim.now();
    t.actions_taken = attempts;
    const core::EscalationDecision d = policy.decide(net, tickets, t);
    if (d.kind == maintenance::RepairActionKind::kClean) {
      EXPECT_TRUE(net::is_cleanable(l.medium));
    }
    if (maintenance::is_end_scoped(d.kind)) {
      EXPECT_TRUE(d.end == 0 || d.end == 1);
    }
  }
}

TEST_P(EscalationProperty, StageNeverDecreasesWithMoreAttempts) {
  sim::Simulator sim;
  const topology::Blueprint bp = bp_ls_small();
  net::Network net{bp, testutil::short_aoc(), sim};
  maintenance::TicketSystem tickets;
  core::EscalationPolicy policy;
  maintenance::Ticket t;
  t.id = 0;
  t.link = net::LinkId{0};
  t.opened = sim.now();
  t.actions_taken = GetParam();
  const int s1 = policy.stage_of(tickets, t);
  t.actions_taken += 1;
  EXPECT_GT(policy.stage_of(tickets, t), s1 - 1);
}

INSTANTIATE_TEST_SUITE_P(AttemptSweep, EscalationProperty,
                         ::testing::Range(0, 10));

// ---------- Simulator determinism under chunked execution ----------

class ChunkedExecution : public ::testing::TestWithParam<int> {};

TEST_P(ChunkedExecution, ChunkingDoesNotChangeEventOrder) {
  const int chunks = GetParam();
  auto run = [&](int parts) {
    sim::Simulator sim;
    sim::RngFactory f{99};
    sim::RngStream rng = f.stream("order");
    std::vector<int> order;
    for (int i = 0; i < 200; ++i) {
      sim.schedule_at(TimePoint::origin() +
                          Duration::milliseconds(rng.uniform(0, 10000)),
                      [&order, i] { order.push_back(i); });
    }
    const TimePoint end = TimePoint::origin() + Duration::seconds(11);
    for (int p = 1; p <= parts; ++p) {
      sim.run_until(TimePoint::origin() + (end - TimePoint::origin()) * (static_cast<double>(p) / parts));
    }
    return order;
  };
  EXPECT_EQ(run(1), run(chunks));
}

INSTANTIATE_TEST_SUITE_P(Chunks, ChunkedExecution, ::testing::Values(2, 3, 7, 50));

// ---------- RNG distribution sanity over parameter sweeps ----------

class WeibullProperty : public ::testing::TestWithParam<double> {};

TEST_P(WeibullProperty, SamplesArePositiveAndScaleRoughlyRight) {
  sim::RngFactory f{5};
  sim::RngStream s = f.stream("weibull");
  const double shape = GetParam();
  double sum = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const double v = s.weibull(shape, 100.0);
    ASSERT_GE(v, 0.0);
    sum += v;
  }
  // Mean of Weibull(k, lambda) = lambda * Gamma(1 + 1/k); for k in [0.5, 4]
  // that is within [0.88, 2.0] * lambda.
  EXPECT_GT(sum / n, 50.0);
  EXPECT_LT(sum / n, 250.0);
}

INSTANTIATE_TEST_SUITE_P(Shapes, WeibullProperty,
                         ::testing::Values(0.5, 0.8, 1.0, 1.5, 2.0, 4.0));

// ---------- Cascade contact-set properties ----------

TEST(CascadeProperty, FullRouteContactsAreASuperset) {
  sim::Simulator sim;
  const topology::Blueprint bp = bp_ls_wide();
  net::Network net{bp, testutil::short_aoc(), sim};
  fault::Environment env;
  sim::RngFactory f{17};
  fault::FaultInjector injector{net, env, f.stream("inj")};
  fault::CascadeModel cascade{net, env, injector, f.stream("c")};

  for (const net::Link& l : net.links()) {
    const net::DeviceId dev = l.end_a.device;
    fault::Disturbance faceplate{l.id, dev, 1.0, false};
    fault::Disturbance full{l.id, dev, 1.0, true};
    const auto small = cascade.predicted_contacts(faceplate);
    const auto big = cascade.predicted_contacts(full);
    const std::set<net::LinkId> big_set(big.begin(), big.end());
    for (const net::LinkId c : small) {
      EXPECT_TRUE(big_set.contains(c));
      EXPECT_NE(c, l.id);  // never predicts touching itself
    }
  }
}

// ---------- Cost model monotonicity ----------

class CostMonotone : public ::testing::TestWithParam<int> {};

TEST_P(CostMonotone, EachChannelIsMonotone) {
  analysis::CostConfig cfg;
  analysis::CostInputs base;
  base.technician_hours = 10;
  base.robot_busy_hours = 10;
  base.robot_units = 1;
  base.elapsed_years = 0.5;
  base.downtime_link_hours = 10;
  base.impaired_link_hours = 10;
  base.transceivers_replaced = 2;
  base.cables_replaced = 1;
  base.devices_replaced = 1;
  base.overprovisioned_links = 2;
  const double before = analysis::compute_cost(cfg, base).total_usd;

  analysis::CostInputs bumped = base;
  switch (GetParam()) {
    case 0: bumped.technician_hours += 5; break;
    case 1: bumped.robot_busy_hours += 5; break;
    case 2: bumped.robot_units += 1; break;
    case 3: bumped.downtime_link_hours += 5; break;
    case 4: bumped.impaired_link_hours += 5; break;
    case 5: bumped.transceivers_replaced += 1; break;
    case 6: bumped.cables_replaced += 1; break;
    case 7: bumped.devices_replaced += 1; break;
    case 8: bumped.overprovisioned_links += 1; break;
  }
  EXPECT_GT(analysis::compute_cost(cfg, bumped).total_usd, before);
}

INSTANTIATE_TEST_SUITE_P(Channels, CostMonotone, ::testing::Range(0, 9));

}  // namespace
}  // namespace smn
