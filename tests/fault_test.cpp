// Tests for environment dynamics, contamination accumulation, fault
// injection, and the cascade model.
#include <gtest/gtest.h>

#include "core/check.h"
#include "fault/cascade.h"
#include "fault/contamination.h"
#include "fault/environment.h"
#include "fault/injector.h"
#include "net/network.h"
#include "obs/obs.h"
#include "test_util.h"
#include "topology/builders.h"

namespace smn::fault {
namespace {

using sim::Duration;
using sim::TimePoint;

struct FaultFixture : ::testing::Test {
  sim::Simulator sim;
  topology::Blueprint bp = topology::build_leaf_spine(
      {.leaves = 4, .spines = 2, .servers_per_leaf = 2, .uplinks_per_spine = 2});
  net::Network net{bp, testutil::short_aoc(), sim};
  Environment env;
  sim::RngFactory rngs{77};
  FaultInjector injector{net, env, rngs.stream("inj")};
  CascadeModel cascade{net, env, injector, rngs.stream("casc")};
  ContaminationProcess contamination{net, env, rngs.stream("cont")};

  net::LinkId optical_link() const {
    for (const net::Link& l : net.links()) {
      if (net::is_cleanable(l.medium)) return l.id;
    }
    throw std::logic_error{"no optical link in fixture"};
  }
};

TEST(Environment, DiurnalTemperatureCycles) {
  Environment env;
  double lo = 1e9, hi = -1e9;
  for (int h = 0; h < 24; ++h) {
    const double t = env.temperature_c(TimePoint::origin() + Duration::hours(h));
    lo = std::min(lo, t);
    hi = std::max(hi, t);
  }
  EXPECT_NEAR(lo, 24.0 - 3.0, 0.2);
  EXPECT_NEAR(hi, 24.0 + 3.0, 0.2);
  // 24h periodicity.
  EXPECT_NEAR(env.temperature_c(TimePoint::origin() + Duration::hours(5)),
              env.temperature_c(TimePoint::origin() + Duration::hours(29)), 1e-9);
}

TEST(Environment, HumidityStaysInRange) {
  Environment env;
  for (int h = 0; h < 48; ++h) {
    const double v = env.humidity(TimePoint::origin() + Duration::hours(h));
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(Environment, VibrationEventsAddAndExpire) {
  Environment env;
  const TimePoint t0 = TimePoint::origin() + Duration::hours(1);
  const double ambient = env.vibration(t0);
  env.add_vibration(t0, Duration::minutes(5), 0.5);
  EXPECT_DOUBLE_EQ(env.vibration(t0), ambient + 0.5);
  EXPECT_DOUBLE_EQ(env.vibration(t0 + Duration::minutes(4)), ambient + 0.5);
  EXPECT_DOUBLE_EQ(env.vibration(t0 + Duration::minutes(5)), ambient);
  env.prune(t0 + Duration::minutes(6));
  EXPECT_DOUBLE_EQ(env.vibration(t0 + Duration::minutes(1)), ambient);  // pruned
}

TEST(Environment, VibrationRaisesStress) {
  Environment env;
  const TimePoint t = TimePoint::origin();
  const double base = env.stress_factor(t);
  env.add_vibration(t, Duration::minutes(5), 1.0);
  EXPECT_GT(env.stress_factor(t), base + 1.0);
}

TEST(Environment, IgnoresNonPositiveVibration) {
  Environment env;
  const TimePoint t = TimePoint::origin();
  const double base = env.vibration(t);
  env.add_vibration(t, Duration::minutes(5), 0.0);
  env.add_vibration(t, Duration::zero(), 1.0);
  EXPECT_DOUBLE_EQ(env.vibration(t), base);
}

TEST_F(FaultFixture, ContaminationAccumulatesOnOpticalEndsOnly) {
  contamination.start();
  sim.run_until(TimePoint::origin() + Duration::days(30));
  bool optical_dirty = false;
  for (const net::Link& l : net.links()) {
    const double c =
        l.end_a.condition.contamination + l.end_b.condition.contamination;
    if (net::is_cleanable(l.medium)) {
      optical_dirty |= c > 0.0;
    } else {
      EXPECT_DOUBLE_EQ(c, 0.0) << "non-optical link contaminated";
    }
  }
  EXPECT_TRUE(optical_dirty);
  EXPECT_GT(contamination.total_contamination(), 0.0);
}

TEST_F(FaultFixture, ContaminationEventuallyDegradesLinks) {
  ContaminationProcess::Config fast;
  fast.mean_accumulation_per_day = 0.05;  // accelerated
  ContaminationProcess proc{net, env, rngs.stream("fastcont"), fast};
  proc.start();
  sim.run_until(TimePoint::origin() + Duration::days(60));
  EXPECT_GT(net.count_links(net::LinkState::kDegraded) +
                net.count_links(net::LinkState::kFlapping),
            0u);
}

TEST_F(FaultFixture, ExposureBumpsContamination) {
  const net::LinkId lid = optical_link();
  double before = net.link(lid).end_a.condition.contamination;
  // Exposure is probabilistic; repeat until it takes (deterministic stream).
  for (int i = 0; i < 64; ++i) contamination.expose(lid, 0);
  EXPECT_GT(net.link(lid).end_a.condition.contamination, before);
}

TEST_F(FaultFixture, ExposureIgnoresIntegratedMedia) {
  for (const net::Link& l : net.links()) {
    if (l.medium == net::CableMedium::kDac) {
      for (int i = 0; i < 16; ++i) contamination.expose(l.id, 0);
      EXPECT_DOUBLE_EQ(net.link(l.id).end_a.condition.contamination, 0.0);
      break;
    }
  }
}

TEST_F(FaultFixture, DirectedInjectionsSetConditions) {
  const net::LinkId lid{0};
  injector.inject_transceiver_failure(lid, 1);
  EXPECT_FALSE(net.link(lid).end_b.condition.transceiver_healthy);
  EXPECT_EQ(net.link(lid).state, net::LinkState::kDown);
  EXPECT_EQ(injector.count(FaultKind::kTransceiverFailure), 1u);

  const net::LinkId lid2{1};
  injector.inject_cable_break(lid2);
  EXPECT_FALSE(net.link(lid2).cable.intact);
  EXPECT_EQ(net.link(lid2).state, net::LinkState::kDown);

  const net::DeviceId dev = net.devices_with_role(topology::NodeRole::kSpineSwitch)[0];
  injector.inject_device_failure(dev);
  EXPECT_FALSE(net.device(dev).healthy);
}

TEST_F(FaultFixture, GrayEpisodeSelfClears) {
  const net::LinkId lid{2};
  injector.inject_gray_episode(lid, Duration::minutes(30));
  EXPECT_EQ(net.link(lid).state, net::LinkState::kFlapping);
  sim.run_until(TimePoint::origin() + Duration::minutes(31));
  EXPECT_EQ(net.link(lid).state, net::LinkState::kUp);
}

TEST_F(FaultFixture, ListenerReceivesEvents) {
  int events = 0;
  injector.subscribe([&](const FaultEvent&) { ++events; });
  injector.inject_cable_break(net::LinkId{3});
  injector.inject_gray_episode(net::LinkId{4}, Duration::minutes(5));
  EXPECT_EQ(events, 2);
  EXPECT_EQ(injector.log().size(), 2u);
}

TEST_F(FaultFixture, BackgroundInjectionProducesFaultsOverAYear) {
  injector.start();
  sim.run_until(TimePoint::origin() + Duration::days(365));
  // 28 links, aggressive AFRs: expect a meaningful number of events.
  EXPECT_GT(injector.log().size(), 10u);
  EXPECT_GT(injector.count(FaultKind::kGrayEpisode), 0u);
}

TEST_F(FaultFixture, OxidationGrowsAndRaisesGrayHazard) {
  injector.start();
  sim.run_until(TimePoint::origin() + Duration::days(365));
  double total_ox = 0;
  for (const net::Link& l : net.links()) {
    total_ox += l.end_a.condition.oxidation + l.end_b.condition.oxidation;
  }
  EXPECT_GT(total_ox, 0.0);
}

TEST_F(FaultFixture, CalendarDrawsFollowFaultsNotComponents) {
  obs::Obs obs{obs::Options{}};
  injector.set_obs(&obs);
  injector.start();
  sim.run_until(TimePoint::origin() + Duration::days(30));
  const std::uint64_t draws = obs.metrics()->counter("fault_rng_draws_total")->value();
  // The scan this replaced drew ~150 variates per hourly step on this
  // fabric; the calendars draw about one per component at arming, then a
  // handful per fault.
  EXPECT_GT(draws, 0u);
  EXPECT_LT(draws, 30u * 24u);
  // A step with nothing due and nothing touched draws nothing.
  FaultInjector::Config quiet;
  quiet.transceiver_afr = quiet.cable_afr = quiet.switch_afr = 0.0;
  quiet.server_nic_afr = quiet.linecard_afr = quiet.gray_rate_per_year = 0.0;
  sim::Simulator sim2;
  net::Network net2{bp, testutil::short_aoc(), sim2};
  FaultInjector idle{net2, env, rngs.stream("idle"), quiet};
  obs::Obs obs2{obs::Options{}};
  idle.set_obs(&obs2);
  for (int i = 0; i < 48; ++i) idle.step_once();
  EXPECT_EQ(obs2.metrics()->counter("fault_rng_draws_total")->value(), 0u);
}

TEST_F(FaultFixture, ContactResetDiscardsOxidationNotYetMaterialised) {
  // No gray candidates, so nothing reads oxidation until the end goes dark.
  FaultInjector::Config cfg;
  cfg.gray_rate_per_year = 0.0;
  cfg.transceiver_afr = cfg.cable_afr = cfg.switch_afr = 0.0;
  cfg.server_nic_afr = cfg.linecard_afr = 0.0;
  cfg.oxidation_rate_per_year = 50.0;  // ~0.006 per step
  sim::Simulator sim2;
  net::Network net2{bp, testutil::short_aoc(), sim2};
  FaultInjector inj{net2, env, rngs.stream("ox"), cfg};
  for (int i = 0; i < 100; ++i) inj.step_once();
  // 100 steps have accrued on end a (~0.57), but a reseat scrapes them off
  // although oxidation reads 0 before and after it.
  net::EndCondition& end = net2.link_mut(net::LinkId{0}).end_a.condition;
  ASSERT_EQ(end.oxidation, 0.0);
  net::reset_contacts(end);
  net2.refresh_link(net::LinkId{0});
  inj.step_once();  // one step accrues on the fresh contacts
  end.transceiver_seated = false;
  net2.refresh_link(net::LinkId{0});
  inj.step_once();  // the usability change materialises what accrued
  EXPECT_GT(end.oxidation, 0.0);
  EXPECT_LT(end.oxidation, 0.1);
  // End b was never reset: its whole history lands when it goes dark.
  net::EndCondition& other = net2.link_mut(net::LinkId{0}).end_b.condition;
  other.transceiver_seated = false;
  net2.refresh_link(net::LinkId{0});
  inj.step_once();
  EXPECT_GT(other.oxidation, 0.3);
}

TEST_F(FaultFixture, PredictedContactsCoverFaceplateNeighbors) {
  // Pick a leaf switch uplink; the leaf has many ports so it must have
  // faceplate neighbours within +-2 ports.
  const net::DeviceId leaf = net.devices_with_role(topology::NodeRole::kTorSwitch)[0];
  const net::LinkId target = net.links_at(leaf).at(1);
  Disturbance d;
  d.target = target;
  d.at_device = leaf;
  const auto contacts = cascade.predicted_contacts(d);
  EXPECT_FALSE(contacts.empty());
  for (const net::LinkId c : contacts) EXPECT_NE(c, target);
}

TEST_F(FaultFixture, FullRouteContactsIncludeTrayMates) {
  // Uplinks share tray segments; a cable replacement must predict them.
  const net::DeviceId leaf = net.devices_with_role(topology::NodeRole::kTorSwitch)[0];
  const net::DeviceId spine = net.devices_with_role(topology::NodeRole::kSpineSwitch)[0];
  const net::LinkId target = net.links_between(leaf, spine)[0];
  Disturbance faceplate_only{target, leaf, 1.0, false};
  Disturbance full{target, leaf, 1.0, true};
  EXPECT_GE(cascade.predicted_contacts(full).size(),
            cascade.predicted_contacts(faceplate_only).size());
}

TEST_F(FaultFixture, HigherMagnitudeInducesMoreCollateral) {
  const net::DeviceId leaf = net.devices_with_role(topology::NodeRole::kTorSwitch)[0];
  std::size_t human_total = 0, robot_total = 0;
  for (int rep = 0; rep < 60; ++rep) {
    for (const net::LinkId lid : net.links_at(leaf)) {
      human_total += cascade.apply(Disturbance{lid, leaf, 1.0, false}).size();
      robot_total += cascade.apply(Disturbance{lid, leaf, 0.2, false}).size();
    }
  }
  EXPECT_GT(human_total, robot_total);
}

TEST_F(FaultFixture, CascadeEffectsAreLogged) {
  const net::DeviceId leaf = net.devices_with_role(topology::NodeRole::kTorSwitch)[0];
  std::size_t applied = 0;
  for (int rep = 0; rep < 100 && applied == 0; ++rep) {
    applied = cascade.apply(Disturbance{net.links_at(leaf)[0], leaf, 1.0, false}).size();
  }
  EXPECT_GT(applied, 0u);
  EXPECT_EQ(cascade.log().size(), cascade.induced_count());
  EXPECT_LE(cascade.induced_permanent_count(), cascade.induced_count());
}

TEST_F(FaultFixture, InjectedFaultsReachCountersAndFlightRecorder) {
  obs::Obs obs{obs::Options{}};
  injector.set_obs(&obs);
  const net::LinkId target = optical_link();
  injector.inject_gray_episode(target, Duration::minutes(30));
  injector.inject_cable_break(target);

  EXPECT_EQ(obs.metrics()->counter("fault_injected_gray_episode_total")->value(), 1u);
  EXPECT_EQ(obs.metrics()->counter("fault_injected_cable_break_total")->value(), 1u);
  EXPECT_EQ(obs.metrics()->counter("fault_injected_total")->value(), 2u);

  const auto recent = obs.recorder()->recent();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_STREQ(recent[0].what, "gray-episode");
  EXPECT_STREQ(recent[1].what, "cable-break");
  EXPECT_EQ(recent[0].a, static_cast<std::int64_t>(target.value()));
}

TEST_F(FaultFixture, FlightRecorderStaysBoundedThroughFaultStorm) {
  // A fault storm far larger than the ring must wrap, not grow: the recorder
  // keeps exactly `capacity` records and counts the rest as evicted history.
  obs::Obs obs{obs::Options{.metrics = true,
                            .trace = false,
                            .trace_max_events = 0,
                            .flight_recorder_capacity = 16}};
  injector.set_obs(&obs);
  const net::LinkId target = optical_link();
  for (int i = 0; i < 100; ++i) {
    injector.inject_gray_episode(target, Duration::minutes(1));
  }
  EXPECT_EQ(obs.recorder()->recent().size(), 16u);
  EXPECT_EQ(obs.recorder()->capacity(), 16u);
  EXPECT_EQ(obs.recorder()->total_recorded(), 100u);
  // The surviving window is the most recent faults, all of the same kind here.
  for (const obs::FlightRecorder::Record& r : obs.recorder()->recent()) {
    EXPECT_STREQ(r.what, "gray-episode");
  }
}

// Death-test child body: build a world by hand, inject a fault, force a
// cascade, then trip an invariant mid-cascade. Lives outside the macro
// because EXPECT_DEATH cannot digest braced initializers' commas. Built
// entirely inside the child process: the recorder hook is thread-local.
void crash_mid_cascade() {
  sim::Simulator sim;
  topology::Blueprint bp = topology::build_leaf_spine(
      {.leaves = 4, .spines = 2, .servers_per_leaf = 2, .uplinks_per_spine = 2});
  net::Network net{bp, testutil::short_aoc(), sim};
  Environment env;
  sim::RngFactory rngs{77};
  FaultInjector injector{net, env, rngs.stream("inj")};
  CascadeModel cascade{net, env, injector, rngs.stream("casc")};
  obs::Obs obs{obs::Options{}};
  injector.set_obs(&obs);
  cascade.set_obs(&obs);
  const net::DeviceId leaf = net.devices_with_role(topology::NodeRole::kTorSwitch)[0];
  const net::LinkId target = net.links_at(leaf)[0];
  injector.inject_gray_episode(target, Duration::minutes(30));
  for (int rep = 0; rep < 200 && cascade.log().empty(); ++rep) {
    (void)cascade.apply(Disturbance{target, leaf, 1.0, false});
  }
  SMN_ASSERT(!cascade.log().empty(), "fixture never cascaded");
  SMN_ASSERT(false, "synthetic mid-cascade failure");
}

TEST(FaultFlightRecorderDeathTest, CrashMidCascadeDumpsCausalChain) {
  // The acceptance story for the fault flight records: crash in the middle of
  // a maintenance cascade and the dump on stderr shows the injected fault and
  // the cascade hop that followed it, oldest first (simulated-time order).
  EXPECT_DEATH(crash_mid_cascade(), "flight recorder.*gray-episode.*cascade-hop");
}

TEST_F(FaultFixture, CascadeRegistersVibration) {
  const net::DeviceId leaf = net.devices_with_role(topology::NodeRole::kTorSwitch)[0];
  const double before = env.vibration(sim.now());
  (void)cascade.apply(Disturbance{net.links_at(leaf)[0], leaf, 1.0, false});
  EXPECT_GT(env.vibration(sim.now()), before);
}

}  // namespace
}  // namespace smn::fault
