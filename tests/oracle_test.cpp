// Statistical oracles for the fault layer (ctest label `oracle`).
//
// The injector's calendars claim to be exact in distribution: every
// component fails in step t with the per-step probability the hourly scan
// used, given the state at t. Two independent judges check that claim:
//   * closed forms: with repair off, a component with per-step probability p
//     fails within T steps with probability 1 - (1 - p)^T, so per-seed counts
//     per kind have an exact pmf, checked by chi-square goodness of fit on
//     the scan (tests/reference_scan.h) and on the calendars alike;
//   * a two-sample harness: the scan and the calendars run on disjoint seeds
//     under a maintenance crew that drives every hazard-change path (reseat
//     wear and contact resets, replacements, device and card repairs,
//     cleaning, rewiring, vibration), and are compared by chi-square on
//     per-kind counts and by KS on the gaps between faults.
// Each judge also runs against deliberately wrong rates (x1.1) and must
// reject them, which shows the seed count has the power the pass claims.
//
// Seeds default to a reduced count for ctest; CI runs full strength with
//   smn_oracle_tests --seeds=1000
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fault/contamination.h"
#include "fault/environment.h"
#include "fault/injector.h"
#include "maintenance/actions.h"
#include "net/network.h"
#include "obs/obs.h"
#include "oracle_stats.h"
#include "reference_scan.h"
#include "test_util.h"
#include "topology/builders.h"

namespace smn::fault {
namespace {

int g_seeds = 300;  // --seeds=N

// Per-test significance level. A correct engine passes every test at the
// fixed seeds; a broken one must fail at least one.
constexpr double kAlpha = 1e-3;

using sim::Duration;
using sim::TimePoint;
using testutil::TestResult;

enum class Engine { kReference, kCalendar };

struct Scenario {
  FaultInjector::Config faults;
  int days = 30;
  bool maintenance = false;
};

struct Outcome {
  std::array<int, kFaultKindCount> counts{};
  std::vector<double> gaps;  // lattice steps between consecutive faults
  std::uint64_t draws = 0;
  std::uint64_t steps = 0;
};

topology::Blueprint oracle_fabric() {
  return topology::build_leaf_spine(
      {.leaves = 4, .spines = 2, .servers_per_leaf = 2, .uplinks_per_spine = 2});
}

net::Network::Config oracle_network() {
  net::Network::Config cfg = testutil::short_aoc();
  cfg.chassis_ports_per_linecard = 2;  // several cards per spine
  return cfg;
}

FaultInjector::Config scaled(FaultInjector::Config cfg, double k) {
  cfg.transceiver_afr *= k;
  cfg.cable_afr *= k;
  cfg.switch_afr *= k;
  cfg.server_nic_afr *= k;
  cfg.linecard_afr *= k;
  cfg.gray_rate_per_year *= k;
  return cfg;
}

/// Repair off: each component fails at most once.
Scenario closed_form_scenario() {
  Scenario s;
  s.faults.transceiver_afr = 4.0;
  s.faults.cable_afr = 4.0;
  s.faults.switch_afr = 4.0;
  s.faults.server_nic_afr = 3.0;
  s.faults.linecard_afr = 4.0;
  s.faults.gray_rate_per_year = 2.0;  // gray episodes never change fail-stop hazards
  return s;
}

/// Accelerated so that each hazard-change path moves the counts: strong
/// reseat wear, fast oxidation that a reset must discard, and vibration
/// episodes that lift the gray-episode stress well above its diurnal peak.
Scenario maintained_scenario() {
  Scenario s;
  s.maintenance = true;
  s.faults.transceiver_afr = 2.0;
  s.faults.cable_afr = 4.0;
  s.faults.switch_afr = 6.0;
  s.faults.server_nic_afr = 4.0;
  s.faults.linecard_afr = 6.0;
  s.faults.gray_rate_per_year = 2.5;
  s.faults.gray_oxidation_gain = 20.0;
  s.faults.oxidation_rate_per_year = 40.0;
  s.faults.reseat_wear_gain = 1.0;
  return s;
}

/// The maintenance crew: every ~1.5 h it reseats, repairs, cleans, rewires or
/// shakes something. It draws from its own stream and reads only network
/// state, so both engines face the same policy.
class Crew {
 public:
  Crew(net::Network& net, Environment& env, ContaminationProcess& contamination,
       sim::RngStream rng)
      : net_{net}, env_{env}, contamination_{contamination}, rng_{std::move(rng)} {
    quality_.botch_probability = 0.1;
  }

  void start() { schedule_next(); }

 private:
  void schedule_next() {
    net_.simulator().schedule_after(Duration::hours(rng_.exponential(1.5)), [this] {
      act();
      schedule_next();
    });
  }

  void act() {
    const double r = rng_.uniform();
    if (r < 0.40) {
      apply(random_link(), static_cast<int>(rng_.uniform_int(0, 1)),
            maintenance::RepairActionKind::kReseat);
    } else if (r < 0.70) {
      repair_something();
    } else if (r < 0.85) {
      env_.add_vibration(net_.now(), Duration::hours(rng_.uniform(1.0, 6.0)),
                         rng_.uniform(0.5, 1.5));
    } else if (r < 0.92) {
      apply(random_link(), static_cast<int>(rng_.uniform_int(0, 1)),
            maintenance::RepairActionKind::kClean);
    } else {
      rewire_switch_link();
    }
  }

  net::LinkId random_link() {
    return net::LinkId{static_cast<std::int32_t>(rng_.index(net_.links().size()))};
  }

  void apply(net::LinkId id, int end, maintenance::RepairActionKind kind) {
    (void)maintenance::apply_action(net_, &contamination_, rng_, id, end, kind, quality_);
  }

  // The first broken thing at or after a random link, else any dead device
  // or card.
  void repair_something() {
    using maintenance::RepairActionKind;
    const std::size_t n = net_.links().size();
    const std::size_t start = rng_.index(n);
    for (std::size_t k = 0; k < n; ++k) {
      const net::Link& l = net_.links()[(start + k) % n];
      for (int end = 0; end < 2; ++end) {
        const net::EndCondition& c = end == 0 ? l.end_a.condition : l.end_b.condition;
        if (!c.transceiver_healthy) return apply(l.id, end, RepairActionKind::kReplaceTransceiver);
        if (!c.transceiver_seated) return apply(l.id, end, RepairActionKind::kReseat);
      }
      if (!l.cable.intact) return apply(l.id, 0, RepairActionKind::kReplaceCable);
    }
    for (const net::Device& d : net_.devices()) {
      if (!d.healthy) return net_.set_device_health(d.id, true);
      for (std::size_t card = 0; card < d.linecards_healthy.size(); ++card) {
        if (!d.linecards_healthy[card]) {
          return net_.set_linecard_health(d.id, static_cast<int>(card), true);
        }
      }
    }
  }

  // Moves the far end of a switch-to-switch link to another switch, keeping
  // every device on at least one link (device health reaches the injector
  // through its links).
  void rewire_switch_link() {
    const net::Link& l = net_.link(random_link());
    const net::DeviceId a = l.end_a.device;
    const net::DeviceId b = l.end_b.device;
    if (!topology::is_switch(net_.device(a).role) || !topology::is_switch(net_.device(b).role) ||
        net_.links_at(b).size() < 2) {
      return;
    }
    const net::DeviceId to{static_cast<std::int32_t>(rng_.index(net_.devices().size()))};
    if (to == a || !topology::is_switch(net_.device(to).role)) return;
    net_.rewire(l.id, a, to);
  }

  net::Network& net_;
  Environment& env_;
  ContaminationProcess& contamination_;
  sim::RngStream rng_;
  maintenance::WorkQuality quality_;
};

Outcome run_once(Engine engine, std::uint64_t seed, const Scenario& scenario,
             const FaultInjector::Config& faults) {
  static const topology::Blueprint bp = oracle_fabric();
  sim::Simulator sim;
  net::Network net{bp, oracle_network(), sim};
  Environment env;
  const sim::RngFactory rngs{seed};
  FaultInjector injector{net, env, rngs.stream("faults"), faults};
  obs::Obs obs{obs::Options{}};
  injector.set_obs(&obs);
  std::optional<testutil::ReferenceScan> scan;
  if (engine == Engine::kReference) {
    scan.emplace(net, env, injector, rngs.stream("faults"), faults);
    scan->start();
  } else {
    injector.start();
  }
  ContaminationProcess::Config dirt;
  dirt.mean_accumulation_per_day = 0.02;
  ContaminationProcess contamination{net, env, rngs.stream("contamination"), dirt};
  Crew crew{net, env, contamination, rngs.stream("crew")};
  if (scenario.maintenance) {
    contamination.start();
    crew.start();
  }
  sim.run_until(TimePoint::origin() + Duration::days(scenario.days));

  Outcome run;
  run.steps = static_cast<std::uint64_t>(scenario.days) * 24;
  std::int64_t last = -1;
  for (const FaultEvent& e : injector.log()) {
    ++run.counts[static_cast<std::size_t>(e.kind)];
    const auto step = static_cast<std::int64_t>(e.time.to_hours()) - 1;
    if (last >= 0) run.gaps.push_back(static_cast<double>(step - last));
    last = step;
  }
  run.draws = engine == Engine::kReference
                  ? scan->draws()
                  : obs.metrics()->counter("fault_rng_draws_total")->value();
  return run;
}

std::vector<Outcome> run_seeds(Engine engine, std::uint64_t first_seed, const Scenario& scenario,
                           const FaultInjector::Config& faults) {
  std::vector<Outcome> runs;
  runs.reserve(static_cast<std::size_t>(g_seeds));
  for (int i = 0; i < g_seeds; ++i) {
    runs.push_back(run_once(engine, first_seed + static_cast<std::uint64_t>(i), scenario, faults));
  }
  return runs;
}

std::vector<int> counts_of(const std::vector<Outcome>& runs, FaultKind kind) {
  std::vector<int> out;
  for (const Outcome& r : runs) out.push_back(r.counts[static_cast<std::size_t>(kind)]);
  return out;
}

constexpr std::array<FaultKind, 4> kFailStop = {
    FaultKind::kTransceiverFailure, FaultKind::kCableBreak, FaultKind::kDeviceFailure,
    FaultKind::kLineCardFailure};

// ---- closed forms ------------------------------------------------------

/// Exact pmf of one seed's count of `kind` with repair off over `steps`.
std::vector<double> closed_form_pmf(FaultKind kind, const FaultInjector::Config& cfg,
                                    int steps) {
  const topology::Blueprint bp = oracle_fabric();
  sim::Simulator sim;
  const net::Network net{bp, oracle_network(), sim};
  const double dt = cfg.step.to_days() / 365.0;
  const auto within = [](double p, int draws) { return 1.0 - std::pow(1.0 - p, draws); };
  const int links = static_cast<int>(net.links().size());
  switch (kind) {
    case FaultKind::kTransceiverFailure:
      return testutil::binomial_pmf(2 * links, within(cfg.transceiver_afr * dt, steps));
    case FaultKind::kCableBreak:
      return testutil::binomial_pmf(links, within(cfg.cable_afr * dt, steps));
    case FaultKind::kDeviceFailure: {
      int switches = 0;
      for (const net::Device& d : net.devices()) switches += topology::is_switch(d.role) ? 1 : 0;
      const int servers = static_cast<int>(net.devices().size()) - switches;
      return testutil::convolve(
          testutil::binomial_pmf(switches, within(cfg.switch_afr * dt, steps)),
          testutil::binomial_pmf(servers, within(cfg.server_nic_afr * dt, steps)));
    }
    case FaultKind::kLineCardFailure: {
      // The scan draws a device's cards in every step the device entered
      // healthy, its failure step included: given failure at step k, each
      // card had k + 1 draws.
      std::vector<double> total{1.0};
      for (const net::Device& d : net.devices()) {
        if (!d.has_linecards()) continue;
        const int cards = static_cast<int>(d.linecards_healthy.size());
        const double afr = topology::is_switch(d.role) ? cfg.switch_afr : cfg.server_nic_afr;
        const double p_dev = afr * dt;
        const double p_card = cfg.linecard_afr * dt;
        std::vector<double> dev(static_cast<std::size_t>(cards) + 1, 0.0);
        const auto add = [&](double weight, int draws) {
          const std::vector<double> b = testutil::binomial_pmf(cards, within(p_card, draws));
          for (std::size_t j = 0; j < b.size(); ++j) dev[j] += weight * b[j];
        };
        for (int k = 0; k < steps; ++k) add(std::pow(1.0 - p_dev, k) * p_dev, k + 1);
        add(std::pow(1.0 - p_dev, steps), steps);
        total = testutil::convolve(total, dev);
      }
      return total;
    }
    case FaultKind::kGrayEpisode:
      break;
  }
  return {1.0};
}

/// Smallest p-value over the fail-stop kinds, with a per-kind report.
double closed_form_min_p(const std::vector<Outcome>& runs, const FaultInjector::Config& model,
                         int steps, const std::string& label) {
  double min_p = 1.0;
  for (const FaultKind kind : kFailStop) {
    const TestResult r =
        testutil::chi2_goodness_of_fit(counts_of(runs, kind), closed_form_pmf(kind, model, steps));
    std::printf("[oracle] %s %-20s chi2=%8.2f df=%2.0f p=%.3g\n", label.c_str(), to_string(kind),
                r.statistic, r.df, r.p);
    min_p = std::min(min_p, r.p);
  }
  return min_p;
}

TEST(FaultOracle, ClosedFormHoldsForReferenceScan) {
  const Scenario s = closed_form_scenario();
  const std::vector<Outcome> runs = run_seeds(Engine::kReference, 10'000, s, s.faults);
  EXPECT_GE(closed_form_min_p(runs, s.faults, s.days * 24, "scan"), kAlpha);
}

TEST(FaultOracle, ClosedFormHoldsForCalendar) {
  const Scenario s = closed_form_scenario();
  const std::vector<Outcome> runs = run_seeds(Engine::kCalendar, 20'000, s, s.faults);
  EXPECT_GE(closed_form_min_p(runs, s.faults, s.days * 24, "calendar"), kAlpha);
}

TEST(FaultOracle, ClosedFormRejectsRatesTimes1_1) {
  const Scenario s = closed_form_scenario();
  const std::vector<Outcome> runs = run_seeds(Engine::kCalendar, 30'000, s, scaled(s.faults, 1.1));
  EXPECT_LT(closed_form_min_p(runs, s.faults, s.days * 24, "calendar x1.1"), kAlpha);
}

// ---- two-sample: calendar against the scan -------------------------------

/// Smallest p-value over per-kind count homogeneity and the gap KS test.
double two_sample_min_p(const std::vector<Outcome>& a, const std::vector<Outcome>& b,
                        const std::string& label) {
  double min_p = 1.0;
  for (std::size_t k = 0; k < kFaultKindCount; ++k) {
    const auto kind = static_cast<FaultKind>(k);
    const TestResult r = testutil::chi2_homogeneity(counts_of(a, kind), counts_of(b, kind));
    std::printf("[oracle] %s %-20s chi2=%8.2f df=%2.0f p=%.3g\n", label.c_str(), to_string(kind),
                r.statistic, r.df, r.p);
    min_p = std::min(min_p, r.p);
  }
  std::vector<double> gaps_a, gaps_b;
  for (const Outcome& r : a) gaps_a.insert(gaps_a.end(), r.gaps.begin(), r.gaps.end());
  for (const Outcome& r : b) gaps_b.insert(gaps_b.end(), r.gaps.begin(), r.gaps.end());
  const TestResult ks = testutil::ks_two_sample(gaps_a, gaps_b);
  std::printf("[oracle] %s %-20s D=%.4f p=%.3g (%zu vs %zu gaps)\n", label.c_str(), "gaps (KS)",
              ks.statistic, ks.p, gaps_a.size(), gaps_b.size());
  return std::min(min_p, ks.p);
}

TEST(FaultOracle, CalendarMatchesReferenceScanUnderMaintenance) {
  const Scenario s = maintained_scenario();
  const std::vector<Outcome> scan = run_seeds(Engine::kReference, 40'000, s, s.faults);
  const std::vector<Outcome> calendar = run_seeds(Engine::kCalendar, 50'000, s, s.faults);
  EXPECT_GE(two_sample_min_p(scan, calendar, "scan vs calendar"), kAlpha);

  // The point of the calendars: draws follow faults, not components.
  double scan_draws = 0.0, calendar_draws = 0.0, steps = 0.0;
  for (const Outcome& r : scan) scan_draws += static_cast<double>(r.draws);
  for (const Outcome& r : calendar) {
    calendar_draws += static_cast<double>(r.draws);
    steps += static_cast<double>(r.steps);
  }
  std::printf("[oracle] draws per step: scan %.1f, calendar %.2f\n", scan_draws / steps,
              calendar_draws / steps);
  EXPECT_LT(calendar_draws * 10.0, scan_draws);
}

TEST(FaultOracle, TwoSampleRejectsRatesTimes1_1) {
  const Scenario s = maintained_scenario();
  const std::vector<Outcome> scan = run_seeds(Engine::kReference, 60'000, s, s.faults);
  const std::vector<Outcome> calendar =
      run_seeds(Engine::kCalendar, 70'000, s, scaled(s.faults, 1.1));
  EXPECT_LT(two_sample_min_p(scan, calendar, "scan vs calendar x1.1"), kAlpha);
}

}  // namespace
}  // namespace smn::fault

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    if (arg.starts_with("--seeds=")) smn::fault::g_seeds = std::stoi(std::string{arg.substr(8)});
  }
  return RUN_ALL_TESTS();
}
