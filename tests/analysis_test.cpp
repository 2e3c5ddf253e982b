// Tests for statistics, availability tracking, the cost model, and tables.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/availability.h"
#include "analysis/cost.h"
#include "analysis/report.h"
#include "analysis/spares.h"
#include "analysis/stats.h"
#include "topology/builders.h"

namespace smn::analysis {
namespace {

using sim::Duration;
using sim::TimePoint;

TEST(SampleStats, MomentsAndPercentiles) {
  SampleStats s;
  for (int i = 1; i <= 100; ++i) s.push(i);
  EXPECT_EQ(s.count(), 100u);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.median(), 50.0, 1.0);
  EXPECT_NEAR(s.percentile(99), 99.0, 1.0);
  EXPECT_NEAR(s.stddev(), 29.0, 0.5);
}

TEST(SampleStats, EmptyAndSingle) {
  SampleStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
  s.push(42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 42.0);
  EXPECT_THROW((void)s.percentile(101), std::invalid_argument);
}

TEST(SampleStats, PushAfterPercentileStaysCorrect) {
  SampleStats s;
  s.push(1.0);
  (void)s.median();
  s.push(100.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
}

struct AvailabilityFixture : ::testing::Test {
  sim::Simulator sim;
  topology::Blueprint bp =
      topology::build_leaf_spine({.leaves = 2, .spines = 1, .servers_per_leaf = 1});
  net::Network net{bp, net::Network::Config{}, sim};
  AvailabilityTracker tracker{net};
};

TEST_F(AvailabilityFixture, PerfectUptimeIsOne) {
  sim.run_until(TimePoint::origin() + Duration::days(10));
  EXPECT_DOUBLE_EQ(tracker.fleet_availability(), 1.0);
  EXPECT_DOUBLE_EQ(tracker.downtime_link_hours(), 0.0);
}

TEST_F(AvailabilityFixture, DowntimeIsIntegrated) {
  sim.run_until(TimePoint::origin() + Duration::hours(10));
  net.link_mut(net::LinkId{0}).cable.intact = false;
  net.refresh_link(net::LinkId{0});
  sim.run_until(TimePoint::origin() + Duration::hours(30));
  net.link_mut(net::LinkId{0}).cable.intact = true;
  net.refresh_link(net::LinkId{0});
  sim.run_until(TimePoint::origin() + Duration::hours(40));

  EXPECT_NEAR(tracker.link_availability(net::LinkId{0}), 0.5, 1e-9);
  EXPECT_NEAR(tracker.time_in(net::LinkId{0}, net::LinkState::kDown).to_hours(), 20.0,
              1e-6);
  EXPECT_NEAR(tracker.downtime_link_hours(), 20.0, 1e-6);
  EXPECT_LT(tracker.fleet_availability(), 1.0);
}

TEST_F(AvailabilityFixture, ImpairmentTracksDegradedAndFlapping) {
  net.link_mut(net::LinkId{0}).end_a.condition.contamination = 0.45;
  net.refresh_link(net::LinkId{0});
  sim.run_until(TimePoint::origin() + Duration::hours(10));
  EXPECT_NEAR(tracker.impairment_fraction(net::LinkId{0}), 1.0, 1e-9);
  EXPECT_NEAR(tracker.impaired_link_hours(), 10.0, 1e-6);
  EXPECT_DOUBLE_EQ(tracker.link_availability(net::LinkId{0}), 1.0);  // not Down
}

TEST(Nines, Conversion) {
  EXPECT_NEAR(AvailabilityTracker::nines(0.999), 3.0, 1e-9);
  EXPECT_NEAR(AvailabilityTracker::nines(0.9999), 4.0, 1e-9);
  EXPECT_DOUBLE_EQ(AvailabilityTracker::nines(1.0), 9.0);
  EXPECT_DOUBLE_EQ(AvailabilityTracker::nines(0.0), 0.0);
}

TEST(CostModel, ChannelsAddUp) {
  CostConfig cfg;
  CostInputs in;
  in.technician_hours = 100;
  in.robot_busy_hours = 50;
  in.robot_units = 2;
  in.elapsed_years = 1.0;
  in.downtime_link_hours = 200;
  in.impaired_link_hours = 100;
  in.transceivers_replaced = 3;
  in.cables_replaced = 1;
  in.overprovisioned_links = 10;
  const CostBreakdown out = compute_cost(cfg, in);
  EXPECT_DOUBLE_EQ(out.labor_usd, 100 * 85.0);
  EXPECT_DOUBLE_EQ(out.robot_usd, 2 * 120'000.0 / 5.0 + 50 * 2.0);
  EXPECT_DOUBLE_EQ(out.downtime_usd, 200 * 40.0 + 100 * 10.0);
  EXPECT_DOUBLE_EQ(out.parts_usd, 3 * 600.0 + 300.0);
  EXPECT_GT(out.overprovision_usd, 0.0);
  EXPECT_DOUBLE_EQ(out.total_usd, out.labor_usd + out.robot_usd + out.downtime_usd +
                                      out.parts_usd + out.overprovision_usd);
}

TEST(CostModel, ZeroInputsZeroCost) {
  const CostBreakdown out = compute_cost(CostConfig{}, CostInputs{});
  EXPECT_DOUBLE_EQ(out.total_usd, 0.0);
}

TEST(Report, TableAlignsAndRejectsBadRows) {
  Table t{{"name", "value"}};
  t.add_row({"alpha", Table::num(1.5)});
  t.add_row({"b", Table::num(std::size_t{42})});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.50"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Spares, StockoutProbabilityIsMonotoneAndBounded) {
  EXPECT_DOUBLE_EQ(poisson_stockout_probability(0.0, 0), 0.0);
  EXPECT_DOUBLE_EQ(poisson_stockout_probability(5.0, -1), 1.0);
  double prev = 1.0;
  for (int stock = 0; stock <= 20; ++stock) {
    const double p = poisson_stockout_probability(5.0, stock);
    EXPECT_LE(p, prev);
    EXPECT_GE(p, 0.0);
    prev = p;
  }
  // P(X > 4 | mean 5) ~ 0.56; P(X > 10 | mean 5) ~ 0.014.
  EXPECT_NEAR(poisson_stockout_probability(5.0, 4), 0.56, 0.02);
  EXPECT_NEAR(poisson_stockout_probability(5.0, 10), 0.014, 0.005);
  EXPECT_THROW((void)poisson_stockout_probability(-1.0, 3), std::invalid_argument);
}

TEST(Spares, RecommendationMeetsTarget) {
  for (const double demand : {0.5, 2.0, 8.0, 30.0}) {
    for (const double target : {0.1, 0.01, 0.001}) {
      const int stock = recommended_spares(demand, target);
      EXPECT_LE(poisson_stockout_probability(demand, stock), target);
      if (stock > 0) {
        EXPECT_GT(poisson_stockout_probability(demand, stock - 1), target);
      }
    }
  }
  EXPECT_EQ(recommended_spares(0.0, 0.01), 0);
  EXPECT_THROW((void)recommended_spares(5.0, 0.0), std::invalid_argument);
}

TEST(Report, CsvOutput) {
  Table t{{"a", "b"}};
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

}  // namespace
}  // namespace smn::analysis

namespace smn::analysis {
namespace {

// Published two-sided 95% quantiles (e.g. NIST/SEMATECH e-Handbook, Table
// 1.3.6.7.2), to the digits printed there.
TEST(StudentT, MatchesPublishedQuantiles) {
  EXPECT_NEAR(student_t_975(1), 12.706, 5e-4);
  EXPECT_NEAR(student_t_975(3), 3.182, 5e-4);
  EXPECT_NEAR(student_t_975(7), 2.365, 5e-4);
  EXPECT_NEAR(student_t_975(30), 2.042, 5e-4);
  EXPECT_NEAR(student_t_975(120), 1.980, 5e-4);
  EXPECT_NEAR(student_t_975(1e9), 1.959964, 1e-6);  // the normal limit
}

TEST(StudentT, IntervalUsesNMinusOneDegreesOfFreedom) {
  SampleStats s;
  EXPECT_EQ(s.ci95(), 0.0);
  s.push(1.0);
  EXPECT_EQ(s.ci95(), 0.0);
  for (const double v : {2.0, 3.0, 4.0}) s.push(v);
  EXPECT_NEAR(s.ci95(), student_t_975(3) * s.stddev() / 2.0, 1e-12);
  EXPECT_NEAR(s.ci95(), 2.0542, 1e-4);
}

}  // namespace
}  // namespace smn::analysis
