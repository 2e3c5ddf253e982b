// Unit tests for the discrete-event engine, time primitives, and RNG streams.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace smn::sim {
namespace {

TEST(Duration, ConversionsRoundTrip) {
  EXPECT_EQ(Duration::seconds(1.0).count_us(), 1'000'000);
  EXPECT_DOUBLE_EQ(Duration::minutes(2.0).to_seconds(), 120.0);
  EXPECT_DOUBLE_EQ(Duration::hours(1.0).to_minutes(), 60.0);
  EXPECT_DOUBLE_EQ(Duration::days(2.0).to_hours(), 48.0);
  EXPECT_DOUBLE_EQ(Duration::milliseconds(1.5).count_us(), 1500);
}

TEST(Duration, Arithmetic) {
  const Duration d = Duration::seconds(10) + Duration::seconds(5);
  EXPECT_DOUBLE_EQ(d.to_seconds(), 15.0);
  EXPECT_DOUBLE_EQ((d - Duration::seconds(5)).to_seconds(), 10.0);
  EXPECT_DOUBLE_EQ((d * 2.0).to_seconds(), 30.0);
  EXPECT_DOUBLE_EQ((d / 3.0).to_seconds(), 5.0);
  EXPECT_DOUBLE_EQ(d.ratio(Duration::seconds(5)), 3.0);
  EXPECT_LT(Duration::seconds(1), Duration::seconds(2));
  EXPECT_EQ(-Duration::seconds(1), Duration::zero() - Duration::seconds(1));
}

TEST(TimePoint, OffsetsAndDifferences) {
  const TimePoint t0 = TimePoint::origin();
  const TimePoint t1 = t0 + Duration::hours(3);
  EXPECT_DOUBLE_EQ((t1 - t0).to_hours(), 3.0);
  EXPECT_EQ(t1 - Duration::hours(3), t0);
  EXPECT_GT(t1, t0);
}

TEST(FormatDuration, HumanReadable) {
  EXPECT_EQ(format_duration(Duration::microseconds(500)), "500us");
  EXPECT_EQ(format_duration(Duration::milliseconds(2.5)), "2.5ms");
  EXPECT_EQ(format_duration(Duration::seconds(42)), "42.0s");
  EXPECT_EQ(format_duration(Duration::minutes(90)), "01:30:00");
  EXPECT_EQ(format_duration(Duration::days(2) + Duration::hours(3)), "2d 03:00:00");
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(TimePoint::origin() + Duration::seconds(3), [&] { order.push_back(3); });
  sim.schedule_at(TimePoint::origin() + Duration::seconds(1), [&] { order.push_back(1); });
  sim.schedule_at(TimePoint::origin() + Duration::seconds(2), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.events_processed(), 3u);
  EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 3.0);
}

TEST(Simulator, SimultaneousEventsRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  const TimePoint t = TimePoint::origin() + Duration::seconds(1);
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(t, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_after(Duration::seconds(1), [&] { ran = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelUnknownIdIsNoOp) {
  Simulator sim;
  sim.cancel(kInvalidEvent);
  sim.cancel(EventId{9999});
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Simulator sim;
  int count = 0;
  sim.schedule_every(Duration::seconds(10), [&] { ++count; });
  sim.run_until(TimePoint::origin() + Duration::seconds(35));
  EXPECT_EQ(count, 3);
  EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 35.0);
}

TEST(Simulator, RunUntilWithEmptyQueueStillAdvancesClock) {
  Simulator sim;
  sim.run_until(TimePoint::origin() + Duration::hours(1));
  EXPECT_DOUBLE_EQ(sim.now().to_hours(), 1.0);
}

TEST(Simulator, PeriodicTaskCancellation) {
  Simulator sim;
  int count = 0;
  const EventId handle = sim.schedule_every(Duration::seconds(1), [&] { ++count; });
  sim.run_until(TimePoint::origin() + Duration::seconds(5));
  sim.cancel_periodic(handle);
  sim.run_until(TimePoint::origin() + Duration::seconds(20));
  EXPECT_EQ(count, 5);
}

TEST(Simulator, PeriodicSelfCancellationFromCallback) {
  Simulator sim;
  int count = 0;
  EventId handle = kInvalidEvent;
  handle = sim.schedule_every(Duration::seconds(1), [&] {
    ++count;
    if (count == 3) sim.cancel_periodic(handle);
  });
  sim.run_until(TimePoint::origin() + Duration::seconds(30));
  EXPECT_EQ(count, 3);
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator sim;
  sim.schedule_after(Duration::seconds(5), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(TimePoint::origin() + Duration::seconds(1), [] {}),
               std::invalid_argument);
}

TEST(Simulator, NestedSchedulingFromCallback) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule_after(Duration::seconds(1), [&] {
    times.push_back(sim.now().to_seconds());
    sim.schedule_after(Duration::seconds(1), [&] { times.push_back(sim.now().to_seconds()); });
  });
  sim.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 2.0);
}

// --- SmallFn (the allocation-free callback vehicle) -------------------------

TEST(SmallFn, SmallCapturesStayInline) {
  int hits = 0;
  int* p = &hits;
  SmallFn f{[p] { ++*p; }};
  EXPECT_TRUE(f.is_inline());
  EXPECT_TRUE(static_cast<bool>(f));
  f();
  f();
  EXPECT_EQ(hits, 2);
  // The documented budget: anything up to kSmallFnInlineBytes stays inline.
  struct AtBudget {
    char bytes[kSmallFnInlineBytes];
  };
  EXPECT_TRUE(SmallFn::fits_inline<decltype([x = AtBudget{}] { (void)x; })>());
}

TEST(SmallFn, OversizedCapturesFallBackToHeap) {
  struct Fat {
    char bytes[kSmallFnInlineBytes + 1] = {};
  };
  int hits = 0;
  int* p = &hits;
  SmallFn f{[p, fat = Fat{}] {
    (void)fat;
    ++*p;
  }};
  EXPECT_FALSE(f.is_inline());
  f();
  EXPECT_EQ(hits, 1);
}

TEST(SmallFn, MovePreservesCallableAndEmptiesSource) {
  int hits = 0;
  int* p = &hits;
  SmallFn a{[p] { ++*p; }};
  SmallFn b{std::move(a)};
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  b();
  EXPECT_EQ(hits, 1);
  SmallFn c;
  c = std::move(b);
  c();
  EXPECT_EQ(hits, 2);
}

TEST(SmallFn, DestroysCaptureOnResetAndDestruction) {
  struct Probe {
    int* live;
    explicit Probe(int* l) : live{l} { ++*live; }
    Probe(const Probe& o) : live{o.live} { ++*live; }
    Probe(Probe&& o) noexcept : live{o.live} { ++*live; }
    ~Probe() { --*live; }
  };
  int live = 0;
  {
    SmallFn f{[probe = Probe{&live}] { (void)probe; }};
    EXPECT_GT(live, 0);
    f.reset();
    EXPECT_EQ(live, 0);
    EXPECT_FALSE(static_cast<bool>(f));
  }
  {
    SmallFn f{[probe = Probe{&live}] { (void)probe; }};
    EXPECT_GT(live, 0);
  }
  EXPECT_EQ(live, 0);
}

// --- slot-arena internals exposed through the public API --------------------

TEST(Simulator, CancelReclaimsCaptureEagerly) {
  // The old queue left cancelled closures alive until their time arrived
  // (the documented lag); the slot arena must destroy them at cancel().
  struct Probe {
    int* live;
    explicit Probe(int* l) : live{l} { ++*live; }
    Probe(const Probe& o) : live{o.live} { ++*live; }
    Probe(Probe&& o) noexcept : live{o.live} { ++*live; }
    ~Probe() { --*live; }
  };
  Simulator sim;
  int live = 0;
  const EventId id = sim.schedule_after(Duration::days(30),
                                        [probe = Probe{&live}] { (void)probe; });
  EXPECT_GT(live, 0);
  sim.cancel(id);
  EXPECT_EQ(live, 0);  // reclaimed now, not 30 simulated days later
  sim.check_invariants();
  sim.run();
}

TEST(Simulator, SlotsAreRecycledAcrossChurn) {
  // Schedule/cancel churn must not grow bookkeeping: pending() returns to
  // zero and invariants hold at every step.
  Simulator sim;
  for (int round = 0; round < 100; ++round) {
    const EventId keep = sim.schedule_after(Duration::hours(1), [] {});
    const EventId drop = sim.schedule_after(Duration::hours(2), [] {});
    sim.cancel(drop);
    sim.cancel(keep);
  }
  EXPECT_EQ(sim.pending(), 0u);
  sim.check_invariants();
}

TEST(Simulator, StaleIdAfterSlotReuseIsNoOp) {
  // Generation tags: an id whose slot was reclaimed and reused must not
  // cancel the new occupant.
  Simulator sim;
  const EventId old_id = sim.schedule_after(Duration::hours(1), [] {});
  sim.cancel(old_id);
  int ran = 0;
  sim.schedule_after(Duration::hours(1), [&ran] { ++ran; });  // reuses the slot
  sim.cancel(old_id);  // stale generation: must be ignored
  sim.run();
  EXPECT_EQ(ran, 1);
}

TEST(Simulator, PeriodicHandleIsNotCancellableAsEvent) {
  // Periodic handles live in a tagged id space; cancel() must ignore them
  // (and cancel_periodic must ignore plain event ids).
  Simulator sim;
  int ticks = 0;
  const EventId periodic = sim.schedule_every(Duration::hours(1), [&ticks] { ++ticks; });
  const EventId plain = sim.schedule_after(Duration::hours(10), [] {});
  sim.cancel(periodic);        // wrong API for a periodic: no-op
  sim.cancel_periodic(plain);  // wrong API for a plain event: no-op
  sim.run_until(TimePoint{} + Duration::hours(3.5));
  EXPECT_EQ(ticks, 3);
  sim.cancel_periodic(periodic);
  sim.cancel(plain);
  sim.run();
  sim.check_invariants();
}

TEST(Simulator, CheckInvariantsHoldsThroughMixedLoad) {
  Simulator sim;
  RngStream rng = RngFactory{42}.stream("mix");
  std::vector<EventId> ids;
  int fired = 0;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(sim.schedule_after(Duration::hours(rng.uniform(0.1, 48.0)),
                                     [&fired] { ++fired; }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 3) sim.cancel(ids[i]);
  sim.check_invariants();
  sim.run_until(TimePoint{} + Duration::hours(24.0));
  sim.check_invariants();
  sim.run();
  sim.check_invariants();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_GT(fired, 0);
}

// The trace fold is integer-only, so this constant holds on any standard
// library. The schedule covers two instants, two events at one instant
// (folded in schedule order) and a cancelled event, which folds nothing.
TEST(Simulator, TraceHashIsPinned) {
  const auto trace_of = [](std::int64_t first_shift_us) {
    Simulator sim;
    const TimePoint t0 = TimePoint::origin();
    sim.schedule_at(t0 + Duration::seconds(1) + Duration::microseconds(first_shift_us), [] {});
    const EventId cancelled = sim.schedule_at(t0 + Duration::seconds(2), [] {});
    sim.schedule_at(t0 + Duration::seconds(3), [] {});
    sim.schedule_at(t0 + Duration::seconds(3), [] {});
    sim.cancel(cancelled);
    sim.run();
    EXPECT_EQ(sim.events_processed(), 3u);
    return sim.trace_hash();
  };
  EXPECT_EQ(trace_of(0), 0x9c1bb25db02b8a0cull);
  // Moving one event by 1 us changes one word of the fold.
  EXPECT_NE(trace_of(1), trace_of(0));
}

TEST(Rng, SameSeedSameStreamIsReproducible) {
  RngFactory f1{12345};
  RngFactory f2{12345};
  RngStream a = f1.stream("faults");
  RngStream b = f2.stream("faults");
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentStreamsDiffer) {
  RngFactory f{12345};
  RngStream a = f.stream("faults");
  RngStream b = f.stream("robots");
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, BernoulliExtremes) {
  RngFactory f{1};
  RngStream s = f.stream("x");
  for (int i = 0; i < 32; ++i) {
    EXPECT_FALSE(s.bernoulli(0.0));
    EXPECT_TRUE(s.bernoulli(1.0));
  }
}

TEST(Rng, ExponentialMeanIsApproximatelyRight) {
  RngFactory f{7};
  RngStream s = f.stream("exp");
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += s.exponential(10.0);
  EXPECT_NEAR(sum / n, 10.0, 0.5);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  RngFactory f{7};
  RngStream s = f.stream("w");
  const std::vector<double> w{1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) ++counts[s.weighted_index(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.5);
}

TEST(Rng, WeightedIndexRejectsBadInput) {
  RngFactory f{7};
  RngStream s = f.stream("w");
  EXPECT_THROW((void)s.weighted_index({}), std::invalid_argument);
  const std::vector<double> zeros{0.0, 0.0};
  EXPECT_THROW((void)s.weighted_index(zeros), std::invalid_argument);
}

TEST(Rng, NormalMinTruncates) {
  RngFactory f{9};
  RngStream s = f.stream("nm");
  for (int i = 0; i < 1000; ++i) EXPECT_GE(s.normal_min(1.0, 5.0, 0.0), 0.0);
}

TEST(Rng, IndexOnEmptyThrows) {
  RngFactory f{9};
  RngStream s = f.stream("i");
  EXPECT_THROW((void)s.index(0), std::invalid_argument);
}

TEST(Rng, ShuffleIsPermutation) {
  RngFactory f{11};
  RngStream s = f.stream("sh");
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  s.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

}  // namespace
}  // namespace smn::sim

namespace smn::sim {
namespace {

// The owned algorithms are specified by the repo, so their variates are
// pinned: a change to any of them moves the fault stream and must show here.
// Uniforms and geometric counts are exact; transcendental results allow a
// few ulps of libm difference.
TEST(RngOwned, FirstDrawsArePinned) {
  RngStream r{20261019};
  EXPECT_EQ(r.uniform53(), 0.41349336442300566);
  EXPECT_EQ(r.uniform53(), 0.74692758773756207);
  EXPECT_EQ(r.uniform53(), 0.20232283849301402);
  EXPECT_EQ(r.geometric(0.01), 32);
  EXPECT_EQ(r.geometric(0.01), 24);
  EXPECT_EQ(r.geometric(0.01), 93);
  const auto near = [](double got, double want) { EXPECT_NEAR(got, want, 1e-12 * std::abs(want)); };
  near(r.gamma(3.0, 0.5), 1.1442493486309409);
  near(r.gamma(3.0, 0.5), 1.1203865034674885);
  near(r.gamma(3.0, 0.5), 2.2946903908790546);
  near(r.gamma(0.5, 2.0), 0.53183799832065826);
  near(r.gamma(0.5, 2.0), 1.1552183541090784);
  near(r.gamma(0.5, 2.0), 1.5969423215780008);
  near(r.lognormal_bm(1.0, 0.5), 3.7008003544049952);
  near(r.lognormal_bm(1.0, 0.5), 4.2882999520878542);
  near(r.lognormal_bm(1.0, 0.5), 3.2966995177716409);
  EXPECT_EQ(r.owned_draws(), 15u);
}

TEST(RngOwned, DegenerateGeometricDrawsNothing) {
  RngStream r{3};
  EXPECT_EQ(r.geometric(1.0), 0);
  EXPECT_EQ(r.geometric(0.0), RngStream::kNever);
  EXPECT_EQ(r.geometric(-1.0), RngStream::kNever);
  EXPECT_EQ(r.gamma(0.0, 1.0), 0.0);
  EXPECT_EQ(r.owned_draws(), 0u);
}

TEST(RngOwned, MomentsMatchTheirDistributions) {
  RngStream r{11};
  constexpr int kN = 200000;
  double geo = 0.0, gam = 0.0, gam_sq = 0.0, norm = 0.0, norm_sq = 0.0;
  for (int i = 0; i < kN; ++i) {
    geo += static_cast<double>(r.geometric(0.2));
    const double g = r.gamma(4.0, 0.25);
    gam += g;
    gam_sq += g * g;
    const double z = std::log(r.lognormal_bm(1.0, 2.0));  // the owned normal
    norm += z;
    norm_sq += z * z;
  }
  const auto mean = [](double sum) { return sum / kN; };
  EXPECT_NEAR(mean(geo), 0.8 / 0.2, 0.03);                         // (1-p)/p
  EXPECT_NEAR(mean(gam), 1.0, 0.005);                              // shape * scale
  EXPECT_NEAR(mean(gam_sq) - mean(gam) * mean(gam), 0.25, 0.005);  // shape * scale^2
  EXPECT_NEAR(mean(norm), 1.0, 0.02);
  EXPECT_NEAR(mean(norm_sq) - mean(norm) * mean(norm), 4.0, 0.05);
}

}  // namespace
}  // namespace smn::sim
