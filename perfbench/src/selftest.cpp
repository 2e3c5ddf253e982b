// Fixed-input checks of the benchmark's own arithmetic: the tail percentile
// rule, step attribution and the campus chunk split. Runs at the start of
// every benchmark run; a failure refuses the run.
#include <cmath>
#include <cstdio>

#include "perfbench.h"

namespace perfbench {
namespace {

bool check(bool ok, const char* what) {
  if (!ok) std::fprintf(stderr, "perfbench self-test failed: %s\n", what);
  return ok;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

bool test_tail() {
  std::vector<double> v;
  for (int i = 40; i >= 1; --i) v.push_back(i);  // unsorted input
  const std::optional<Tail> t = tail_percentile(v);
  bool ok = check(t.has_value(), "tail exists for n=40");
  if (t) {
    // Sorted index 29 holds 30; exactly 10 samples (31..40) lie beyond it.
    ok &= check(near(t->value, 30.0) && near(t->percentile, 75.0) && t->n == 40,
                "n=40 tail is p75 = 30");
  }
  std::vector<double> hundred;
  for (int i = 0; i < 100; ++i) hundred.push_back(i);
  const std::optional<Tail> h = tail_percentile(hundred);
  ok &= check(h && near(h->value, 89.0) && near(h->percentile, 90.0), "n=100 tail is p90");
  ok &= check(!tail_percentile(std::vector<double>(10, 1.0)).has_value(),
              "no tail with only 10 samples");
  ok &= check(near(median({3.0, 1.0, 2.0}), 2.0) && near(median({4.0, 1.0, 2.0, 3.0}), 2.5),
              "median");
  // Ten values: the lowest and highest two are dropped.
  ok &= check(near(trimmed_mean({100, 1, 2, 3, 4, 5, 6, 7, -50, 8}), 4.5), "trimmed mean");
  return ok;
}

bool test_attribution() {
  const CounterValues zero{};
  bool ok = check(attribute(ScanTag::kNone, zero, zero) == kSimOther, "no change -> sim.other");
  ok &= check(attribute(ScanTag::kFault, zero, zero) == kFaultScan, "fault scan tag");
  ok &= check(attribute(ScanTag::kContamination, zero, zero) == kContamination,
              "contamination tag");
  CounterValues robot_and_fault{};
  robot_and_fault[0] = 1;  // sim_wakeups_robot_total
  robot_and_fault[5] = 1;  // fault_injected_total
  ok &= check(attribute(ScanTag::kNone, zero, robot_and_fault) == kRobotics,
              "a wakeup outranks the fault counter it moved");
  CounterValues fault_only{};
  fault_only[6] = 2;  // cascade_hops_total
  ok &= check(attribute(ScanTag::kNone, zero, fault_only) == kFaultOther, "cascade -> fault");
  ok &= check(attribute(ScanTag::kFault, zero, robot_and_fault) == kFaultScan,
              "the scan tag outranks counters");
  for (std::size_t i = 0; i < kWatchedCounters.size(); ++i) {
    CounterValues one{};
    one[i] = 1;
    ok &= check(attribute(ScanTag::kNone, zero, one) == kWatchedLayers[i],
                "each watched counter maps to its layer");
  }
  return ok;
}

bool test_chunk_split() {
  const std::thread::id main_thread = std::this_thread::get_id();
  std::thread::id other;
  std::thread t{[&other] { other = std::this_thread::get_id(); }};
  t.join();
  // Two threads: main runs 3 + 1 units, the other 2. Critical path 4 of a
  // wall of 5: 1 unit of handoff, 2 units of straggler wait.
  const std::vector<TaskSpan> spans = {
      {0.5, 3.5, main_thread}, {3.5, 4.5, main_thread}, {0.7, 2.7, other}};
  const ChunkSplit s = split_chunk(5.0, spans);
  bool ok = check(near(s.domain_busy_s, 6.0), "chunk busy");
  ok &= check(near(s.straggler_s, 2.0), "chunk straggler wait");
  ok &= check(near(s.handoff_s, 1.0), "chunk handoff");
  // One thread: the critical path is all of its work, no straggler wait.
  const ChunkSplit seq = split_chunk(4.5, {{0.0, 2.0, main_thread}, {2.0, 4.0, main_thread}});
  ok &= check(near(seq.straggler_s, 0.0) && near(seq.handoff_s, 0.5), "sequential chunk");
  return ok;
}

bool test_snapshot_match() {
  const std::vector<obs::SnapshotEntry> untraced = {{"a_total", 3.0}, {"sim_events_total", 10.0}};
  std::string why;
  bool ok = check(snapshots_match(untraced, {{"a_total", 3.0}, {"sim_events_total", 11.0}}, why),
                  "sentinel +1 is the only allowed difference");
  ok &= check(!snapshots_match(untraced, {{"a_total", 3.0}, {"sim_events_total", 10.0}}, why),
              "a missing sentinel event is a mismatch");
  ok &= check(!snapshots_match(untraced, {{"a_total", 4.0}, {"sim_events_total", 11.0}}, why),
              "a changed counter is a mismatch");
  ok &= check(!snapshots_match(untraced, {{"a_total", 3.0}}, why), "a missing entry");
  return ok;
}

}  // namespace

bool self_test() {
  // Evaluate every group so all failures are reported.
  const bool tail = test_tail();
  const bool attribution = test_attribution();
  const bool split = test_chunk_split();
  const bool snapshot = test_snapshot_match();
  return tail && attribution && split && snapshot;
}

}  // namespace perfbench
