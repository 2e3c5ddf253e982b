// Failure detection: what today's services are already good at (§2: "Today's
// services are already good at detecting hardware failures").
//
// The DetectionEngine watches link state transitions, applies debounce so
// momentary blips don't page, counts flap transitions in a sliding window,
// and raises Detections — the events that open tickets. It also injects
// false positives at a configurable rate, because §2 argues tight robot
// control "helps manage the impact of ... false positives on repairs".
//
// Detection is wakeup-on-event, not free-running polling: links in steady
// state (Up, no open issue) cost nothing. A sorted watchlist tracks the
// links that need debounce/self-clear evaluation, and the poll loop — still
// aligned to the `poll` grid so debounce timing matches the classic
// poll-scan semantics — is only armed while the watchlist is non-empty.
// False positives fire from per-link exponential timers: one Poisson process
// per link at `false_positive_per_year`.
//
// Both timers run as FOMs on the engine's own FomEngine (sim/fom.h): the
// poll loop is one fom re-armed at grid points while the watchlist is
// non-empty, and the whole false-positive Poisson ensemble is one fom over a
// min-heap of per-link arrival times — one pending simulator event for the
// entire fleet instead of one per link. Wakeups are counted in
// `sim_wakeups_telemetry_total`.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "net/network.h"
#include "obs/obs.h"
#include "sim/event_queue.h"
#include "sim/fom.h"
#include "sim/rng.h"

namespace smn::telemetry {

enum class IssueKind : std::uint8_t { kDown, kFlapping, kDegraded, kFalsePositive };
[[nodiscard]] const char* to_string(IssueKind k);

struct Detection {
  sim::TimePoint time;
  net::LinkId link;
  IssueKind kind = IssueKind::kDown;
  /// True when the underlying link was genuinely impaired at detection time.
  bool genuine = true;
};

class DetectionEngine {
 public:
  struct Config {
    /// Debounce evaluation grid. Watched links are re-checked on this grid
    /// (matching the classic poll-scan cadence); unwatched links are never
    /// visited.
    sim::Duration poll = sim::Duration::minutes(1);
    /// A Down link is detected after this much continuous downtime.
    sim::Duration down_debounce = sim::Duration::seconds(30);
    /// A Degraded link is detected after this much continuous degradation.
    sim::Duration degraded_debounce = sim::Duration::minutes(15);
    /// Flapping is detected when transitions into kFlapping within
    /// `flap_window` reach `flap_threshold`, or immediately if the link sits
    /// in kFlapping continuously past `down_debounce`.
    int flap_threshold = 3;
    sim::Duration flap_window = sim::Duration::minutes(30);
    /// Spurious detections per healthy link per year (Poisson rate; each
    /// link runs an exponential inter-arrival timer).
    double false_positive_per_year = 0.25;
    /// An open issue self-clears if the link stays Up this long (transient
    /// resolved on its own; the ticket may already be in flight, though).
    sim::Duration self_clear = sim::Duration::minutes(60);
  };

  using Listener = std::function<void(const Detection&)>;

  DetectionEngine(net::Network& net, sim::RngStream rng)
      : DetectionEngine(net, std::move(rng), Config{}) {}
  DetectionEngine(net::Network& net, sim::RngStream rng, Config cfg);

  void start();
  void stop();

  /// Wires the `sim_wakeups_telemetry_total` counter (pure observer).
  void set_obs(obs::Obs* o);

  void subscribe(Listener l) { listeners_.push_back(std::move(l)); }

  /// The repair workflow closes the issue when work on the link completes,
  /// re-arming detection for it.
  void clear(net::LinkId id);

  /// Whether a detection is currently open (raised, not yet cleared).
  [[nodiscard]] bool open(net::LinkId id) const {
    return state_.at(static_cast<size_t>(id.value())).open;
  }

  /// Flap transitions observed on this link within the window ending now —
  /// a predictor feature.
  [[nodiscard]] int recent_flaps(net::LinkId id, sim::Duration window) const;
  /// Lifetime counters, predictor features and experiment statistics.
  [[nodiscard]] int total_flap_transitions(net::LinkId id) const;
  /// Total observed time the link has spent in `s` (including the current
  /// dwell) — predictor feature and availability statistic.
  [[nodiscard]] sim::Duration time_in(net::LinkId id, net::LinkState s) const;
  [[nodiscard]] std::size_t false_positive_count() const { return false_positives_; }

 private:
  struct LinkWatch {
    net::LinkState last_state = net::LinkState::kUp;
    sim::TimePoint state_since;
    sim::TimePoint up_since;
    std::deque<sim::TimePoint> flap_times;  // transitions into kFlapping
    int lifetime_flaps = 0;
    bool open = false;
    bool watched = false;
    sim::Duration time_in_state[4] = {};  // indexed by LinkState, past dwells
  };

  /// The grid-aligned debounce loop: one fom, armed only while the
  /// watchlist is non-empty.
  class PollFom final : public sim::Fom {
   public:
    explicit PollFom(DetectionEngine& eng) : sim::Fom(eng.fom_engine_), eng_(eng) {}

   protected:
    Tick tick() override;

   private:
    DetectionEngine& eng_;
  };

  /// The fleet-wide false-positive Poisson ensemble: a min-heap of per-link
  /// arrival times drained by one fom (each fired link redraws its next
  /// exponential inter-arrival, exactly as the per-link timer chains did).
  class FpFom final : public sim::Fom {
   public:
    explicit FpFom(DetectionEngine& eng) : sim::Fom(eng.fom_engine_), eng_(eng) {}

   protected:
    Tick tick() override;

   private:
    DetectionEngine& eng_;
  };

  void on_transition(const net::Link& l, net::LinkState from, net::LinkState to);
  void raise(net::LinkId id, IssueKind kind, bool genuine);

  // Debounce/self-clear evaluation for one link.
  void scan_link(std::size_t i, sim::TimePoint now);
  // Inserts/removes link i from the sorted watchlist to match its state.
  void update_watch(std::size_t i);
  // Arms the next grid-aligned poll if the watchlist needs one.
  void arm_poll();
  void poll_tick();
  // Draws link i's next arrival and pushes it onto the heap.
  void push_false_positive(std::size_t i);
  void fire_false_positive(std::size_t i);

  net::Network& net_;
  sim::RngStream rng_;
  Config cfg_;
  sim::FomEngine fom_engine_;
  std::vector<LinkWatch> state_;
  std::vector<Listener> listeners_;
  std::size_t false_positives_ = 0;

  bool running_ = false;
  sim::TimePoint anchor_;             // poll grid origin (time of start())
  PollFom poll_fom_;
  FpFom fp_fom_;
  std::vector<std::uint32_t> watch_;  // sorted link indices needing evaluation
  std::vector<std::uint32_t> scratch_;
  /// Min-heap (std::greater over (time, link)) of pending FP arrivals; ties
  /// resolve by link index — deterministic at any heap history.
  std::vector<std::pair<sim::TimePoint, std::uint32_t>> fp_heap_;
};

}  // namespace smn::telemetry
