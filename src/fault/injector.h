// Stochastic hardware fault injection.
//
// Covers the paper's failure taxonomy (§1): fail-stop component deaths
// (transceiver, cable, whole device), and gray/transient episodes where a
// link flaps for a while and recovers on its own. Hazard rates are annualized
// failure rates (AFR) applied per step of an hourly lattice; gray-episode
// hazard grows with end-face contamination and environmental stress, which
// is exactly the coupling the paper describes for dirt-driven flapping.
//
// The model is a scan: at each step every usable transceiver end, intact
// cable, healthy device and line card fails with its per-step probability p,
// and every Up/Degraded link starts a gray episode with probability p_t(state,
// stress). The injector realises that scan exactly in distribution while
// paying per fault, not per component (DESIGN.md "Fault calendars"):
//   * fail-stop components hold a Geometric(p) step of next failure on one
//     min-heap, redrawn only when p or eligibility changes (memorylessness);
//   * gray episodes are thinned: one cursor walks the (step, link) lattice
//     with Geometric(p_bar) strides under a hall-wide bound p_bar >= p_t, and
//     accepts a candidate with probability p_t / p_bar;
//   * oxidation accrues lazily: k steps of Exp(m) increments are drawn as one
//     Gamma(k, m) when a gray candidate or a usability change reads them.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "fault/environment.h"
#include "net/network.h"
#include "obs/obs.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

namespace smn::fault {

enum class FaultKind : std::uint8_t {
  kTransceiverFailure,  // module electrically/optically dead; needs replace
  kCableBreak,          // fiber/copper damaged; needs cable replacement
  kDeviceFailure,       // switch/NIC dead; needs device replacement
  kGrayEpisode,         // transient flapping; self-clears
  kLineCardFailure,     // one chassis card dead; its port group goes dark
};
inline constexpr std::size_t kFaultKindCount = 5;
[[nodiscard]] const char* to_string(FaultKind k);

struct FaultEvent {
  sim::TimePoint time;
  FaultKind kind = FaultKind::kGrayEpisode;
  net::LinkId link;      // valid for link-scoped faults
  net::DeviceId device;  // valid for kDeviceFailure
  int end = -1;          // which link end for kTransceiverFailure (0/1)
  sim::Duration gray_duration;  // valid for kGrayEpisode
};

class FaultInjector {
 public:
  struct Config {
    /// Annualized failure rates. Deliberately on the aggressive end of field
    /// data so that month-scale simulations of a few-thousand-link plant see
    /// hundreds of events (documented substitution: accelerated aging).
    double transceiver_afr = 0.04;   // per transceiver end per year
    double cable_afr = 0.006;        // per cable per year
    double switch_afr = 0.015;       // per switch per year
    /// Base gray-episode rate per link per year, before contamination and
    /// environment multipliers.
    double gray_rate_per_year = 1.5;
    /// Contamination multiplies gray hazard by (1 + k * contamination).
    double gray_contamination_gain = 8.0;
    /// Contact oxidation multiplies gray hazard by (1 + k * oxidation);
    /// oxidation is what reseating fixes (§3.2).
    double gray_oxidation_gain = 6.0;
    /// Mean oxidation accumulated per year on a mated contact.
    double oxidation_rate_per_year = 0.15;
    /// Gray episode duration: lognormal, median ~20 minutes.
    double gray_duration_log_mean = std::log(20.0 * 60.0);  // seconds
    double gray_duration_log_sigma = 1.0;
    /// Wear-out: hazard multiplier grows linearly with reseat count (gold
    /// contacts tolerate a finite number of insertions).
    double reseat_wear_gain = 0.02;
    sim::Duration step = sim::Duration::hours(1);
    /// Servers' NICs fail too, but at a lower rate than switches.
    double server_nic_afr = 0.005;
    /// Per line card per year, on chassis switches.
    double linecard_afr = 0.01;
  };

  using Listener = std::function<void(const FaultEvent&)>;

  FaultInjector(net::Network& net, Environment& env, sim::RngStream rng)
      : FaultInjector(net, env, std::move(rng), Config{}) {}
  FaultInjector(net::Network& net, Environment& env, sim::RngStream rng, Config cfg);
  ~FaultInjector();
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Registers the hourly tick (every cfg.step) that calls step_once.
  void start();
  /// Cancels the tick; the calendars keep their state.
  void stop();
  /// One lattice step: fires what the calendars hold for it, in the scan's
  /// order — links in id order (end a, end b, cable, gray), then devices in
  /// id order, each followed by its line cards. Every call is one step, so
  /// a caller that drives its own tick gets the same faults. The first call
  /// draws every component's calendar.
  void step_once();

  void subscribe(Listener l) { listeners_.push_back(std::move(l)); }

  /// Wires observability: per-mechanism injected-fault counters, the exact
  /// count of variates drawn from the fault stream (fault_rng_draws_total),
  /// plus one flight-recorder record and one trace instant per emitted fault,
  /// so a crash dump shows the faults leading up to an invariant failure.
  /// Pure observer — draws no randomness and schedules nothing.
  void set_obs(obs::Obs* o);

  [[nodiscard]] const std::vector<FaultEvent>& log() const { return log_; }
  [[nodiscard]] std::size_t count(FaultKind k) const;

  /// Injects a specific fault immediately (for tests and directed scenarios).
  void inject_transceiver_failure(net::LinkId id, int end);
  void inject_cable_break(net::LinkId id);
  void inject_device_failure(net::DeviceId id);
  void inject_gray_episode(net::LinkId id, sim::Duration duration);
  void inject_linecard_failure(net::DeviceId id, int card);

 private:
  static constexpr std::int64_t kNever = sim::RngStream::kNever;

  /// One fail-stop component, at its scan position: link l's ends at 4l and
  /// 4l+1 and its cable at 4l+2 (4l+3 is its gray draw, which has no slot
  /// state), then each device followed by its line cards.
  struct Slot {
    std::int64_t due = kNever;  // step of the live heap entry; kNever if none
    double p = 0.0;             // per-step probability the entry was drawn with
    std::uint32_t gen = 0;      // stamp of the live entry; older ones are stale
    bool eligible = false;      // as of the last re-check
  };
  /// A heap entry: the slot at `pos` fails at `step` unless `gen` is stale.
  struct Due {
    std::int64_t step;
    std::uint32_t pos;
    std::uint32_t gen;
    /// Min-heap order under std::greater: by step, then scan position.
    friend bool operator>(const Due& a, const Due& b) {
      return a.step != b.step ? a.step > b.step : a.pos > b.pos;
    }
  };
  /// Lazy oxidation of one end: increments of steps >= `from` are not yet in
  /// EndCondition::oxidation; `epoch` is the contact epoch they belong to.
  struct Accrual {
    std::int64_t from = 0;
    std::uint32_t epoch = 0;
  };

  void emit(FaultEvent ev);
  void arm();
  void on_refresh(net::LinkId id);
  void mark_device(net::DeviceId id);
  /// Re-checks every component touched since the last re-check.
  void recheck_dirty(std::int64_t step);
  void recheck_end(std::size_t link, int end, std::int64_t step);
  void recheck_cable(std::size_t link, std::int64_t step);
  void recheck_device(std::size_t device, std::int64_t step);
  /// First step not yet scanned at `pos`, given the drain has reached cursor_.
  [[nodiscard]] std::int64_t first_step(std::uint32_t pos, std::int64_t step) const {
    return static_cast<std::int64_t>(pos) > cursor_ ? step : step + 1;
  }
  /// Brings a slot's calendar in line with (eligible, p) from step `first`.
  void retime(std::uint32_t pos, bool eligible, double p, std::int64_t first);
  void schedule(std::uint32_t pos, std::int64_t step);
  void fire(std::uint32_t pos);
  /// Folds an end's increments for steps [from, last] into its oxidation.
  void materialise(std::size_t link, int end, std::int64_t last);
  /// Recomputes the gray bound; on change, re-bases the cursor at lattice
  /// index `base`. Returns whether it re-based.
  bool rebound_gray(std::int64_t base);
  void gray_candidate(std::int64_t lattice);

  net::Network& net_;
  Environment& env_;
  sim::RngStream rng_;
  Config cfg_;
  double dt_years_;
  std::vector<FaultEvent> log_;
  std::vector<Listener> listeners_;
  sim::EventId periodic_ = sim::kInvalidEvent;

  // The calendars (built by arm() at the first step).
  bool armed_ = false;
  std::int64_t step_ = 0;     // lattice index of the next step_once call
  std::int64_t cursor_ = -1;  // scan position the current step has reached
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> device_pos_;    // device id -> its scan position
  std::vector<std::int32_t> pos_device_;     // scan position - 4L -> device id
  std::vector<Accrual> accrual_;             // 2 per link
  std::vector<Due> heap_;                    // min-heap, std::greater
  std::vector<std::uint8_t> link_dirty_, device_dirty_;
  std::vector<std::uint32_t> dirty_links_, dirty_devices_;
  // Gray thinning: the next candidate's index on the (step, link) lattice,
  // step * links + link, and the bound it strides under. The bound starts
  // invalid (-1, tightening at the origin), so the first step computes it.
  std::int64_t gray_next_ = kNever;
  double gray_p_bar_ = -1.0;
  std::uint64_t bound_epoch_ = 0;
  sim::TimePoint bound_tightens_at_;

  std::array<obs::Counter*, kFaultKindCount> obs_injected_{};
  obs::Counter* obs_injected_total_ = nullptr;
  obs::Counter* obs_draws_ = nullptr;
  std::uint64_t draws_published_ = 0;
  obs::TraceBuffer* obs_trace_ = nullptr;
  obs::FlightRecorder* obs_recorder_ = nullptr;
};

}  // namespace smn::fault
