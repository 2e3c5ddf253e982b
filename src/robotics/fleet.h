// The modular robot fleet and its dispatcher (§3.4).
//
// "rather than a small number of large robots (e.g., humanoids), there will
// be many small robotic units that will need to collaborate ... deployed at
// the granularity of a hall or row of racks."
//
// A RobotFleet is a roster of units, each with a mobility scope (rack-fixed,
// row gantry, or hall rover), executing repair Jobs through the manipulator
// and cleaning-unit models. It mirrors TechnicianPool's submit/callback
// interface so the controller can swap performers per automation level.
// Robots escalate to humans when grasps fail, cleaning cannot be verified,
// spares run out, or the job kind is out of scope (fiber re-laying, §3.3).
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "fault/cascade.h"
#include "fault/contamination.h"
#include "maintenance/actions.h"
#include "net/network.h"
#include "obs/obs.h"
#include "robotics/cleaner.h"
#include "robotics/manipulator.h"
#include "sim/fom.h"
#include "sim/rng.h"

namespace smn::robotics {

/// Deployment scope of a unit (§3.4 "several potential deployment scopes").
enum class MobilityScope : std::uint8_t { kRack, kRow, kHall };
[[nodiscard]] const char* to_string(MobilityScope s);

struct RobotUnitSpec {
  std::string name;
  MobilityScope scope = MobilityScope::kRow;
  topology::RackLocation home;
  /// Gantry / rover translation speed. Deliberately slower than a walking
  /// human; robots win on dispatch latency, not ground speed.
  double travel_speed_mps = 0.5;
};

/// Extended job outcome carried in JobReport::performer strings:
///   "robot"             — completed autonomously
///   "robot-escalate"    — §3.3.2 "requests human support" (verify/grasp fail)
///   "robot-nospare"     — spares inventory empty for the needed form factor
///   "robot-unreachable" — no unit's scope covers the work site
///   "robot-incapable"   — action kind outside robot capability
class RobotFleet {
 public:
  struct Config {
    std::vector<RobotUnitSpec> units;
    ManipulatorProfile manipulator;
    CleaningProfile cleaner;
    /// Spare transceivers stocked per form factor ("the robots can carry
    /// spares", §3.3.2).
    int spares_per_form_factor = 8;
    sim::Duration restock_interval = sim::Duration::days(7);
    /// Disturbance magnitude of the minimal-contact gripper (vs 1.0 human).
    double disturbance = 0.25;
    /// Robot breakdown probability per completed job; broken units go
    /// offline for `robot_repair_time` (robots need maintenance too).
    double failure_per_job = 0.01;
    sim::Duration robot_repair_time = sim::Duration::hours(8);
    /// §3.3: "Currently, we are not focusing on the replacement of fibers."
    /// Flipping this models the paper's future-work robots that can re-lay
    /// cables (ablated in the E7-extension bench).
    bool can_replace_cable = false;
    bool can_replace_device = false;
    /// Fixed seconds to hand a module between manipulator and cleaning unit.
    double transfer_s = 20.0;
    /// Run jobs as pooled state machines with one coalesced row-unlock
    /// recheck per row (allocation-free wakeups). The legacy callback
    /// scheduling is retained as the oracle reference.
    bool use_fom = true;
  };

  RobotFleet(net::Network& net, fault::CascadeModel& cascade,
             fault::ContaminationProcess* contamination, sim::RngStream rng, Config cfg);

  /// Whether the fleet can ever perform this action kind.
  [[nodiscard]] bool capable(maintenance::RepairActionKind kind) const;
  /// Whether some unit's scope covers this link end's rack.
  [[nodiscard]] bool reachable(net::LinkId link, int end) const;

  void submit(const maintenance::Job& job, maintenance::JobCallback cb);

  /// Safety interlock (§3.4: "safety is a major concern when humans and
  /// robots need to co-exist"). While a human is working in a row, robots
  /// neither start nor travel through work there; jobs for that row queue
  /// until the lockout lifts.
  void lock_row(const topology::RackLocation& row, sim::Duration duration);
  [[nodiscard]] bool row_locked(const topology::RackLocation& loc) const;

  [[nodiscard]] std::size_t queued() const { return queue_.size(); }
  [[nodiscard]] std::size_t completed() const { return completed_; }
  [[nodiscard]] std::size_t completed_of(maintenance::RepairActionKind kind) const {
    return by_kind_[static_cast<int>(kind)];
  }
  [[nodiscard]] std::size_t escalations() const { return escalations_; }
  [[nodiscard]] std::size_t stockouts() const { return stockouts_; }
  [[nodiscard]] std::size_t breakdowns() const { return breakdowns_; }
  [[nodiscard]] double busy_hours() const { return busy_hours_; }
  [[nodiscard]] int units_online() const;
  [[nodiscard]] int spares_available(net::FormFactor ff) const;

  /// Builds a roster with one row-gantry per row that contains switches,
  /// plus `hall_rovers` hall-scope rovers — the deployment §3.4 sketches.
  [[nodiscard]] static Config row_coverage(const topology::Blueprint& bp, int hall_rovers = 1);

  /// Wires observability: robot job/escalation counters, job-hours histogram,
  /// and per-job trace spans. Never reads or perturbs the fleet RNG.
  void set_obs(obs::Obs* o);

  /// Aborts (via SMN_ASSERT) on dispatcher-state violations: busy units must
  /// be operational, spares counts non-negative, queued jobs well-formed and
  /// not enqueued in the future, and per-kind completion tallies must not
  /// exceed the overall completion count.
  void check_invariants() const;

 private:
  struct Unit {
    RobotUnitSpec spec;
    topology::RackLocation position;
    bool busy = false;
    bool operational = true;
  };
  struct Pending {
    maintenance::Job job;
    maintenance::JobCallback cb;
    sim::TimePoint enqueued;
  };

  /// One in-flight robot job: dispatched -> working (wakeup at start,
  /// disturbance) -> finished (wakeup at finish, apply/escalate and report).
  /// The sampled action timeline lives in the recycled fom object, so each
  /// wakeup is a 16-byte inline-capture queue entry.
  class JobFom final : public sim::Fom {
   public:
    enum Phase : int { kStart = 0, kFinish = 1 };
    explicit JobFom(RobotFleet& fleet) : sim::Fom(fleet.fom_engine_), fleet_(fleet) {}
    void begin(std::size_t unit_index, Pending p, sim::TimePoint start, sim::TimePoint finish,
               sim::Duration travel, sim::Duration work, bool success,
               maintenance::WorkQuality quality);

   private:
    Tick tick() override;
    void on_done() override;

    RobotFleet& fleet_;
    std::size_t unit_index_ = 0;
    Pending p_;
    sim::TimePoint start_;
    sim::TimePoint finish_;
    sim::Duration travel_{};
    sim::Duration work_{};
    bool success_ = true;
    maintenance::WorkQuality quality_{};
    std::size_t induced_ = 0;
    friend class RobotFleet;
  };

  /// Weekly spares restock as a fom: armed at the next `restock_interval`
  /// grid point only when a spare is actually consumed — a fleet that never
  /// replaces a transceiver schedules no restock events at all. Behavior
  /// matches the old free-running weekly timer: restock() is an idempotent
  /// top-up, so the skipped grid ticks were pure no-ops.
  class RestockFom final : public sim::Fom {
   public:
    explicit RestockFom(RobotFleet& fleet) : sim::Fom(fleet.fom_engine_), fleet_(fleet) {}

   private:
    Tick tick() override;
    RobotFleet& fleet_;
  };

  struct RowRecheck {
    sim::EventId event = sim::kInvalidEvent;
    sim::TimePoint at;
  };

  [[nodiscard]] bool unit_covers(const Unit& u, const topology::RackLocation& loc) const;
  [[nodiscard]] sim::Duration travel_time(const Unit& u,
                                          const topology::RackLocation& to) const;
  [[nodiscard]] std::optional<std::size_t> pick_unit(const topology::RackLocation& site) const;
  [[nodiscard]] topology::RackLocation site_of(const maintenance::Job& job) const;

  void try_dispatch();
  void run(std::size_t unit_index, Pending p);
  void run_legacy(std::size_t unit_index, Pending p, sim::TimePoint start,
                  sim::TimePoint finish, sim::Duration travel, sim::Duration work,
                  bool success, maintenance::WorkQuality quality);
  void finish_job(JobFom& f);
  [[nodiscard]] JobFom& acquire_fom();
  void release_unit(std::size_t unit_index);
  void report_immediate(const Pending& p, const char* performer);
  void restock();
  /// Arms the next grid-aligned restock (called when a spare is consumed).
  void arm_restock();

  net::Network& net_;
  fault::CascadeModel& cascade_;
  fault::ContaminationProcess* contamination_;
  sim::RngStream rng_;
  Config cfg_;
  ManipulatorModel manipulator_;
  CleaningModel cleaner_;
  sim::FomEngine fom_engine_;
  std::vector<std::unique_ptr<JobFom>> foms_;  // all job foms ever created
  std::vector<JobFom*> fom_free_;              // recycled, ready for reuse
  RestockFom restock_fom_;
  sim::TimePoint restock_anchor_;  // restock grid origin (construction time)
  std::vector<Unit> units_;
  std::deque<Pending> queue_;
  /// (hall<<20 | row) -> lockout expiry.
  std::unordered_map<std::int64_t, sim::TimePoint> row_locks_;
  /// (hall<<20 | row) -> the single armed unlock-recheck (fom mode): re-arming
  /// an extended lockout cancels the superseded event instead of piling up
  /// one no-op recheck per lock_row call.
  std::unordered_map<std::int64_t, RowRecheck> row_rechecks_;
  std::unordered_map<net::FormFactor, int> spares_;
  std::size_t completed_ = 0;
  std::size_t by_kind_[maintenance::kRepairActionKinds] = {};
  std::size_t escalations_ = 0;
  std::size_t stockouts_ = 0;
  std::size_t breakdowns_ = 0;
  double busy_hours_ = 0.0;

  // Observability handles (null until set_obs).
  obs::Counter* obs_jobs_ = nullptr;
  obs::Counter* obs_escalations_ = nullptr;
  obs::Counter* obs_breakdowns_ = nullptr;
  obs::Histogram* obs_job_hours_ = nullptr;
  obs::TraceBuffer* obs_trace_ = nullptr;
  obs::FlightRecorder* obs_recorder_ = nullptr;
};

}  // namespace smn::robotics
