#include "robotics/fleet.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>

#include "core/check.h"

namespace smn::robotics {

using maintenance::Job;
using maintenance::JobCallback;
using maintenance::JobReport;
using maintenance::RepairActionKind;

const char* to_string(MobilityScope s) {
  switch (s) {
    case MobilityScope::kRack: return "rack";
    case MobilityScope::kRow: return "row";
    case MobilityScope::kHall: return "hall";
  }
  return "?";
}

RobotFleet::RobotFleet(net::Network& net, fault::CascadeModel& cascade,
                       fault::ContaminationProcess* contamination, sim::RngStream rng,
                       Config cfg)
    : net_{net},
      cascade_{cascade},
      contamination_{contamination},
      rng_{std::move(rng)},
      cfg_{std::move(cfg)},
      manipulator_{cfg_.manipulator},
      cleaner_{cfg_.cleaner},
      fom_engine_{net.simulator()},
      restock_fom_{*this},
      restock_anchor_{net.now()} {
  for (const RobotUnitSpec& spec : cfg_.units) {
    units_.push_back(Unit{spec, spec.home, false, true});
  }
  for (const net::FormFactor ff :
       {net::FormFactor::kSfp28, net::FormFactor::kQsfp28, net::FormFactor::kQsfpDd,
        net::FormFactor::kOsfp}) {
    spares_[ff] = cfg_.spares_per_form_factor;
  }
}

bool RobotFleet::capable(RepairActionKind kind) const {
  switch (kind) {
    case RepairActionKind::kReseat:
    case RepairActionKind::kInspect:
    case RepairActionKind::kClean:
    case RepairActionKind::kReplaceTransceiver:
      return true;
    case RepairActionKind::kReplaceCable:
      return cfg_.can_replace_cable;
    case RepairActionKind::kReplaceLineCard:
    case RepairActionKind::kReplaceDevice:
      return cfg_.can_replace_device;
  }
  return false;
}

bool RobotFleet::unit_covers(const Unit& u, const topology::RackLocation& loc) const {
  switch (u.spec.scope) {
    case MobilityScope::kRack: return u.spec.home.same_rack(loc);
    case MobilityScope::kRow: return u.spec.home.same_row(loc);
    case MobilityScope::kHall: return u.spec.home.same_hall(loc);
  }
  return false;
}

bool RobotFleet::reachable(net::LinkId link, int end) const {
  const net::Link& l = net_.link(link);
  const net::DeviceId dev = end == 0 ? l.end_a.device : l.end_b.device;
  const topology::RackLocation& loc = net_.device(dev).location;
  return std::any_of(units_.begin(), units_.end(),
                     [&](const Unit& u) { return unit_covers(u, loc); });
}

sim::Duration RobotFleet::travel_time(const Unit& u, const topology::RackLocation& to) const {
  switch (u.spec.scope) {
    case MobilityScope::kRack:
      // Fixed in-rack frame: just reposition the arm along the rack.
      return sim::Duration::seconds(30.0);
    case MobilityScope::kRow: {
      const double dx = std::abs(u.position.rack - to.rack) *
                        net_.blueprint().layout().config().rack_pitch_m;
      return sim::Duration::seconds(dx / u.spec.travel_speed_mps + 30.0);
    }
    case MobilityScope::kHall: {
      const double d = net_.blueprint().layout().walking_distance_m(u.position, to);
      return sim::Duration::seconds(d / u.spec.travel_speed_mps + 60.0);
    }
  }
  return sim::Duration::zero();
}

topology::RackLocation RobotFleet::site_of(const Job& job) const {
  const net::Link& l = net_.link(job.link);
  const net::DeviceId dev = job.end == 0 ? l.end_a.device : l.end_b.device;
  return net_.device(dev).location;
}

std::optional<std::size_t> RobotFleet::pick_unit(const topology::RackLocation& site) const {
  // Prefer the tightest scope that covers the site (rack < row < hall): small
  // units are cheaper to tie up and closer to the work.
  std::optional<std::size_t> best;
  int best_rank = 99;
  for (std::size_t i = 0; i < units_.size(); ++i) {
    const Unit& u = units_[i];
    if (u.busy || !u.operational || !unit_covers(u, site)) continue;
    const int rank = static_cast<int>(u.spec.scope);
    if (rank < best_rank) {
      best = i;
      best_rank = rank;
    }
  }
  return best;
}

void RobotFleet::set_obs(obs::Obs* o) {
  if (o == nullptr) return;
  if (obs::Registry* reg = o->metrics()) {
    obs_jobs_ = reg->counter("robot_jobs_total");
    obs_escalations_ = reg->counter("robot_escalations_total");
    obs_breakdowns_ = reg->counter("robot_breakdowns_total");
    // Robot jobs are minutes-to-hours: travel along the gantry plus the
    // §3.2/§3.3 manipulation sequence.
    obs_job_hours_ = reg->histogram("robot_job_hours", {0.25, 0.5, 1.0, 2.0, 4.0, 12.0});
    fom_engine_.set_obs(reg->counter("sim_wakeups_robot_total"));
  }
  obs_trace_ = o->trace();
  obs_recorder_ = o->recorder();
}

void RobotFleet::report_immediate(const Pending& p, const char* performer) {
  JobReport r;
  r.job = p.job;
  r.performed = false;
  r.enqueued = p.enqueued;
  r.started = net_.now();
  r.finished = net_.now();
  r.performer = performer;
  ++escalations_;
  if (obs_escalations_ != nullptr) obs_escalations_->inc();
  if (obs_trace_ != nullptr) obs_trace_->instant(
      performer, "robot", net_.now(), "ticket", p.job.ticket_id);
  if (obs_recorder_ != nullptr) {
    obs_recorder_->record(net_.now().count_us(), "robot-escalate", p.job.ticket_id,
                          static_cast<std::int64_t>(p.job.kind));
  }
  if (p.cb) p.cb(r);
}

void RobotFleet::submit(const Job& job, JobCallback cb) {
  Pending p{job, std::move(cb), net_.now()};
  if (!capable(job.kind)) {
    report_immediate(p, "robot-incapable");
    return;
  }
  if (!reachable(job.link, job.end)) {
    report_immediate(p, "robot-unreachable");
    return;
  }
  if (job.high_priority) {
    auto it = std::find_if(queue_.begin(), queue_.end(),
                           [](const Pending& q) { return !q.job.high_priority; });
    queue_.insert(it, std::move(p));
  } else {
    queue_.push_back(std::move(p));
  }
  try_dispatch();
}

void RobotFleet::lock_row(const topology::RackLocation& row, sim::Duration duration) {
  const std::int64_t key = (static_cast<std::int64_t>(row.hall) << 20) | row.row;
  const sim::TimePoint until = net_.now() + duration;
  auto& expiry = row_locks_[key];
  if (until > expiry) expiry = until;
  if (!cfg_.use_fom) {
    // Reference semantics: one re-check per lock_row call. Superseded checks
    // fire while the row is still locked and find nothing new to dispatch.
    net_.simulator().schedule_at(until, [this] { try_dispatch(); });
    return;
  }
  // One armed re-check per row, at the latest expiry. Extending the lockout
  // cancels the superseded event (its captured state is reclaimed eagerly)
  // instead of leaving a trail of no-op wakeups.
  RowRecheck& arm = row_rechecks_[key];
  if (arm.event != sim::kInvalidEvent && arm.at >= until) return;
  if (arm.event != sim::kInvalidEvent) net_.simulator().cancel(arm.event);
  arm.at = until;
  arm.event = net_.simulator().schedule_at(until, [this, key] {
    row_rechecks_[key].event = sim::kInvalidEvent;
    try_dispatch();
  });
}

bool RobotFleet::row_locked(const topology::RackLocation& loc) const {
  const std::int64_t key = (static_cast<std::int64_t>(loc.hall) << 20) | loc.row;
  const auto it = row_locks_.find(key);
  return it != row_locks_.end() && net_.now() < it->second;
}

void RobotFleet::try_dispatch() {
  // Scan the whole queue: a job for a busy row must not block a job for an
  // idle one (no head-of-line blocking across scopes).
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (row_locked(site_of(it->job))) {
      ++it;  // a human is working in that row; hold the robot back (§3.4)
      continue;
    }
    const auto unit = pick_unit(site_of(it->job));
    if (unit.has_value()) {
      Pending p = std::move(*it);
      it = queue_.erase(it);
      units_[*unit].busy = true;
      run(*unit, std::move(p));
    } else {
      ++it;
    }
  }
}

void RobotFleet::run(std::size_t unit_index, Pending p) {
  Unit& unit = units_[unit_index];
  const topology::RackLocation site = site_of(p.job);
  const sim::Duration travel = travel_time(unit, site);
  unit.position = site;

  const net::Link& l = net_.link(p.job.link);
  const net::TransceiverModel& sku = p.job.end == 0 ? l.end_a.model : l.end_b.model;
  const net::DeviceId at = p.job.end == 0 ? l.end_a.device : l.end_b.device;
  int clutter = 0;
  cascade_.for_each_faceplate_neighbor(p.job.link, at, [&clutter](net::LinkId) { ++clutter; });
  const int cores = l.cores_per_end();

  // Sample the action timeline up front (deterministic given the rng state).
  sim::Duration work = sim::Duration::zero();
  bool success = true;        // robot completed the action autonomously
  bool nospare = false;
  // §3.3.2: the unit "reassembles the transceiver and cable to minimize the
  // risk of recontamination" — robotic re-mating exposes end-faces far less
  // than human handling.
  maintenance::WorkQuality quality{.clean_effectiveness = 0.0,
                                   .clean_verify_pass = 1.0,
                                   .botch_probability = 0.003,
                                   .exposure_risk = 0.2};
  switch (p.job.kind) {
    case RepairActionKind::kReseat: {
      const auto a = manipulator_.reseat(rng_, sku, clutter);
      work = a.duration;
      success = a.success;
      break;
    }
    case RepairActionKind::kInspect: {
      const auto u1 = manipulator_.unplug(rng_, sku, clutter);
      const auto u2 = manipulator_.plug(rng_, sku, clutter);
      work = u1.duration + sim::Duration::seconds(2.0 * cfg_.transfer_s) +
             cleaner_.inspect_only(cores) + u2.duration;
      success = u1.success && u2.success;
      break;
    }
    case RepairActionKind::kClean: {
      const auto u1 = manipulator_.unplug(rng_, sku, clutter);
      // Graded verification: the cleaning unit images the actual residual
      // after each wet/dry cycle against the IEC-style spec.
      const double dirt =
          (p.job.end == 0 ? l.end_a.condition : l.end_b.condition).contamination;
      const auto cl = cleaner_.clean_sequence_graded(rng_, cores, dirt);
      const auto u2 = manipulator_.plug(rng_, sku, clutter);
      work = u1.duration + sim::Duration::seconds(2.0 * cfg_.transfer_s) + cl.duration +
             u2.duration;
      success = u1.success && u2.success && cl.verified;
      quality.clean_effectiveness = cl.total_effectiveness;
      break;
    }
    case RepairActionKind::kReplaceTransceiver: {
      if (spares_[sku.form_factor] <= 0) {
        nospare = true;
        break;
      }
      spares_[sku.form_factor] -= 1;
      arm_restock();  // inventory below cap: the next weekly top-up matters
      const auto u1 = manipulator_.unplug(rng_, sku, clutter);
      const auto u2 = manipulator_.plug(rng_, sku, clutter);
      work = u1.duration + u2.duration + sim::Duration::seconds(30.0);  // POST check
      success = u1.success && u2.success;
      break;
    }
    case RepairActionKind::kReplaceCable:
      work = sim::Duration::hours(1.5);  // future-work fiber-laying unit
      break;
    case RepairActionKind::kReplaceLineCard:
      work = sim::Duration::minutes(40.0);  // card cassette swap + POST
      break;
    case RepairActionKind::kReplaceDevice:
      work = sim::Duration::hours(2.0);
      break;
  }

  if (nospare) {
    ++stockouts_;
    unit.busy = false;
    report_immediate(p, "robot-nospare");
    try_dispatch();
    return;
  }

  const sim::TimePoint start = net_.now() + travel;
  const sim::TimePoint finish = start + work;

  if (!cfg_.use_fom) {
    run_legacy(unit_index, std::move(p), start, finish, travel, work, success, quality);
    return;
  }
  JobFom& f = acquire_fom();
  f.begin(unit_index, std::move(p), start, finish, travel, work, success, quality);
}

RobotFleet::JobFom& RobotFleet::acquire_fom() {
  if (!fom_free_.empty()) {
    JobFom* f = fom_free_.back();
    fom_free_.pop_back();
    return *f;
  }
  foms_.push_back(std::make_unique<JobFom>(*this));
  return *foms_.back();
}

void RobotFleet::JobFom::begin(std::size_t unit_index, Pending p, sim::TimePoint start,
                               sim::TimePoint finish, sim::Duration travel, sim::Duration work,
                               bool success, maintenance::WorkQuality quality) {
  unit_index_ = unit_index;
  p_ = std::move(p);
  start_ = start;
  finish_ = finish;
  travel_ = travel;
  work_ = work;
  success_ = success;
  quality_ = quality;
  induced_ = 0;
  set_phase(kStart);
  engine().wake_at(*this, start_);
}

sim::Fom::Tick RobotFleet::JobFom::tick() {
  switch (phase()) {
    case kStart: {
      // Arm the finish wakeup before any side effect so it keeps the
      // insertion order it had when both events were scheduled at dispatch.
      set_phase(kFinish);
      engine().wake_at(*this, finish_);
      if (p_.job.on_work_start) p_.job.on_work_start();
      const net::Link& link = fleet_.net_.link(p_.job.link);
      fault::Disturbance d;
      d.target = p_.job.link;
      d.at_device = p_.job.end == 0 ? link.end_a.device : link.end_b.device;
      d.magnitude = fleet_.cfg_.disturbance;
      d.full_route = p_.job.kind == RepairActionKind::kReplaceCable;
      induced_ = fleet_.cascade_.apply(d).size();
      return Tick::kWait;
    }
    case kFinish:
      fleet_.finish_job(*this);
      return Tick::kDone;
    default: break;
  }
  return Tick::kDone;
}

void RobotFleet::JobFom::on_done() {
  p_ = Pending{};  // release the captured callback/job state eagerly
  fleet_.fom_free_.push_back(this);
}

void RobotFleet::finish_job(JobFom& f) {
  JobReport report;
  report.job = f.p_.job;
  report.enqueued = f.p_.enqueued;
  report.started = f.start_;
  report.finished = f.finish_;
  report.induced_faults = f.induced_;
  if (f.success_) {
    const maintenance::ActionResult r = apply_action(net_, contamination_, rng_, f.p_.job.link,
                                                     f.p_.job.end, f.p_.job.kind, f.quality_);
    report.performed = r.performed;
    report.botched = r.botched;
    report.measured_contamination = r.measured_contamination;
    report.performer = "robot";
  } else {
    // Grasp or verification failure: partial cleaning still counts, then
    // the unit "requests human support" (§3.3.2).
    if (f.p_.job.kind == RepairActionKind::kClean && f.quality_.clean_effectiveness > 0.0) {
      (void)apply_action(net_, contamination_, rng_, f.p_.job.link, f.p_.job.end,
                         RepairActionKind::kClean, f.quality_);
    }
    report.performed = false;
    report.performer = "robot-escalate";
    ++escalations_;
    if (obs_escalations_ != nullptr) obs_escalations_->inc();
  }
  busy_hours_ += (f.travel_ + f.work_).to_hours();
  ++completed_;
  if (report.performed) ++by_kind_[static_cast<int>(f.p_.job.kind)];
  if (obs_jobs_ != nullptr) {
    obs_jobs_->inc();
    obs_job_hours_->observe((f.travel_ + f.work_).to_hours());
  }
  if (obs_trace_ != nullptr) obs_trace_->complete(
      to_string(f.p_.job.kind), "robot", f.start_, f.finish_, "ticket", f.p_.job.ticket_id,
      "performed", report.performed ? 1 : 0);
  if (obs_recorder_ != nullptr) {
    obs_recorder_->record(f.finish_.count_us(), "robot-job", f.p_.job.ticket_id,
                          static_cast<std::int64_t>(f.p_.job.kind));
  }
  release_unit(f.unit_index_);
  if (f.p_.cb) f.p_.cb(report);
  try_dispatch();
}

void RobotFleet::run_legacy(std::size_t unit_index, Pending p, sim::TimePoint start,
                            sim::TimePoint finish, sim::Duration travel, sim::Duration work,
                            bool success, maintenance::WorkQuality quality) {
  // Reference semantics for the differential oracle: both job events are
  // scheduled at dispatch time, capturing the whole job state by value.
  auto induced = std::make_shared<std::size_t>(0);
  net_.simulator().schedule_at(start, [this, job = p.job, induced] {
    if (job.on_work_start) job.on_work_start();
    const net::Link& link = net_.link(job.link);
    fault::Disturbance d;
    d.target = job.link;
    d.at_device = job.end == 0 ? link.end_a.device : link.end_b.device;
    d.magnitude = cfg_.disturbance;
    d.full_route = job.kind == RepairActionKind::kReplaceCable;
    *induced = cascade_.apply(d).size();
  });

  net_.simulator().schedule_at(finish, [this, unit_index, p = std::move(p), start, finish,
                                        travel, work, success, quality, induced]() mutable {
    JobReport report;
    report.job = p.job;
    report.enqueued = p.enqueued;
    report.started = start;
    report.finished = finish;
    report.induced_faults = *induced;
    if (success) {
      const maintenance::ActionResult r = apply_action(
          net_, contamination_, rng_, p.job.link, p.job.end, p.job.kind, quality);
      report.performed = r.performed;
      report.botched = r.botched;
      report.measured_contamination = r.measured_contamination;
      report.performer = "robot";
    } else {
      // Grasp or verification failure: partial cleaning still counts, then
      // the unit "requests human support" (§3.3.2).
      if (p.job.kind == RepairActionKind::kClean && quality.clean_effectiveness > 0.0) {
        (void)apply_action(net_, contamination_, rng_, p.job.link, p.job.end,
                           RepairActionKind::kClean, quality);
      }
      report.performed = false;
      report.performer = "robot-escalate";
      ++escalations_;
      if (obs_escalations_ != nullptr) obs_escalations_->inc();
    }
    busy_hours_ += (travel + work).to_hours();
    ++completed_;
    if (report.performed) ++by_kind_[static_cast<int>(p.job.kind)];
    if (obs_jobs_ != nullptr) {
      obs_jobs_->inc();
      obs_job_hours_->observe((travel + work).to_hours());
    }
    if (obs_trace_ != nullptr) obs_trace_->complete(
        to_string(p.job.kind), "robot", start, finish, "ticket", p.job.ticket_id, "performed",
        report.performed ? 1 : 0);
    if (obs_recorder_ != nullptr) {
      obs_recorder_->record(finish.count_us(), "robot-job", p.job.ticket_id,
                            static_cast<std::int64_t>(p.job.kind));
    }
    release_unit(unit_index);
    if (p.cb) p.cb(report);
    try_dispatch();
  });
}

void RobotFleet::release_unit(std::size_t unit_index) {
  Unit& unit = units_[unit_index];
  unit.busy = false;
  // Robots are hardware too: occasionally one breaks after a job and goes
  // offline for its own repair window.
  if (rng_.bernoulli(cfg_.failure_per_job)) {
    unit.operational = false;
    ++breakdowns_;
    if (obs_breakdowns_ != nullptr) obs_breakdowns_->inc();
    net_.simulator().schedule_after(cfg_.robot_repair_time, [this, unit_index] {
      units_[unit_index].operational = true;
      try_dispatch();
    });
  }
}

int RobotFleet::units_online() const {
  return static_cast<int>(std::count_if(units_.begin(), units_.end(), [](const Unit& u) {
    return u.operational;
  }));
}

int RobotFleet::spares_available(net::FormFactor ff) const {
  const auto it = spares_.find(ff);
  return it == spares_.end() ? 0 : it->second;
}

void RobotFleet::arm_restock() {
  // Strictly-next grid point on the old weekly timer's schedule (anchor =
  // construction time). Wakeup coalescing makes repeated consumptions within
  // one interval free, and restock() tops every form factor back to cap, so
  // no re-arm is needed on fire — the next consumption arms the next one.
  const std::int64_t us = cfg_.restock_interval.count_us();
  const std::int64_t k = (net_.now() - restock_anchor_).count_us() / us + 1;
  fom_engine_.wake_at(restock_fom_,
                      restock_anchor_ + sim::Duration::microseconds(k * us));
}

sim::Fom::Tick RobotFleet::RestockFom::tick() {
  fleet_.restock();
  return Tick::kWait;
}

void RobotFleet::restock() {
  for (auto& [ff, count] : spares_) {
    count = std::max(count, cfg_.spares_per_form_factor);
  }
}

void RobotFleet::check_invariants() const {
  for (std::size_t i = 0; i < units_.size(); ++i) {
    const Unit& u = units_[i];
    // Dispatch only picks operational units and breakdowns are decided after
    // the job releases the unit, so a busy broken unit means lost bookkeeping.
    SMN_ASSERT(!u.busy || u.operational, "unit %zu (%s) busy while broken", i,
               u.spec.name.c_str());
    SMN_ASSERT(u.spec.travel_speed_mps > 0.0, "unit %zu (%s) cannot move", i,
               u.spec.name.c_str());
  }
  for (const auto& [ff, count] : spares_) {
    SMN_ASSERT(count >= 0, "negative spares (%d) for form factor %d", count,
               static_cast<int>(ff));
  }
  const sim::TimePoint now = net_.now();
  for (const Pending& p : queue_) {
    SMN_ASSERT(static_cast<bool>(p.cb), "queued job for ticket %d has no callback",
               p.job.ticket_id);
    SMN_ASSERT(p.job.link.valid(), "queued job for ticket %d has no link", p.job.ticket_id);
    SMN_ASSERT(p.enqueued <= now, "job for ticket %d enqueued in the future", p.job.ticket_id);
  }
  std::size_t by_kind_total = 0;
  for (const std::size_t n : by_kind_) by_kind_total += n;
  SMN_ASSERT(by_kind_total <= completed_, "per-kind tally %zu exceeds completions %zu",
             by_kind_total, completed_);
  SMN_ASSERT(busy_hours_ >= 0.0 && std::isfinite(busy_hours_), "busy hours corrupt: %f",
             busy_hours_);
}

RobotFleet::Config RobotFleet::row_coverage(const topology::Blueprint& bp, int hall_rovers) {
  Config cfg;
  // One gantry per row that contains any cabled device — server NICs need
  // service too (a GPU server's rail transceivers live in its own rack).
  std::set<std::pair<int, int>> cabled_rows;  // (hall, row)
  for (const topology::NodeSpec& n : bp.nodes()) {
    if (n.ports_used > 0) cabled_rows.insert({n.location.hall, n.location.row});
  }
  for (const auto& [hall, row] : cabled_rows) {
    RobotUnitSpec spec;
    spec.name = "gantry-h" + std::to_string(hall) + "r" + std::to_string(row);
    spec.scope = MobilityScope::kRow;
    spec.home = topology::RackLocation{hall, row, 0, 0};
    cfg.units.push_back(std::move(spec));
  }
  for (int i = 0; i < hall_rovers; ++i) {
    RobotUnitSpec spec;
    spec.name = "rover-" + std::to_string(i);
    spec.scope = MobilityScope::kHall;
    spec.home = topology::RackLocation{0, 0, 0, 0};
    cfg.units.push_back(std::move(spec));
  }
  return cfg;
}

}  // namespace smn::robotics
