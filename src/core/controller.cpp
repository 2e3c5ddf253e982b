#include "core/controller.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace smn::core {

using maintenance::Job;
using maintenance::JobReport;
using maintenance::RepairActionKind;
using maintenance::Ticket;
using maintenance::TicketPriority;
using maintenance::TicketState;

MaintenanceController::MaintenanceController(net::Network& net,
                                             telemetry::DetectionEngine& detection,
                                             maintenance::TicketSystem& tickets,
                                             fault::CascadeModel& cascade,
                                             maintenance::TechnicianPool& technicians,
                                             robotics::RobotFleet* fleet,
                                             sim::RngStream rng, Config cfg)
    : net_{net},
      detection_{detection},
      tickets_{tickets},
      cascade_{cascade},
      technicians_{technicians},
      fleet_{fleet},
      rng_{std::move(rng)},
      cfg_{cfg},
      traits_{traits(cfg.level)},
      escalation_{cfg.escalation},
      migrator_{net},
      fom_engine_{net.simulator()},
      scan_fom_{*this},
      supervisors_free_{cfg.supervisors} {}

MaintenanceController::HopFom& MaintenanceController::acquire_hop() {
  if (!hop_free_.empty()) {
    HopFom* f = hop_free_.back();
    hop_free_.pop_back();
    return *f;
  }
  hop_foms_.push_back(std::make_unique<HopFom>(*this));
  return *hop_foms_.back();
}

void MaintenanceController::HopFom::begin_verify(int ticket_id, sim::TimePoint at) {
  ticket_id_ = ticket_id;
  set_phase(kVerify);
  engine().wake_at(*this, at);
}

void MaintenanceController::HopFom::begin_deferred(int ticket_id,
                                                   const EscalationDecision& decision,
                                                   sim::TimePoint at) {
  ticket_id_ = ticket_id;
  decision_ = decision;
  set_phase(kDeferredDispatch);
  engine().wake_at(*this, at);
}

void MaintenanceController::HopFom::begin_retry(int ticket_id, sim::TimePoint at) {
  ticket_id_ = ticket_id;
  set_phase(kRetryPlan);
  engine().wake_at(*this, at);
}

sim::Fom::Tick MaintenanceController::HopFom::tick() {
  switch (phase()) {
    case kVerify: ctl_.verify_ticket(ticket_id_); break;
    case kDeferredDispatch: ctl_.dispatch(ticket_id_, decision_); break;
    case kRetryPlan: ctl_.plan(ticket_id_); break;
    default: break;
  }
  return Tick::kDone;
}

void MaintenanceController::HopFom::on_done() {
  ticket_id_ = -1;
  ctl_.hop_free_.push_back(this);
}

void MaintenanceController::start() {
  if (started_) return;
  started_ = true;
  scan_anchor_ = net_.now();
  detection_.subscribe([this](const telemetry::Detection& d) { on_detection(d); });
  arm_scan();
}

void MaintenanceController::set_obs(obs::Obs* o) {
  if (o == nullptr) return;
  if (obs::Registry* reg = o->metrics()) {
    obs_detections_ = reg->counter("controller_detections_total");
    obs_deferred_ = reg->counter("controller_deferred_total");
    obs_verified_transients_ = reg->counter("controller_verified_transients_total");
    obs_proactive_ = reg->counter("controller_proactive_total");
    obs_human_escalations_ = reg->counter("controller_human_escalations_total");
    obs_robot_dispatch_ = reg->counter("controller_robot_dispatch_total");
    obs_technician_dispatch_ = reg->counter("controller_technician_dispatch_total");
    fom_engine_.set_obs(reg->counter("sim_wakeups_ticket_total"));
  }
  obs_trace_ = o->trace();
  obs_recorder_ = o->recorder();
}

void MaintenanceController::set_critical(net::LinkId id, bool critical) {
  if (critical) {
    critical_.insert(id.value());
  } else {
    critical_.erase(id.value());
  }
}

void MaintenanceController::on_detection(const telemetry::Detection& d) {
  const bool critical = is_critical(d.link);
  const TicketPriority prio =
      d.kind == telemetry::IssueKind::kDown || critical ? TicketPriority::kHigh
                                                        : TicketPriority::kNormal;
  const auto id = tickets_.open(net_.now(), d.link, d.kind, d.genuine, prio);
  if (!id.has_value()) return;  // deduplicated onto an in-flight ticket

  if (obs_detections_ != nullptr) obs_detections_->inc();
  if (obs_trace_ != nullptr) obs_trace_->instant(
      "detection", "controller", net_.now(), "link", d.link.value(), "ticket", *id);
  if (obs_recorder_ != nullptr) {
    obs_recorder_->record(net_.now().count_us(), "detection", d.link.value(), *id);
  }

  // L3+ transient verification: for soft symptoms, give the link a beat to
  // prove the episode is over before rolling hardware. Critical links get a
  // quarter of the normal delay — the workload is stalled while we wait.
  if (traits_.verify_before_dispatch && d.kind != telemetry::IssueKind::kDown) {
    const sim::Duration delay = critical ? cfg_.verify_delay / 4.0 : cfg_.verify_delay;
    acquire_hop().begin_verify(*id, net_.now() + delay);
    return;
  }
  plan(*id);
}

void MaintenanceController::verify_ticket(int ticket_id) {
  const Ticket& t = tickets_.ticket(ticket_id);
  if (t.state != TicketState::kOpen) return;
  if (link_recovered(t.link)) {
    tickets_.mark_cancelled(ticket_id, net_.now(), "verified transient");
    detection_.clear(t.link);
    ++verified_transients_;
    if (obs_verified_transients_ != nullptr) obs_verified_transients_->inc();
    if (obs_trace_ != nullptr) obs_trace_->instant(
        "verified-transient", "controller", net_.now(), "ticket", ticket_id);
    return;
  }
  plan(ticket_id);
}

bool MaintenanceController::link_recovered(net::LinkId id) const {
  const net::Link& l = net_.link(id);
  return l.state == net::LinkState::kUp &&
         detection_.recent_flaps(id, cfg_.verify_delay) == 0;
}

void MaintenanceController::plan(int ticket_id) {
  const Ticket& t = tickets_.ticket(ticket_id);
  if (t.state == TicketState::kResolved || t.state == TicketState::kCancelled) return;

  if (t.actions_taken >= cfg_.max_attempts_per_ticket) {
    tickets_.mark_cancelled(ticket_id, net_.now(), "attempt budget exhausted");
    detection_.clear(t.link);
    return;
  }

  const EscalationDecision decision = escalation_.decide(net_, tickets_, t);

  // Impact-aware deferral: non-urgent disruptive work waits for the next
  // low-utilization window (bounded), so induced transients hit idle hours.
  if (cfg_.impact_aware && t.priority != TicketPriority::kHigh &&
      !cfg_.traffic.is_low(net_.now(), cfg_.defer_utilization_threshold)) {
    const sim::TimePoint window =
        cfg_.traffic.next_low_window(net_.now(), cfg_.defer_utilization_threshold);
    const sim::TimePoint bounded =
        std::min(window, net_.now() + cfg_.max_deferral);
    if (bounded > net_.now()) {
      ++deferred_;
      if (obs_deferred_ != nullptr) obs_deferred_->inc();
      if (obs_trace_ != nullptr) obs_trace_->instant(
          "defer", "controller", net_.now(), "ticket", ticket_id, "until_us",
          bounded.count_us());
      if (obs_recorder_ != nullptr) {
        obs_recorder_->record(net_.now().count_us(), "defer", ticket_id, bounded.count_us());
      }
      acquire_hop().begin_deferred(ticket_id, decision, bounded);
      return;
    }
  }
  dispatch(ticket_id, decision);
}

void MaintenanceController::dispatch(int ticket_id, const EscalationDecision& decision) {
  const Ticket& t = tickets_.ticket(ticket_id);
  if (t.state == TicketState::kResolved || t.state == TicketState::kCancelled) return;

  Job job;
  job.ticket_id = ticket_id;
  job.link = t.link;
  job.end = decision.end;
  job.kind = decision.kind;
  job.high_priority = t.priority == TicketPriority::kHigh;

  const bool via_robot = traits_.robots_allowed && fleet_ != nullptr &&
                         fleet_->capable(job.kind) && fleet_->reachable(job.link, job.end);

  if (t.state == TicketState::kOpen) tickets_.mark_dispatched(ticket_id, net_.now());

  if (via_robot && traits_.supervision_blocking) {
    // L2: a human must watch; wait for a supervisor slot.
    acquire_supervisor([this, ticket_id, job] { execute(ticket_id, job, true); });
  } else {
    execute(ticket_id, job, via_robot);
  }
}

void MaintenanceController::execute(int ticket_id, const Job& job, bool via_robot) {
  Job dispatched = job;
  // Pre-announce the contact list (§2). The drain itself is deferred to the
  // performer's work-start hook so links are only admin-down while hands are
  // physically on the hardware, not for the whole dispatch latency.
  auto drained = std::make_shared<std::vector<net::LinkId>>();
  if (cfg_.impact_aware) {
    fault::Disturbance d;
    d.target = job.link;
    const net::Link& l = net_.link(job.link);
    d.at_device = job.end == 0 ? l.end_a.device : l.end_b.device;
    d.full_route = job.kind == RepairActionKind::kReplaceCable;
    std::vector<net::LinkId> contacts = cascade_.predicted_contacts(d);
    dispatched.on_work_start = [this, contacts = std::move(contacts), drained] {
      *drained = migrator_.drain_for_work(contacts);
    };
  }

  auto cb = [this, ticket_id, drained, via_robot](const JobReport& report) {
    on_report(ticket_id, report, *drained, via_robot);
  };

  if (via_robot) {
    ++robot_jobs_;
    if (obs_robot_dispatch_ != nullptr) obs_robot_dispatch_->inc();
  } else {
    ++technician_jobs_;
    if (obs_technician_dispatch_ != nullptr) obs_technician_dispatch_->inc();
  }
  if (obs_trace_ != nullptr) obs_trace_->instant(
      via_robot ? "dispatch-robot" : "dispatch-technician", "controller", net_.now(), "ticket",
      ticket_id, "kind", static_cast<int>(job.kind));
  if (obs_recorder_ != nullptr) {
    obs_recorder_->record(net_.now().count_us(), via_robot ? "dispatch-robot" : "dispatch-tech",
                          ticket_id, static_cast<std::int64_t>(job.kind));
  }
  if (via_robot) {
    fleet_->submit(dispatched, std::move(cb));
  } else {
    technicians_.submit(dispatched, std::move(cb));
  }
}

void MaintenanceController::on_report(int ticket_id, const JobReport& report,
                                      const std::vector<net::LinkId>& drained,
                                      bool via_robot) {
  migrator_.restore(drained);

  const Ticket& t = tickets_.ticket(ticket_id);
  if (t.state == TicketState::kDispatched) tickets_.mark_started(ticket_id, report.started);
  tickets_.count_action(ticket_id);

  const double work_hours = (report.finished - report.started).to_hours();
  if (via_robot) {
    supervision_hours_ += traits_.supervision_fraction * work_hours;
    if (traits_.supervision_blocking) release_supervisor();
  }

  if (report.measured_contamination > 0.0) {
    last_inspection_[report.job.link] = report.measured_contamination;
  }

  // Robot could not finish (grasp/verify failure, no spare, out of scope):
  // route the same rung to humans — unless this is L4, where a second robot
  // attempt is made instead.
  if (!report.performed && via_robot) {
    if (traits_.humans_available) {
      ++human_escalations_;
      if (obs_human_escalations_ != nullptr) obs_human_escalations_->inc();
      if (obs_trace_ != nullptr) obs_trace_->instant(
          "human-escalation", "controller", net_.now(), "ticket", ticket_id);
      execute(ticket_id, report.job, false);
    } else {
      // L4: retry autonomously after a short reposition delay.
      acquire_hop().begin_retry(ticket_id, net_.now() + sim::Duration::minutes(10));
    }
    return;
  }

  resolve_or_replan(ticket_id, report);
}

void MaintenanceController::resolve_or_replan(int ticket_id, const JobReport& report) {
  const Ticket& t = tickets_.ticket(ticket_id);
  if (t.state == TicketState::kResolved || t.state == TicketState::kCancelled) return;

  net_.refresh_link(t.link);
  const net::Link& l = net_.link(t.link);
  // A link drained by some other concurrent repair's migration counts as
  // healthy if its hardware would come up clean.
  bool healthy = l.state == net::LinkState::kUp;
  if (!healthy && l.admin_down) {
    net::Link probe = l;
    probe.admin_down = false;
    const bool devices_ok =
        net_.device(l.end_a.device).healthy && net_.device(l.end_b.device).healthy;
    healthy = probe.derive_state(net_.now(), devices_ok) == net::LinkState::kUp;
  }
  if (healthy) {
    tickets_.mark_resolved(ticket_id, net_.now(), report.performer);
    detection_.clear(t.link);
    resolved_count_[t.link] += 1;
    if (report.job.kind == RepairActionKind::kReseat) {
      const net::DeviceId sw =
          report.job.end == 0 ? l.end_a.device : l.end_b.device;
      reseat_fixes_[sw].push_back(net_.now());
      arm_scan();  // a fresh reseat fix is a proactive-scan trigger source
    }
    return;
  }
  // Still sick: climb to the next rung.
  plan(ticket_id);
}

// --- supervision slots (L2) ---

void MaintenanceController::acquire_supervisor(std::function<void()> then) {
  if (supervisors_free_ > 0) {
    --supervisors_free_;
    then();
  } else {
    supervision_waitlist_.push_back(std::move(then));
  }
}

void MaintenanceController::release_supervisor() {
  if (!supervision_waitlist_.empty()) {
    auto next = std::move(supervision_waitlist_.front());
    supervision_waitlist_.pop_front();
    next();  // slot transfers directly to the next waiting job
  } else {
    ++supervisors_free_;
  }
}

// --- proactive maintenance (§4) ---

telemetry::FeatureVector MaintenanceController::features_for(net::LinkId id) const {
  telemetry::FeatureVector f;
  f.flaps_recent =
      std::min(1.0, detection_.recent_flaps(id, cfg_.prediction_window) / 10.0);
  const double lifetime_h = std::max(1.0, net_.now().to_hours());
  f.degraded_fraction = std::min(
      1.0, detection_.time_in(id, net::LinkState::kDegraded).to_hours() / lifetime_h +
               detection_.time_in(id, net::LinkState::kFlapping).to_hours() / lifetime_h);
  int recent_tickets = 0;
  for (const Ticket* prev : tickets_.history_for(id)) {
    if (net_.now() - prev->resolved <= cfg_.prediction_window) ++recent_tickets;
  }
  f.detections_recent = std::min(1.0, recent_tickets / 5.0);
  const auto it = resolved_count_.find(id);
  f.repair_count = std::min(1.0, (it == resolved_count_.end() ? 0 : it->second) / 10.0);
  f.age = std::min(1.0, net_.now().to_days() / (5.0 * 365.0));
  f.inspection_grade = last_inspection_grade(id);
  return f;
}

double MaintenanceController::last_inspection_grade(net::LinkId id) const {
  const auto it = last_inspection_.find(id);
  return it == last_inspection_.end() ? 0.0 : it->second;
}

void MaintenanceController::open_proactive(net::LinkId link, RepairActionKind kind,
                                           int end) {
  const auto id = tickets_.open(net_.now(), link, telemetry::IssueKind::kDegraded,
                                /*genuine=*/true, TicketPriority::kNormal,
                                /*proactive=*/true);
  if (!id.has_value()) return;
  last_proactive_[link] = net_.now();
  ++proactive_actions_;
  if (obs_proactive_ != nullptr) obs_proactive_->inc();
  if (obs_trace_ != nullptr) obs_trace_->instant(
      "proactive", "controller", net_.now(), "link", link.value(), "kind",
      static_cast<int>(kind));
  if (obs_recorder_ != nullptr) {
    obs_recorder_->record(net_.now().count_us(), "proactive", link.value(),
                          static_cast<std::int64_t>(kind));
  }
  tickets_.mark_dispatched(*id, net_.now());

  Job job;
  job.ticket_id = *id;
  job.link = link;
  job.end = end;
  job.kind = kind;
  const int ticket_id = *id;
  auto cb = [this, ticket_id](const JobReport& report) {
    tickets_.count_action(ticket_id);
    if (report.measured_contamination > 0.0) {
      last_inspection_[report.job.link] = report.measured_contamination;
    }
    const Ticket& t = tickets_.ticket(ticket_id);
    if (t.state == TicketState::kResolved || t.state == TicketState::kCancelled) return;
    // Proactive work closes regardless of outcome; it was not fixing a
    // detected failure. Escalation-to-human for proactive work is skipped —
    // the whole point is that it rides free robot hours (§4).
    tickets_.mark_resolved(ticket_id, net_.now(),
                           report.performed ? "robot-proactive" : "robot-abandoned");
    detection_.clear(report.job.link);
  };
  ++robot_jobs_;
  fleet_->submit(job, std::move(cb));
}

void MaintenanceController::proactive_scan() {
  if (!traits_.robots_allowed || fleet_ == nullptr) return;
  if (!cfg_.traffic.is_low(net_.now(), cfg_.proactive.low_utilization_threshold)) return;
  const sim::TimePoint now = net_.now();

  auto cooled_down = [&](net::LinkId id) {
    const auto it = last_proactive_.find(id);
    return it == last_proactive_.end() ||
           now - it->second >= cfg_.proactive.per_link_cooldown;
  };
  auto idle_and_clear = [&](const net::Link& l) {
    return l.state == net::LinkState::kUp && !l.admin_down &&
           !tickets_.open_ticket_for(l.id).has_value() && cooled_down(l.id);
  };

  // §4 switch-wide heuristic: several reseat-fixes on one switch recently =>
  // reseat everything on it during the low window.
  if (cfg_.proactive.switch_wide_reseat) {
    for (auto& [device, times] : reseat_fixes_) {
      std::erase_if(times, [&](sim::TimePoint t) {
        return now - t > cfg_.proactive.trigger_window;
      });
      if (static_cast<int>(times.size()) < cfg_.proactive.switch_reseat_trigger) continue;
      for (const net::LinkId lid : net_.links_at(device)) {
        const net::Link& l = net_.link(lid);
        if (!idle_and_clear(l)) continue;
        const int end = l.end_a.device == device ? 0 : 1;
        open_proactive(lid, RepairActionKind::kReseat, end);
      }
      times.clear();  // trigger consumed
    }
  }

  // Predictor-driven: score every link; clean (or reseat) the likely-to-fail.
  if (cfg_.proactive.use_predictor && predictor_ != nullptr) {
    for (const net::Link& l : net_.links()) {
      if (!idle_and_clear(l)) continue;
      if (predictor_->predict(features_for(l.id)) < cfg_.proactive.predictor_threshold) {
        continue;
      }
      const RepairActionKind kind = net::is_cleanable(l.medium)
                                        ? RepairActionKind::kClean
                                        : RepairActionKind::kReseat;
      open_proactive(l.id, kind, 0);
    }
  }
}

void MaintenanceController::arm_scan() {
  if (!started_ || !cfg_.proactive.enabled) return;
  if (!traits_.robots_allowed || fleet_ == nullptr) return;
  // A scan with no trigger source is a pure no-op (is_low() is const, the
  // reseat loop only prunes empty vectors, the predictor branch is skipped,
  // and nothing draws randomness), so the grid ticks it would have consumed
  // can be skipped wholesale. An attached predictor keeps the loop
  // free-running (every link is a candidate); otherwise only unconsumed
  // reseat fixes justify waking up. Stale fixes outside the trigger window
  // still count here — the scan itself prunes them (under is_low), and the
  // re-arm below stops once the vectors drain.
  const bool predictor_work = cfg_.proactive.use_predictor && predictor_ != nullptr;
  bool reseat_work = false;
  if (!predictor_work && cfg_.proactive.switch_wide_reseat) {
    for (const auto& [device, times] : reseat_fixes_) {
      if (!times.empty()) {
        reseat_work = true;
        break;
      }
    }
  }
  if (!predictor_work && !reseat_work) return;
  // Strictly-next grid point (anchor = start time), so the fom fires exactly
  // where schedule_every's ticks used to land; wakeup coalescing makes the
  // redundant re-arms from each reseat fix free.
  const std::int64_t us = cfg_.proactive.scan_interval.count_us();
  const std::int64_t k = (net_.now() - scan_anchor_).count_us() / us + 1;
  fom_engine_.wake_at(scan_fom_, scan_anchor_ + sim::Duration::microseconds(k * us));
}

sim::Fom::Tick MaintenanceController::ScanFom::tick() {
  ctl_.proactive_scan();
  ctl_.arm_scan();  // re-armed only while a trigger source remains
  return Tick::kWait;
}

}  // namespace smn::core
