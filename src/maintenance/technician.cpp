#include "maintenance/technician.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace smn::maintenance {

TechnicianPool::TechnicianPool(net::Network& net, fault::CascadeModel& cascade,
                               fault::ContaminationProcess* contamination,
                               sim::RngStream rng, Config cfg)
    : net_{net},
      cascade_{cascade},
      contamination_{contamination},
      rng_{std::move(rng)},
      cfg_{cfg},
      fom_engine_{net.simulator()},
      idle_{cfg.technicians} {}

void TechnicianPool::set_obs(obs::Obs* o) {
  if (o == nullptr) return;
  if (obs::Registry* reg = o->metrics()) {
    obs_jobs_ = reg->counter("technician_jobs_total");
    obs_botched_ = reg->counter("technician_botched_total");
    // Job wall-time (dispatch + travel + hands-on) in hours; the long tail is
    // the normal-priority lognormal dispatch delay.
    obs_job_hours_ =
        reg->histogram("technician_job_hours", {1.0, 4.0, 12.0, 24.0, 48.0, 96.0});
    fom_engine_.set_obs(reg->counter("sim_wakeups_technician_total"));
  }
  obs_trace_ = o->trace();
  obs_recorder_ = o->recorder();
}

void TechnicianPool::submit(const Job& job, JobCallback cb) {
  Pending p{job, std::move(cb), net_.now()};
  if (job.high_priority) {
    // High-priority jobs jump the queue but do not preempt working techs.
    auto it = std::find_if(queue_.begin(), queue_.end(),
                           [](const Pending& q) { return !q.job.high_priority; });
    queue_.insert(it, std::move(p));
  } else {
    queue_.push_back(std::move(p));
  }
  try_dispatch();
}

void TechnicianPool::try_dispatch() {
  while (idle_ > 0 && !queue_.empty()) {
    Pending p = std::move(queue_.front());
    queue_.pop_front();
    --idle_;
    run(std::move(p));
  }
}

double TechnicianPool::hands_on_minutes(RepairActionKind kind) {
  double median = 0;
  switch (kind) {
    case RepairActionKind::kReseat: median = cfg_.reseat_minutes; break;
    case RepairActionKind::kInspect: median = cfg_.inspect_minutes; break;
    case RepairActionKind::kClean: median = cfg_.clean_minutes; break;
    case RepairActionKind::kReplaceTransceiver:
      median = cfg_.replace_transceiver_minutes;
      break;
    case RepairActionKind::kReplaceCable: median = cfg_.replace_cable_minutes; break;
    case RepairActionKind::kReplaceLineCard:
      median = cfg_.replace_linecard_minutes;
      break;
    case RepairActionKind::kReplaceDevice: median = cfg_.replace_device_minutes; break;
  }
  return rng_.lognormal(std::log(median * cfg_.assist_factor), cfg_.duration_log_sigma);
}

net::DeviceId TechnicianPool::work_site(const Job& job) const {
  const net::Link& l = net_.link(job.link);
  return job.end == 0 ? l.end_a.device : l.end_b.device;
}

TechnicianPool::JobFom& TechnicianPool::acquire_fom() {
  if (!fom_free_.empty()) {
    JobFom* f = fom_free_.back();
    fom_free_.pop_back();
    return *f;
  }
  foms_.push_back(std::make_unique<JobFom>(*this));
  return *foms_.back();
}

void TechnicianPool::run(Pending p) {
  const double dispatch_hours =
      p.job.high_priority
          ? rng_.lognormal(cfg_.priority_dispatch_log_mean, cfg_.priority_dispatch_log_sigma)
          : rng_.lognormal(cfg_.dispatch_log_mean, cfg_.dispatch_log_sigma);

  const net::DeviceId site = work_site(p.job);
  // Walk from the hall entrance (row 0, rack 0).
  const topology::RackLocation entrance{net_.device(site).location.hall, 0, 0, 0};
  const double walk_m = net_.blueprint().layout().walking_distance_m(
      entrance, net_.device(site).location);
  const sim::Duration travel = sim::Duration::seconds(walk_m / cfg_.walk_speed_mps);
  const sim::Duration dispatch = sim::Duration::hours(dispatch_hours);
  const sim::Duration hands_on = sim::Duration::minutes(hands_on_minutes(p.job.kind));

  const sim::TimePoint start = net_.now() + dispatch + travel;
  const sim::TimePoint finish = start + hands_on;

  if (!cfg_.use_fom) {
    run_legacy(std::move(p), site, start, finish, travel, hands_on);
    return;
  }
  JobFom& f = acquire_fom();
  f.begin(std::move(p), site, start, finish, travel, hands_on);
}

void TechnicianPool::JobFom::begin(Pending p, net::DeviceId site, sim::TimePoint start,
                                   sim::TimePoint finish, sim::Duration travel,
                                   sim::Duration hands_on) {
  p_ = std::move(p);
  site_ = site;
  start_ = start;
  finish_ = finish;
  travel_ = travel;
  hands_on_ = hands_on;
  induced_ = 0;
  set_phase(kStart);
  engine().wake_at(*this, start_);
}

sim::Fom::Tick TechnicianPool::JobFom::tick() {
  switch (phase()) {
    case kStart: {
      // Arm the finish wakeup before any side effect: the presence lock
      // schedules the fleet's row-unlock recheck, and when the lock expiry
      // coincides exactly with the finish time the finish must keep its
      // earlier insertion order (as it did when both were scheduled at
      // dispatch time).
      set_phase(kFinish);
      engine().wake_at(*this, finish_);
      // Physical contact happens at start-of-work: that is when neighbours
      // get disturbed, not when the ticket closes.
      if (pool_.presence_) {
        pool_.presence_(pool_.net_.device(site_).location, hands_on_);
      }
      if (p_.job.on_work_start) p_.job.on_work_start();
      fault::Disturbance d;
      d.target = p_.job.link;
      d.at_device = site_;
      d.magnitude = pool_.cfg_.disturbance;
      d.full_route = p_.job.kind == RepairActionKind::kReplaceCable;
      induced_ = pool_.cascade_.apply(d).size();
      return Tick::kWait;
    }
    case kFinish:
      pool_.finish_job(*this);
      return Tick::kDone;
    default: break;
  }
  return Tick::kDone;
}

void TechnicianPool::JobFom::on_done() {
  p_ = Pending{};  // release the captured callback/job state eagerly
  pool_.fom_free_.push_back(this);
}

void TechnicianPool::finish_job(JobFom& f) {
  WorkQuality q = cfg_.quality;
  if (cfg_.assist_factor < 1.0) q.botch_probability *= 0.5;  // Level-1 tooling
  const ActionResult r =
      apply_action(net_, contamination_, rng_, f.p_.job.link, f.p_.job.end, f.p_.job.kind, q);
  JobReport report;
  report.job = f.p_.job;
  report.performed = r.performed;
  report.botched = r.botched;
  report.measured_contamination = r.measured_contamination;
  report.enqueued = f.p_.enqueued;
  report.started = f.start_;
  report.finished = f.finish_;
  report.performer = "technician";
  report.induced_faults = f.induced_;
  labor_hours_ += (f.travel_ + f.hands_on_).to_hours();
  ++completed_;
  ++by_kind_[static_cast<int>(f.p_.job.kind)];
  ++idle_;
  if (obs_jobs_ != nullptr) {
    obs_jobs_->inc();
    if (r.botched) obs_botched_->inc();
    obs_job_hours_->observe((f.finish_ - f.p_.enqueued).to_hours());
  }
  if (obs_trace_ != nullptr) obs_trace_->complete(
      to_string(f.p_.job.kind), "technician", f.start_, f.finish_, "ticket", f.p_.job.ticket_id,
      "botched", r.botched ? 1 : 0);
  if (obs_recorder_ != nullptr) {
    obs_recorder_->record(f.finish_.count_us(), "technician-job", f.p_.job.ticket_id,
                          static_cast<std::int64_t>(f.p_.job.kind));
  }
  if (f.p_.cb) f.p_.cb(report);
  try_dispatch();
}

void TechnicianPool::run_legacy(Pending p, net::DeviceId site, sim::TimePoint start,
                                sim::TimePoint finish, sim::Duration travel,
                                sim::Duration hands_on) {
  // Reference semantics for the differential oracle: both job events are
  // scheduled at dispatch time, capturing the whole job state by value.
  auto induced = std::make_shared<std::size_t>(0);
  net_.simulator().schedule_at(start, [this, job = p.job, site, induced, hands_on] {
    if (presence_) presence_(net_.device(site).location, hands_on);
    if (job.on_work_start) job.on_work_start();
    fault::Disturbance d;
    d.target = job.link;
    d.at_device = site;
    d.magnitude = cfg_.disturbance;
    d.full_route = job.kind == RepairActionKind::kReplaceCable;
    *induced = cascade_.apply(d).size();
  });

  net_.simulator().schedule_at(
      finish, [this, p = std::move(p), start, finish, travel, hands_on, induced] {
        WorkQuality q = cfg_.quality;
        if (cfg_.assist_factor < 1.0) q.botch_probability *= 0.5;  // Level-1 tooling
        const ActionResult r = apply_action(net_, contamination_, rng_, p.job.link,
                                            p.job.end, p.job.kind, q);
        JobReport report;
        report.job = p.job;
        report.performed = r.performed;
        report.botched = r.botched;
        report.measured_contamination = r.measured_contamination;
        report.enqueued = p.enqueued;
        report.started = start;
        report.finished = finish;
        report.performer = "technician";
        report.induced_faults = *induced;
        labor_hours_ += (travel + hands_on).to_hours();
        ++completed_;
        ++by_kind_[static_cast<int>(p.job.kind)];
        ++idle_;
        if (obs_jobs_ != nullptr) {
          obs_jobs_->inc();
          if (r.botched) obs_botched_->inc();
          obs_job_hours_->observe((finish - p.enqueued).to_hours());
        }
        if (obs_trace_ != nullptr) obs_trace_->complete(
            to_string(p.job.kind), "technician", start, finish, "ticket", p.job.ticket_id,
            "botched", r.botched ? 1 : 0);
        if (obs_recorder_ != nullptr) {
          obs_recorder_->record(finish.count_us(), "technician-job", p.job.ticket_id,
                                static_cast<std::int64_t>(p.job.kind));
        }
        if (p.cb) p.cb(report);
        try_dispatch();
      });
}

}  // namespace smn::maintenance
