#include "fault/contamination.h"

#include <algorithm>

namespace smn::fault {

ContaminationProcess::ContaminationProcess(net::Network& net, Environment& env,
                                           sim::RngStream rng, Config cfg)
    : net_{net}, env_{env}, rng_{std::move(rng)}, cfg_{cfg} {}

void ContaminationProcess::start() {
  if (periodic_ != sim::kInvalidEvent) return;
  periodic_ = net_.simulator().schedule_every(cfg_.step, [this] { step_once(); });
}

void ContaminationProcess::stop() {
  if (periodic_ == sim::kInvalidEvent) return;
  net_.simulator().cancel_periodic(periodic_);
  periodic_ = sim::kInvalidEvent;
}

void ContaminationProcess::step_once() {
  const sim::TimePoint now = net_.now();
  const double stress = env_.stress_factor(now);
  const double dt_days = cfg_.step.to_days();
  const double mean_inc = cfg_.mean_accumulation_per_day * dt_days * stress;
  for (const net::Link& l : net_.links()) {
    if (!net::is_cleanable(l.medium)) continue;
    net::Link& lm = net_.link_mut(l.id);
    const double before = worst_end(lm);
    for (net::EndCondition* end : {&lm.end_a.condition, &lm.end_b.condition}) {
      end->contamination = std::min(1.0, end->contamination + rng_.exponential(mean_inc));
    }
    observe_crossings(l.id, before, worst_end(lm));
    net_.refresh_link(l.id);
  }
}

void ContaminationProcess::expose(net::LinkId id, int which_end, double risk_scale) {
  net::Link& l = net_.link_mut(id);
  if (!net::is_cleanable(l.medium)) return;
  if (!rng_.bernoulli(cfg_.exposure_probability * risk_scale)) return;
  if (obs_exposures_ != nullptr) obs_exposures_->inc();
  const double before = worst_end(l);
  net::EndCondition& end = which_end == 0 ? l.end_a.condition : l.end_b.condition;
  end.contamination = std::min(1.0, end.contamination + rng_.exponential(cfg_.exposure_burst_mean));
  observe_crossings(id, before, worst_end(l));
  net_.refresh_link(id);
}

void ContaminationProcess::set_obs(obs::Obs* o) {
  if (o == nullptr) return;
  if (obs::Registry* reg = o->metrics()) {
    obs_exposures_ = reg->counter("contamination_exposures_total");
    obs_degrade_crossings_ = reg->counter("contamination_degrade_crossings_total");
    obs_flap_crossings_ = reg->counter("contamination_flap_crossings_total");
  }
  obs_trace_ = o->trace();
  obs_recorder_ = o->recorder();
}

void ContaminationProcess::observe_crossings(net::LinkId id, double before, double after) {
  const net::LinkThresholds& thr = net_.config().thresholds;
  const sim::TimePoint now = net_.now();
  // Percent-scale second arg: trace/recorder payloads are integers.
  const auto pct = [](double c) { return static_cast<std::int64_t>(c * 100.0); };
  if (before < thr.degrade_contamination && after >= thr.degrade_contamination) {
    if (obs_degrade_crossings_ != nullptr) obs_degrade_crossings_->inc();
    if (obs_trace_ != nullptr) obs_trace_->instant(
        "contamination-degrade", "fault", now, "link", id.value(), "pct", pct(after));
    if (obs_recorder_ != nullptr) {
      obs_recorder_->record(now.count_us(), "contamination-degrade", id.value(), pct(after));
    }
  }
  if (before < thr.flap_contamination && after >= thr.flap_contamination) {
    if (obs_flap_crossings_ != nullptr) obs_flap_crossings_->inc();
    if (obs_trace_ != nullptr) obs_trace_->instant(
        "contamination-flap", "fault", now, "link", id.value(), "pct", pct(after));
    if (obs_recorder_ != nullptr) {
      obs_recorder_->record(now.count_us(), "contamination-flap", id.value(), pct(after));
    }
  }
}

double ContaminationProcess::total_contamination() const {
  double total = 0.0;
  for (const net::Link& l : net_.links()) {
    total += l.end_a.condition.contamination + l.end_b.condition.contamination;
  }
  return total;
}

}  // namespace smn::fault
