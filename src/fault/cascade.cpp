#include "fault/cascade.h"

#include <algorithm>
#include <cmath>

namespace smn::fault {

CascadeModel::CascadeModel(net::Network& net, Environment& env, FaultInjector& injector,
                           sim::RngStream rng, Config cfg)
    : net_{net}, env_{env}, injector_{injector}, rng_{std::move(rng)}, cfg_{cfg} {}

const std::vector<std::int32_t>& CascadeModel::tray_neighbors(net::LinkId target) const {
  if (trays_structure_generation_ != net_.structure_generation()) {
    trays_ = topology::TrayIndex{net_.blueprint()};
    trays_structure_generation_ = net_.structure_generation();
  }
  trays_.mates(target.value(), mates_);
  return mates_;
}

std::vector<net::LinkId> CascadeModel::predicted_contacts(const Disturbance& d) const {
  std::vector<net::LinkId> contacts;
  for_each_faceplate_neighbor(d.target, d.at_device,
                              [&contacts](net::LinkId lid) { contacts.push_back(lid); });
  if (d.full_route) {
    for (const std::int32_t lid : tray_neighbors(d.target)) contacts.emplace_back(lid);
    std::sort(contacts.begin(), contacts.end());
    contacts.erase(std::unique(contacts.begin(), contacts.end()), contacts.end());
  }
  return contacts;
}

std::vector<CascadeEffect> CascadeModel::apply(const Disturbance& d) {
  const sim::TimePoint now = net_.now();
  env_.add_vibration(now, cfg_.vibration_duration, cfg_.vibration_gain * d.magnitude);

  std::vector<CascadeEffect> effects;
  auto hit = [&](net::LinkId victim, double probability) {
    if (!rng_.bernoulli(std::min(0.95, probability))) return;
    const net::Link& v = net_.link(victim);
    if (v.state == net::LinkState::kDown) return;  // nothing left to disturb

    const double weights[] = {cfg_.w_gray, cfg_.w_contamination, cfg_.w_permanent};
    const std::size_t kind = rng_.weighted_index(weights);
    CascadeEffect effect{now, victim, FaultKind::kGrayEpisode, d.target};
    if (kind == 0) {
      const double secs =
          rng_.lognormal(cfg_.induced_gray_log_mean, cfg_.induced_gray_log_sigma);
      injector_.inject_gray_episode(victim, sim::Duration::seconds(secs));
      effect.induced = FaultKind::kGrayEpisode;
    } else if (kind == 1 && net::is_cleanable(v.medium)) {
      // The motion knocked dust onto/into a nearby end-face.
      net::Link& vm = net_.link_mut(victim);
      net::EndCondition& end =
          rng_.bernoulli(0.5) ? vm.end_a.condition : vm.end_b.condition;
      end.contamination =
          std::min(1.0, end.contamination + rng_.exponential(cfg_.contamination_bump_mean));
      net_.refresh_link(victim);
      effect.induced = FaultKind::kGrayEpisode;  // presents as transient degradation
    } else {
      // Permanent: yanked a neighbouring plug half-out or stressed its cable.
      net::Link& vm = net_.link_mut(victim);
      if (rng_.bernoulli(0.7)) {
        // Unseat the end on the faceplate being worked on when there is one;
        // otherwise (a tray-mate) either end is plausible.
        net::EndCondition& end = vm.end_b.device == d.at_device
                                     ? vm.end_b.condition
                                     : vm.end_a.condition;
        end.transceiver_seated = false;
        effect.induced = FaultKind::kTransceiverFailure;
      } else {
        vm.cable.intact = false;
        effect.induced = FaultKind::kCableBreak;
      }
      net_.refresh_link(victim);
    }
    effects.push_back(effect);
    log_.push_back(effect);
    if (obs_hops_ != nullptr) {
      obs_hops_->inc();
      if (effect.induced != FaultKind::kGrayEpisode) obs_permanent_->inc();
    }
    if (obs_trace_ != nullptr) obs_trace_->instant(
        "cascade-hop", "fault", now, "victim", effect.victim.value(), "cause",
        effect.cause.value());
    if (obs_recorder_ != nullptr) {
      obs_recorder_->record(now.count_us(), "cascade-hop", effect.victim.value(),
                            effect.cause.value());
    }
  };

  // A hit only edits link conditions: its link transitions schedule detection
  // and never rewire or re-enter this model, so both neighbour sets hold
  // still while the hits run.
  for_each_faceplate_neighbor(d.target, d.at_device, [&](net::LinkId lid) {
    hit(lid, cfg_.faceplate_coupling * d.magnitude);
  });
  if (d.full_route) {
    for (const std::int32_t lid : tray_neighbors(d.target)) {
      hit(net::LinkId{lid}, cfg_.tray_coupling * d.magnitude);
    }
  }
  return effects;
}

void CascadeModel::set_obs(obs::Obs* o) {
  if (o == nullptr) return;
  if (obs::Registry* reg = o->metrics()) {
    obs_hops_ = reg->counter("cascade_hops_total");
    obs_permanent_ = reg->counter("cascade_permanent_total");
  }
  obs_trace_ = o->trace();
  obs_recorder_ = o->recorder();
}

std::size_t CascadeModel::induced_permanent_count() const {
  std::size_t n = 0;
  for (const CascadeEffect& e : log_) {
    if (e.induced != FaultKind::kGrayEpisode) ++n;
  }
  return n;
}

}  // namespace smn::fault
