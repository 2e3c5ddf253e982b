// The reference fault model: the hourly scan the injector's calendars
// replace. Every step it draws for every usable transceiver end (oxidation,
// then failure), intact cable and Up/Degraded link (gray episode), then every
// healthy device and its line cards — ~1,000 variates per step on the
// 144-link hall. It is the oracle the calendars are judged against (see
// oracle_test.cpp), so it stays verbatim: same order, same <random>-backed
// RngStream helpers, faults emitted through the injector's inject_* calls.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>

#include "fault/environment.h"
#include "fault/injector.h"
#include "net/network.h"
#include "sim/rng.h"
#include "topology/blueprint.h"

namespace smn::testutil {

class ReferenceScan {
 public:
  ReferenceScan(net::Network& net, fault::Environment& env, fault::FaultInjector& injector,
                sim::RngStream rng, fault::FaultInjector::Config cfg)
      : net_{net}, env_{env}, injector_{injector}, rng_{std::move(rng)}, cfg_{cfg} {}

  /// Registers the scan every cfg.step, as the injector's start() does.
  void start() {
    net_.simulator().schedule_every(cfg_.step, [this] { step_once(); });
  }

  /// Variates drawn so far, counted the way fault_rng_draws_total counts
  /// the calendars': one per value a distribution returned from the engine.
  [[nodiscard]] std::uint64_t draws() const { return draws_; }

  void step_once() {
    const sim::TimePoint now = net_.now();
    const double dt_years = cfg_.step.to_days() / 365.0;
    const double stress = env_.stress_factor(now);

    for (const net::Link& l : net_.links()) {
      // Transceiver hard failures and contact aging, per end, with reseat wear.
      for (int end = 0; end < 2; ++end) {
        net::EndCondition& cond = end == 0 ? net_.link_mut(l.id).end_a.condition
                                           : net_.link_mut(l.id).end_b.condition;
        if (!cond.usable()) continue;  // already dead / unseated
        ++draws_;
        cond.oxidation = std::min(
            1.0, cond.oxidation + rng_.exponential(cfg_.oxidation_rate_per_year * dt_years));
        const double wear = 1.0 + cfg_.reseat_wear_gain * cond.reseat_count;
        if (bernoulli(cfg_.transceiver_afr * wear * dt_years)) {
          injector_.inject_transceiver_failure(l.id, end);
        }
      }
      if (l.cable.intact && bernoulli(cfg_.cable_afr * (1.0 + l.cable.wear) * dt_years)) {
        injector_.inject_cable_break(l.id);
      }
      // Gray episodes: only meaningful on links that are currently carrying
      // traffic; hazard rises with contamination and environmental stress.
      if (l.state == net::LinkState::kUp || l.state == net::LinkState::kDegraded) {
        const double contamination =
            std::max(l.end_a.condition.contamination, l.end_b.condition.contamination);
        const double oxidation =
            0.5 * (l.end_a.condition.oxidation + l.end_b.condition.oxidation);
        const double rate = cfg_.gray_rate_per_year *
                            (1.0 + cfg_.gray_contamination_gain * contamination +
                             cfg_.gray_oxidation_gain * oxidation) *
                            stress;
        if (bernoulli(std::min(0.9, rate * dt_years))) {
          ++draws_;
          const double secs =
              rng_.lognormal(cfg_.gray_duration_log_mean, cfg_.gray_duration_log_sigma);
          injector_.inject_gray_episode(l.id, sim::Duration::seconds(secs));
        }
      }
    }

    for (const net::Device& d : net_.devices()) {
      if (!d.healthy) continue;
      const double afr = topology::is_switch(d.role) ? cfg_.switch_afr : cfg_.server_nic_afr;
      if (bernoulli(afr * dt_years)) injector_.inject_device_failure(d.id);
      if (d.has_linecards()) {
        for (int card = 0; card < static_cast<int>(d.linecards_healthy.size()); ++card) {
          if (d.linecards_healthy[static_cast<size_t>(card)] &&
              bernoulli(cfg_.linecard_afr * dt_years)) {
            injector_.inject_linecard_failure(d.id, card);
          }
        }
      }
    }
  }

 private:
  // RngStream::bernoulli draws only for 0 < p < 1.
  bool bernoulli(double p) {
    if (p > 0.0 && p < 1.0) ++draws_;
    return rng_.bernoulli(p);
  }

  net::Network& net_;
  fault::Environment& env_;
  fault::FaultInjector& injector_;
  sim::RngStream rng_;
  fault::FaultInjector::Config cfg_;
  std::uint64_t draws_ = 0;
};

}  // namespace smn::testutil
