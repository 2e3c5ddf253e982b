#include "fault/injector.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "core/check.h"
#include "topology/blueprint.h"

namespace smn::fault {

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kTransceiverFailure: return "transceiver-failure";
    case FaultKind::kCableBreak: return "cable-break";
    case FaultKind::kDeviceFailure: return "device-failure";
    case FaultKind::kGrayEpisode: return "gray-episode";
    case FaultKind::kLineCardFailure: return "linecard-failure";
  }
  return "?";
}

FaultInjector::FaultInjector(net::Network& net, Environment& env, sim::RngStream rng,
                             Config cfg)
    : net_{net},
      env_{env},
      rng_{std::move(rng)},
      cfg_{cfg},
      dt_years_{cfg_.step.to_days() / 365.0} {
  net_.set_refresh_hook([this](net::LinkId id) { on_refresh(id); });
}

FaultInjector::~FaultInjector() { net_.set_refresh_hook(nullptr); }

void FaultInjector::start() {
  if (periodic_ != sim::kInvalidEvent) return;
  periodic_ = net_.simulator().schedule_every(cfg_.step, [this] { step_once(); });
}

void FaultInjector::stop() {
  if (periodic_ == sim::kInvalidEvent) return;
  net_.simulator().cancel_periodic(periodic_);
  periodic_ = sim::kInvalidEvent;
}

void FaultInjector::arm() {
  armed_ = true;
  const std::size_t links = net_.links().size();
  const std::size_t devices = net_.devices().size();
  device_pos_.resize(devices);
  std::size_t positions = 4 * links;
  for (const net::Device& d : net_.devices()) {
    device_pos_[static_cast<std::size_t>(d.id.value())] = static_cast<std::uint32_t>(positions);
    positions += 1 + d.linecards_healthy.size();
  }
  pos_device_.assign(positions - 4 * links, -1);
  for (std::size_t d = 0; d < devices; ++d) {
    const std::size_t cards = net_.devices()[d].linecards_healthy.size();
    for (std::size_t k = 0; k <= cards; ++k) {
      pos_device_[device_pos_[d] - 4 * links + k] = static_cast<std::int32_t>(d);
    }
  }
  slots_.assign(positions, Slot{});
  accrual_.assign(2 * links, Accrual{});
  // At most one live entry per slot, so twice the slots leaves room for as
  // many stale ones before schedule() compacts: the heap never reallocates.
  heap_.reserve(2 * positions + 16);
  link_dirty_.assign(links, 0);
  device_dirty_.assign(devices, 0);
  dirty_links_.reserve(links);
  dirty_devices_.reserve(devices);
  // Everything is touched at arming: the first re-check draws every calendar.
  for (const net::Device& d : net_.devices()) mark_device(d.id);
  for (const net::Link& l : net_.links()) on_refresh(l.id);
}

void FaultInjector::on_refresh(net::LinkId id) {
  if (!armed_) return;
  const auto i = static_cast<std::size_t>(id.value());
  if (link_dirty_[i] == 0) {
    link_dirty_[i] = 1;
    dirty_links_.push_back(static_cast<std::uint32_t>(i));
  }
  // Device and card health changes reach here through refresh_links_of.
  const net::Link& l = net_.link(id);
  mark_device(l.end_a.device);
  mark_device(l.end_b.device);
}

void FaultInjector::mark_device(net::DeviceId id) {
  if (!armed_) return;
  const auto i = static_cast<std::size_t>(id.value());
  if (device_dirty_[i] != 0) return;
  device_dirty_[i] = 1;
  dirty_devices_.push_back(static_cast<std::uint32_t>(i));
}

void FaultInjector::step_once() {
  if (!armed_) arm();
  const std::int64_t step = step_;
  const auto links = static_cast<std::int64_t>(net_.links().size());
  cursor_ = -1;
  if (env_.vibration_epoch() != bound_epoch_ || net_.now() >= bound_tightens_at_) {
    rebound_gray(step * links);
  }
  recheck_dirty(step);
  for (;;) {
    while (!heap_.empty() && heap_.front().gen != slots_[heap_.front().pos].gen) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      heap_.pop_back();
    }
    const std::int64_t heap_pos =
        !heap_.empty() && heap_.front().step <= step ? heap_.front().pos : kNever;
    const std::int64_t gray_pos =
        links > 0 && gray_next_ / links <= step ? 4 * (gray_next_ % links) + 3 : kNever;
    if (heap_pos == kNever && gray_pos == kNever) break;
    SMN_DCHECK(heap_pos == kNever || heap_.front().step == step, "fault calendar fell behind");
    if (gray_pos < heap_pos) {
      cursor_ = gray_pos;
      gray_candidate(gray_next_);
    } else {
      cursor_ = heap_pos;
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      heap_.pop_back();
      fire(static_cast<std::uint32_t>(heap_pos));
    }
    recheck_dirty(step);
  }
  ++step_;
  if (obs_draws_ != nullptr) {
    obs_draws_->inc(rng_.owned_draws() - draws_published_);
    draws_published_ = rng_.owned_draws();
  }
}

void FaultInjector::recheck_dirty(std::int64_t step) {
  // Re-checks only read state and draw, so they never dirty anything.
  for (const std::uint32_t l : dirty_links_) {
    link_dirty_[l] = 0;
    recheck_end(l, 0, step);
    recheck_end(l, 1, step);
    recheck_cable(l, step);
  }
  dirty_links_.clear();
  for (const std::uint32_t d : dirty_devices_) {
    device_dirty_[d] = 0;
    recheck_device(d, step);
  }
  dirty_devices_.clear();
}

void FaultInjector::recheck_end(std::size_t link, int end, std::int64_t step) {
  const net::Link& l = net_.links()[link];
  const net::EndCondition& c = end == 0 ? l.end_a.condition : l.end_b.condition;
  const auto pos = static_cast<std::uint32_t>(4 * link + static_cast<std::size_t>(end));
  const std::int64_t first = first_step(pos, step);
  Accrual& acc = accrual_[2 * link + static_cast<std::size_t>(end)];
  const bool usable = c.usable();
  const bool was_usable = slots_[pos].eligible;
  if (c.contact_epoch != acc.epoch) {
    // Reset contacts: what accrued before the reset is gone with it.
    acc.epoch = c.contact_epoch;
    acc.from = first;
  } else if (was_usable && !usable) {
    materialise(link, end, first - 1);
  } else if (!was_usable && usable) {
    acc.from = first;
  }
  const double wear = 1.0 + cfg_.reseat_wear_gain * c.reseat_count;
  retime(pos, usable, cfg_.transceiver_afr * wear * dt_years_, first);
}

void FaultInjector::recheck_cable(std::size_t link, std::int64_t step) {
  const net::Link& l = net_.links()[link];
  const auto pos = static_cast<std::uint32_t>(4 * link + 2);
  retime(pos, l.cable.intact, cfg_.cable_afr * (1.0 + l.cable.wear) * dt_years_,
         first_step(pos, step));
}

void FaultInjector::recheck_device(std::size_t device, std::int64_t step) {
  const net::Device& d = net_.devices()[device];
  const std::uint32_t pos = device_pos_[device];
  // The scan tests device health once, before the device's own draw, and
  // then draws every card of the device. So a device whose health changed
  // after its position in this step still has its cards drawn this step
  // under the health it had there.
  const bool scanned_healthy = slots_[pos].eligible;
  const double afr = topology::is_switch(d.role) ? cfg_.switch_afr : cfg_.server_nic_afr;
  retime(pos, d.healthy, afr * dt_years_, first_step(pos, step));
  const double p_card = cfg_.linecard_afr * dt_years_;
  for (std::size_t k = 0; k < d.linecards_healthy.size(); ++k) {
    const auto card = static_cast<std::uint32_t>(pos + 1 + k);
    const bool ok = d.linecards_healthy[k];
    const bool split = static_cast<std::int64_t>(pos) <= cursor_ &&
                       static_cast<std::int64_t>(card) > cursor_ &&
                       scanned_healthy != d.healthy;
    if (!split) {
      retime(card, ok && d.healthy, p_card, first_step(card, step));
    } else if (ok && scanned_healthy) {
      // Drawn once more this step, then not until the device is back. A
      // live entry drawn at this p already says whether this step fails.
      Slot& slot = slots_[card];
      const bool fails = slot.eligible && slot.p == p_card ? slot.due == step
                                                           : rng_.uniform53() < p_card;
      retime(card, false, p_card, step + 1);
      if (fails) schedule(card, step);
    } else {
      retime(card, ok && d.healthy, p_card, step + 1);
    }
  }
}

void FaultInjector::retime(std::uint32_t pos, bool eligible, double p, std::int64_t first) {
  Slot& slot = slots_[pos];
  // Memorylessness: with p and eligibility unchanged, the live entry is
  // already distributed as first + Geometric(p).
  if (eligible == slot.eligible && (!eligible || p == slot.p)) return;
  slot.eligible = eligible;
  slot.p = p;
  ++slot.gen;
  slot.due = kNever;
  if (eligible) schedule(pos, first + rng_.geometric(p));
}

void FaultInjector::schedule(std::uint32_t pos, std::int64_t step) {
  if (step >= kNever) return;
  Slot& slot = slots_[pos];
  slot.due = step;
  if (heap_.size() == heap_.capacity()) {
    // Full of stale entries: drop them in place rather than grow.
    std::erase_if(heap_, [this](const Due& e) { return e.gen != slots_[e.pos].gen; });
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }
  heap_.push_back(Due{step, pos, slot.gen});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

void FaultInjector::fire(std::uint32_t pos) {
  slots_[pos].due = kNever;
  const std::size_t link_positions = 4 * net_.links().size();
  if (pos < link_positions) {
    const net::LinkId id{static_cast<std::int32_t>(pos / 4)};
    if (pos % 4 == 2) {
      inject_cable_break(id);
    } else {
      inject_transceiver_failure(id, static_cast<int>(pos % 4));
    }
    return;
  }
  const std::int32_t d = pos_device_[pos - link_positions];
  const net::DeviceId id{d};
  const std::uint32_t card = pos - device_pos_[static_cast<std::size_t>(d)];
  if (card == 0) {
    inject_device_failure(id);
  } else {
    inject_linecard_failure(id, static_cast<int>(card - 1));
  }
}

void FaultInjector::materialise(std::size_t link, int end, std::int64_t last) {
  Accrual& acc = accrual_[2 * link + static_cast<std::size_t>(end)];
  if (last < acc.from) return;
  const std::int64_t steps = last - acc.from + 1;
  acc.from = last + 1;
  net::Link& l = net_.link_mut(net::LinkId{static_cast<std::int32_t>(link)});
  net::EndCondition& c = end == 0 ? l.end_a.condition : l.end_b.condition;
  // The scan capped after every increment; increments are positive, so one
  // cap on the sum is the same thing, and a capped end needs no draw.
  if (c.oxidation >= 1.0) return;
  const double mean = cfg_.oxidation_rate_per_year * dt_years_;
  c.oxidation = std::min(1.0, c.oxidation + rng_.gamma(static_cast<double>(steps), mean));
}

bool FaultInjector::rebound_gray(std::int64_t base) {
  const Environment::StressCeiling ceiling = env_.stress_ceiling(net_.now());
  bound_epoch_ = env_.vibration_epoch();
  bound_tightens_at_ = ceiling.tightens_at;
  // contamination = oxidation = 1 maximises the state-dependent factor.
  const double factor = 1.0 + std::max(0.0, cfg_.gray_contamination_gain) +
                        std::max(0.0, cfg_.gray_oxidation_gain);
  const double p_bar =
      std::min(0.9, cfg_.gray_rate_per_year * factor * ceiling.value * dt_years_);
  if (p_bar == gray_p_bar_) return false;
  // Memorylessness again: lattice points from `base` on are unscanned, so a
  // fresh stride under the new bound is exact.
  gray_p_bar_ = p_bar;
  gray_next_ = base + rng_.geometric(p_bar);
  return true;
}

void FaultInjector::gray_candidate(std::int64_t lattice) {
  // An episode registered mid-step may have raised the ceiling.
  if (env_.vibration_epoch() != bound_epoch_ && rebound_gray(lattice)) return;
  const auto links = static_cast<std::int64_t>(net_.links().size());
  const auto link = static_cast<std::size_t>(lattice % links);
  const net::Link& l = net_.links()[link];
  if (l.state == net::LinkState::kUp || l.state == net::LinkState::kDegraded) {
    const std::int64_t step = lattice / links;
    for (int end = 0; end < 2; ++end) {
      if (slots_[4 * link + static_cast<std::size_t>(end)].eligible) materialise(link, end, step);
    }
    // Dirt blocks the shared light path, so the worse end-face dominates;
    // electrical contacts glitch independently, so the two ends' oxidation
    // hazards add (and reseating either end removes its half).
    const double contamination =
        std::max(l.end_a.condition.contamination, l.end_b.condition.contamination);
    const double oxidation = 0.5 * (l.end_a.condition.oxidation + l.end_b.condition.oxidation);
    const double rate = cfg_.gray_rate_per_year *
                        (1.0 + cfg_.gray_contamination_gain * contamination +
                         cfg_.gray_oxidation_gain * oxidation) *
                        env_.stress_factor(net_.now());
    const double p = std::min(0.9, rate * dt_years_);
    if (rng_.uniform53() * gray_p_bar_ < p) {
      const double secs =
          rng_.lognormal_bm(cfg_.gray_duration_log_mean, cfg_.gray_duration_log_sigma);
      inject_gray_episode(l.id, sim::Duration::seconds(secs));
    }
  }
  gray_next_ = lattice + 1 + rng_.geometric(gray_p_bar_);
}

void FaultInjector::inject_transceiver_failure(net::LinkId id, int end) {
  net::Link& l = net_.link_mut(id);
  (end == 0 ? l.end_a.condition : l.end_b.condition).transceiver_healthy = false;
  net_.refresh_link(id);
  emit(FaultEvent{net_.now(), FaultKind::kTransceiverFailure, id, net::DeviceId{}, end,
                  sim::Duration::zero()});
}

void FaultInjector::inject_cable_break(net::LinkId id) {
  net_.link_mut(id).cable.intact = false;
  net_.refresh_link(id);
  emit(FaultEvent{net_.now(), FaultKind::kCableBreak, id, net::DeviceId{}, -1,
                  sim::Duration::zero()});
}

void FaultInjector::inject_device_failure(net::DeviceId id) {
  net_.set_device_health(id, false);
  mark_device(id);  // a device with no links gets no refresh
  emit(FaultEvent{net_.now(), FaultKind::kDeviceFailure, net::LinkId{}, id, -1,
                  sim::Duration::zero()});
}

void FaultInjector::inject_linecard_failure(net::DeviceId id, int card) {
  net_.set_linecard_health(id, card, false);
  mark_device(id);
  emit(FaultEvent{net_.now(), FaultKind::kLineCardFailure, net::LinkId{}, id, card,
                  sim::Duration::zero()});
}

void FaultInjector::inject_gray_episode(net::LinkId id, sim::Duration duration) {
  net::Link& l = net_.link_mut(id);
  const sim::TimePoint until = net_.now() + duration;
  if (until > l.gray_until) l.gray_until = until;
  net_.refresh_link(id);
  // Schedule the recovery refresh so the state machine observes the expiry.
  net_.simulator().schedule_at(until, [this, id] { net_.refresh_link(id); });
  emit(FaultEvent{net_.now(), FaultKind::kGrayEpisode, id, net::DeviceId{}, -1, duration});
}

std::size_t FaultInjector::count(FaultKind k) const {
  std::size_t n = 0;
  for (const FaultEvent& e : log_) {
    if (e.kind == k) ++n;
  }
  return n;
}

void FaultInjector::set_obs(obs::Obs* o) {
  if (o == nullptr) return;
  if (obs::Registry* reg = o->metrics()) {
    static constexpr const char* kNames[kFaultKindCount] = {
        "fault_injected_transceiver_failure_total", "fault_injected_cable_break_total",
        "fault_injected_device_failure_total", "fault_injected_gray_episode_total",
        "fault_injected_linecard_failure_total"};
    for (std::size_t k = 0; k < kFaultKindCount; ++k) obs_injected_[k] = reg->counter(kNames[k]);
    obs_injected_total_ = reg->counter("fault_injected_total");
    obs_draws_ = reg->counter("fault_rng_draws_total");
  }
  obs_trace_ = o->trace();
  obs_recorder_ = o->recorder();
}

void FaultInjector::emit(FaultEvent ev) {
  log_.push_back(ev);
  if (obs_injected_total_ != nullptr) {
    obs_injected_total_->inc();
    obs_injected_[static_cast<std::size_t>(ev.kind)]->inc();
  }
  if (obs_trace_ != nullptr) obs_trace_->instant(
      to_string(ev.kind), "fault", ev.time, "link", ev.link.value(), "device",
      ev.device.value());
  if (obs_recorder_ != nullptr) {
    obs_recorder_->record(ev.time.count_us(), to_string(ev.kind), ev.link.value(),
                          ev.device.value());
  }
  for (const Listener& l : listeners_) l(ev);
}

}  // namespace smn::fault
