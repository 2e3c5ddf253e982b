#include "telemetry/monitor.h"

#include <algorithm>
#include <functional>

namespace smn::telemetry {

const char* to_string(IssueKind k) {
  switch (k) {
    case IssueKind::kDown: return "down";
    case IssueKind::kFlapping: return "flapping";
    case IssueKind::kDegraded: return "degraded";
    case IssueKind::kFalsePositive: return "false-positive";
  }
  return "?";
}

DetectionEngine::DetectionEngine(net::Network& net, sim::RngStream rng, Config cfg)
    : net_{net},
      rng_{std::move(rng)},
      cfg_{cfg},
      fom_engine_{net.simulator()},
      poll_fom_{*this},
      fp_fom_{*this} {
  state_.resize(net_.links().size());
  const sim::TimePoint now = net_.now();
  for (std::size_t i = 0; i < state_.size(); ++i) {
    state_[i].last_state = net_.links()[i].state;
    state_[i].state_since = now;
    state_[i].up_since = now;
    update_watch(i);
  }
  net_.subscribe([this](const net::Link& l, net::LinkState from, net::LinkState to) {
    on_transition(l, from, to);
  });
}

void DetectionEngine::start() {
  if (running_) return;
  running_ = true;
  anchor_ = net_.now();
  if (cfg_.false_positive_per_year > 0.0) {
    fp_heap_.reserve(state_.size());
    // Per-link draws in link order, same as the old per-link timer arming.
    for (std::size_t i = 0; i < state_.size(); ++i) push_false_positive(i);
    if (!fp_heap_.empty()) fom_engine_.wake_at(fp_fom_, fp_heap_.front().first);
  }
  arm_poll();
}

void DetectionEngine::stop() {
  if (!running_) return;
  running_ = false;
  fom_engine_.cancel_wakeup(poll_fom_);
  fom_engine_.cancel_wakeup(fp_fom_);
  fp_heap_.clear();
}

void DetectionEngine::set_obs(obs::Obs* o) {
  if (o == nullptr || o->metrics() == nullptr) return;
  fom_engine_.set_obs(o->metrics()->counter("sim_wakeups_telemetry_total"));
}

void DetectionEngine::on_transition(const net::Link& l, net::LinkState from,
                                    net::LinkState to) {
  const std::size_t i = static_cast<size_t>(l.id.value());
  LinkWatch& w = state_.at(i);
  const sim::TimePoint now = net_.now();
  w.time_in_state[static_cast<int>(from)] += now - w.state_since;
  w.last_state = to;
  w.state_since = now;
  if (to == net::LinkState::kUp) w.up_since = now;
  if (to == net::LinkState::kFlapping) {
    w.flap_times.push_back(now);
    ++w.lifetime_flaps;
    while (!w.flap_times.empty() && now - w.flap_times.front() > cfg_.flap_window) {
      w.flap_times.pop_front();
    }
  }
  update_watch(i);
}

void DetectionEngine::update_watch(std::size_t i) {
  LinkWatch& w = state_[i];
  const bool should = w.open || net_.links()[i].state != net::LinkState::kUp;
  if (should == w.watched) return;
  w.watched = should;
  const std::uint32_t v = static_cast<std::uint32_t>(i);
  const auto it = std::lower_bound(watch_.begin(), watch_.end(), v);
  if (should) {
    watch_.insert(it, v);
    arm_poll();
  } else {
    watch_.erase(it);
  }
}

void DetectionEngine::arm_poll() {
  if (!running_ || watch_.empty()) return;
  // Strictly-next grid point, so a transition landing exactly on the grid is
  // evaluated one full poll later — the same thing the free-running scan did
  // when its tick at that instant had already run. Wakeup coalescing makes
  // redundant re-arms (every watchlist insert) free.
  const std::int64_t poll_us = cfg_.poll.count_us();
  const std::int64_t k = (net_.now() - anchor_).count_us() / poll_us + 1;
  const sim::TimePoint next = anchor_ + sim::Duration::microseconds(k * poll_us);
  fom_engine_.wake_at(poll_fom_, next);
}

void DetectionEngine::poll_tick() {
  const sim::TimePoint now = net_.now();
  // Snapshot: raise() listeners run synchronously and may drain links or
  // resolve tickets, editing the watchlist mid-scan.
  scratch_ = watch_;
  for (const std::uint32_t i : scratch_) scan_link(i, now);
  arm_poll();
}

sim::Fom::Tick DetectionEngine::PollFom::tick() {
  eng_.poll_tick();
  return Tick::kWait;  // re-armed inside poll_tick iff still watching links
}

sim::Fom::Tick DetectionEngine::FpFom::tick() {
  const sim::TimePoint now = eng_.net_.now();
  while (!eng_.fp_heap_.empty() && eng_.fp_heap_.front().first <= now) {
    const std::size_t i = eng_.fp_heap_.front().second;
    std::pop_heap(eng_.fp_heap_.begin(), eng_.fp_heap_.end(),
                  std::greater<std::pair<sim::TimePoint, std::uint32_t>>{});
    eng_.fp_heap_.pop_back();
    eng_.fire_false_positive(i);  // redraws and re-pushes link i's arrival
  }
  if (!eng_.fp_heap_.empty()) {
    engine().wake_at(*this, eng_.fp_heap_.front().first);
  }
  return Tick::kWait;
}

void DetectionEngine::scan_link(std::size_t i, sim::TimePoint now) {
  const net::Link& l = net_.links()[i];
  LinkWatch& w = state_[i];

  // Self-clear: link has been healthy long enough; re-arm detection.
  if (w.open && l.state == net::LinkState::kUp && now - w.up_since >= cfg_.self_clear) {
    w.open = false;
    update_watch(i);
  }
  if (w.open) return;

  // Admin-drained links are intentionally down; not a failure to detect.
  if (l.admin_down) return;

  const sim::Duration in_state = now - w.state_since;
  switch (l.state) {
    case net::LinkState::kDown:
      if (in_state >= cfg_.down_debounce) raise(l.id, IssueKind::kDown, true);
      break;
    case net::LinkState::kFlapping:
      if (static_cast<int>(w.flap_times.size()) >= cfg_.flap_threshold ||
          in_state >= cfg_.down_debounce) {
        raise(l.id, IssueKind::kFlapping, true);
      }
      break;
    case net::LinkState::kDegraded:
      if (in_state >= cfg_.degraded_debounce) raise(l.id, IssueKind::kDegraded, true);
      break;
    case net::LinkState::kUp:
      break;  // false positives come from the per-link exponential timers
  }
}

void DetectionEngine::push_false_positive(std::size_t i) {
  const double mean_days = 365.0 / cfg_.false_positive_per_year;
  const sim::TimePoint at =
      net_.now() + sim::Duration::days(rng_.exponential(mean_days));
  fp_heap_.emplace_back(at, static_cast<std::uint32_t>(i));
  std::push_heap(fp_heap_.begin(), fp_heap_.end(),
                 std::greater<std::pair<sim::TimePoint, std::uint32_t>>{});
}

void DetectionEngine::fire_false_positive(std::size_t i) {
  const net::Link& l = net_.links()[i];
  const LinkWatch& w = state_[i];
  // The Poisson process keeps running either way; an arrival on an impaired,
  // drained, or already-flagged link is simply absorbed.
  if (!w.open && !l.admin_down && l.state == net::LinkState::kUp) {
    raise(l.id, IssueKind::kFalsePositive, false);
    ++false_positives_;
  }
  push_false_positive(i);
}

void DetectionEngine::raise(net::LinkId id, IssueKind kind, bool genuine) {
  LinkWatch& w = state_.at(static_cast<size_t>(id.value()));
  w.open = true;
  update_watch(static_cast<size_t>(id.value()));
  const Detection d{net_.now(), id, kind, genuine};
  for (const Listener& l : listeners_) l(d);
}

void DetectionEngine::clear(net::LinkId id) {
  const std::size_t i = static_cast<size_t>(id.value());
  state_.at(i).open = false;
  update_watch(i);
}

int DetectionEngine::recent_flaps(net::LinkId id, sim::Duration window) const {
  const LinkWatch& w = state_.at(static_cast<size_t>(id.value()));
  const sim::TimePoint now = net_.now();
  int n = 0;
  for (const sim::TimePoint t : w.flap_times) {
    if (now - t <= window) ++n;
  }
  return n;
}

int DetectionEngine::total_flap_transitions(net::LinkId id) const {
  return state_.at(static_cast<size_t>(id.value())).lifetime_flaps;
}

sim::Duration DetectionEngine::time_in(net::LinkId id, net::LinkState s) const {
  const LinkWatch& w = state_.at(static_cast<size_t>(id.value()));
  sim::Duration total = w.time_in_state[static_cast<int>(s)];
  if (w.last_state == s) total += net_.now() - w.state_since;
  return total;
}

}  // namespace smn::telemetry
