#include "maintenance/ticket.h"

#include <algorithm>
#include <stdexcept>

#include "core/check.h"

namespace smn::maintenance {

const char* to_string(TicketState s) {
  switch (s) {
    case TicketState::kOpen: return "open";
    case TicketState::kDispatched: return "dispatched";
    case TicketState::kInProgress: return "in-progress";
    case TicketState::kResolved: return "resolved";
    case TicketState::kCancelled: return "cancelled";
  }
  return "?";
}

void TicketSystem::set_obs(obs::Obs* o) {
  if (o == nullptr) return;
  if (obs::Registry* reg = o->metrics()) {
    obs_opened_ = reg->counter("tickets_opened_total");
    obs_resolved_ = reg->counter("tickets_resolved_total");
    obs_cancelled_ = reg->counter("tickets_cancelled_total");
    obs_backlog_ = reg->gauge("tickets_open_backlog");
    // Resolve latency buckets in hours: sub-shift through the §3.2 SLA ladder
    // out to a full week.
    obs_resolve_hours_ =
        reg->histogram("ticket_resolve_hours", {1.0, 4.0, 12.0, 24.0, 48.0, 96.0, 168.0});
  }
  obs_trace_ = o->trace();
  obs_recorder_ = o->recorder();
}

std::optional<int> TicketSystem::open(sim::TimePoint now, net::LinkId link,
                                      telemetry::IssueKind issue, bool genuine,
                                      TicketPriority priority, bool proactive) {
  if (open_ticket_for(link).has_value()) return std::nullopt;
  Ticket t;
  t.id = static_cast<int>(tickets_.size());
  t.link = link;
  t.issue = issue;
  t.priority = priority;
  t.genuine = genuine;
  t.proactive = proactive;
  t.opened = now;
  tickets_.push_back(t);
  if (obs_opened_ != nullptr) {
    obs_opened_->inc();
    obs_backlog_->add(1.0);
  }
  if (obs_trace_ != nullptr) obs_trace_->async_begin(
      "ticket", "ticket", now, static_cast<std::uint64_t>(t.id), "link", link.value());
  if (obs_recorder_ != nullptr) obs_recorder_->record(now.count_us(), "ticket-open", t.id, link.value());
  return t.id;
}

Ticket& TicketSystem::ticket_mut(int id) { return tickets_.at(static_cast<size_t>(id)); }

const Ticket& TicketSystem::ticket(int id) const {
  return tickets_.at(static_cast<size_t>(id));
}

void TicketSystem::mark_dispatched(int id, sim::TimePoint now) {
  Ticket& t = ticket_mut(id);
  if (t.state != TicketState::kOpen) {
    throw std::logic_error{"ticket: dispatch from non-open state"};
  }
  t.state = TicketState::kDispatched;
  t.dispatched = now;
}

void TicketSystem::mark_started(int id, sim::TimePoint now) {
  Ticket& t = ticket_mut(id);
  if (t.state != TicketState::kDispatched && t.state != TicketState::kInProgress) {
    throw std::logic_error{"ticket: start from non-dispatched state"};
  }
  if (t.state == TicketState::kDispatched) {
    t.state = TicketState::kInProgress;
    t.started = now;
  }
}

void TicketSystem::mark_resolved(int id, sim::TimePoint now, std::string resolved_by) {
  Ticket& t = ticket_mut(id);
  if (t.state == TicketState::kResolved || t.state == TicketState::kCancelled) {
    throw std::logic_error{"ticket: resolve of a closed ticket"};
  }
  t.state = TicketState::kResolved;
  t.resolved = now;
  t.resolved_by = std::move(resolved_by);
  if (obs_resolved_ != nullptr) {
    obs_resolved_->inc();
    obs_backlog_->add(-1.0);
    obs_resolve_hours_->observe((t.resolved - t.opened).to_hours());
  }
  if (obs_trace_ != nullptr) obs_trace_->async_end(
      "ticket", "ticket", now, static_cast<std::uint64_t>(t.id), "actions", t.actions_taken);
  if (obs_recorder_ != nullptr) obs_recorder_->record(now.count_us(), "ticket-resolve", t.id, t.link.value());
  for (const Listener& l : resolved_listeners_) l(t);
}

void TicketSystem::mark_cancelled(int id, sim::TimePoint now, std::string reason) {
  Ticket& t = ticket_mut(id);
  if (t.state == TicketState::kResolved || t.state == TicketState::kCancelled) return;
  t.state = TicketState::kCancelled;
  t.resolved = now;
  t.resolved_by = "cancelled: " + reason;
  if (obs_cancelled_ != nullptr) {
    obs_cancelled_->inc();
    obs_backlog_->add(-1.0);
  }
  if (obs_trace_ != nullptr) obs_trace_->async_end(
      "ticket", "ticket", now, static_cast<std::uint64_t>(t.id), "cancelled", 1);
  if (obs_recorder_ != nullptr) obs_recorder_->record(now.count_us(), "ticket-cancel", t.id, t.link.value());
}

std::optional<int> TicketSystem::open_ticket_for(net::LinkId link) const {
  // Newest first: open tickets are usually recent.
  for (auto it = tickets_.rbegin(); it != tickets_.rend(); ++it) {
    if (it->link == link && it->state != TicketState::kResolved &&
        it->state != TicketState::kCancelled) {
      return it->id;
    }
  }
  return std::nullopt;
}

std::vector<const Ticket*> TicketSystem::history_for(net::LinkId link) const {
  std::vector<const Ticket*> out;
  for (auto it = tickets_.rbegin(); it != tickets_.rend(); ++it) {
    if (it->link == link && it->state == TicketState::kResolved) out.push_back(&*it);
  }
  return out;
}

bool TicketSystem::repeat_within(net::LinkId link, sim::TimePoint now,
                                 sim::Duration window) const {
  for (auto it = tickets_.rbegin(); it != tickets_.rend(); ++it) {
    if (it->link == link && it->state == TicketState::kResolved &&
        now - it->resolved <= window) {
      return true;
    }
  }
  return false;
}

std::size_t TicketSystem::count(TicketState s) const {
  return static_cast<size_t>(
      std::count_if(tickets_.begin(), tickets_.end(),
                    [s](const Ticket& t) { return t.state == s; }));
}

void TicketSystem::check_invariants() const {
  std::vector<std::int32_t>& links_in_flight = check_in_flight_;
  links_in_flight.clear();
  for (std::size_t i = 0; i < tickets_.size(); ++i) {
    const Ticket& t = tickets_[i];
    SMN_ASSERT(t.id == static_cast<int>(i), "ticket %zu holds id %d", i, t.id);
    SMN_ASSERT(t.link.valid(), "ticket %d has no link", t.id);
    SMN_ASSERT(t.actions_taken >= 0, "ticket %d negative action count %d", t.id,
               t.actions_taken);
    switch (t.state) {
      case TicketState::kOpen:
        break;
      case TicketState::kInProgress:
        SMN_ASSERT(t.started >= t.dispatched, "ticket %d started before dispatch", t.id);
        [[fallthrough]];
      case TicketState::kDispatched:
        SMN_ASSERT(t.dispatched >= t.opened, "ticket %d dispatched before open", t.id);
        break;
      case TicketState::kResolved:
      case TicketState::kCancelled:
        SMN_ASSERT(t.resolved >= t.opened, "ticket %d closed before open", t.id);
        if (t.started != sim::TimePoint::origin()) {
          SMN_ASSERT(t.resolved >= t.started, "ticket %d closed before work started", t.id);
        }
        SMN_ASSERT(!t.resolved_by.empty(), "ticket %d closed without a resolver", t.id);
        break;
    }
    if (t.state != TicketState::kResolved && t.state != TicketState::kCancelled) {
      links_in_flight.push_back(t.link.value());
    }
  }
  std::sort(links_in_flight.begin(), links_in_flight.end());
  const auto dup = std::adjacent_find(links_in_flight.begin(), links_in_flight.end());
  SMN_ASSERT(dup == links_in_flight.end(), "two in-flight tickets for link %d (dedup broken)",
             *dup);
}

std::size_t TicketSystem::repeat_ticket_count(sim::Duration window) const {
  std::size_t repeats = 0;
  for (const Ticket& t : tickets_) {
    for (const Ticket& prev : tickets_) {
      if (prev.link == t.link && prev.state == TicketState::kResolved &&
          prev.resolved <= t.opened && t.opened - prev.resolved <= window) {
        ++repeats;
        break;
      }
    }
  }
  return repeats;
}

}  // namespace smn::maintenance
