// The ticketing system (§1: "The services produce service tickets that
// describe what needs to be repaired or replaced and its location").
//
// Tickets are the interface between detection and repair at every automation
// level; what changes with automation is who consumes them and how fast.
// TicketSystem also tracks per-link repair history, because the escalation
// ladder (§3.2) is defined over it: "If the transceiver has been reseated in
// the past, and another ticket is generated for the same link within a time
// window ... the next stage is to perform this cleaning process."
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "net/types.h"
#include "obs/obs.h"
#include "sim/time.h"
#include "telemetry/monitor.h"

namespace smn::maintenance {

enum class TicketState : std::uint8_t {
  kOpen,        // raised, not yet assigned
  kDispatched,  // assigned to a performer, work not started
  kInProgress,  // performer on site / robot acting
  kResolved,
  kCancelled,   // e.g. false positive recognized, or superseded
};
[[nodiscard]] const char* to_string(TicketState s);

enum class TicketPriority : std::uint8_t { kNormal, kHigh };

struct Ticket {
  int id = -1;
  net::LinkId link;
  telemetry::IssueKind issue = telemetry::IssueKind::kDown;
  TicketPriority priority = TicketPriority::kNormal;
  bool genuine = true;     // whether the detection was a true positive
  bool proactive = false;  // opened by a proactive policy, not a detection
  TicketState state = TicketState::kOpen;
  sim::TimePoint opened;
  sim::TimePoint dispatched;
  sim::TimePoint started;
  sim::TimePoint resolved;
  std::string resolved_by;  // "technician" / "robot" / "self-cleared" / ...
  int actions_taken = 0;    // repair attempts consumed by this ticket
};

class TicketSystem {
 public:
  using Listener = std::function<void(const Ticket&)>;

  /// Opens a ticket unless one is already open/in-flight for the link
  /// (dedup, as production ticketing does). Returns the ticket id, or
  /// nullopt if deduplicated.
  std::optional<int> open(sim::TimePoint now, net::LinkId link, telemetry::IssueKind issue,
                          bool genuine, TicketPriority priority = TicketPriority::kNormal,
                          bool proactive = false);

  void mark_dispatched(int id, sim::TimePoint now);
  void mark_started(int id, sim::TimePoint now);
  void mark_resolved(int id, sim::TimePoint now, std::string resolved_by);
  void mark_cancelled(int id, sim::TimePoint now, std::string reason);
  void count_action(int id) { ticket_mut(id).actions_taken++; }

  [[nodiscard]] const Ticket& ticket(int id) const;
  [[nodiscard]] const std::vector<Ticket>& all() const { return tickets_; }
  [[nodiscard]] std::optional<int> open_ticket_for(net::LinkId link) const;

  /// Resolved tickets for this link, newest first.
  [[nodiscard]] std::vector<const Ticket*> history_for(net::LinkId link) const;

  /// True if a ticket on this link was resolved within `window` before `now`
  /// — the repeat-ticket test driving escalation (§3.2).
  [[nodiscard]] bool repeat_within(net::LinkId link, sim::TimePoint now,
                                   sim::Duration window) const;

  /// Notifies on every resolve (experiment bookkeeping).
  void subscribe_resolved(Listener l) { resolved_listeners_.push_back(std::move(l)); }

  /// Wires observability: tickets_* counters, the open-backlog gauge, the
  /// resolve-latency histogram, and async trace spans keyed by ticket id.
  void set_obs(obs::Obs* o);

  [[nodiscard]] std::size_t count(TicketState s) const;
  [[nodiscard]] std::size_t total() const { return tickets_.size(); }
  /// Tickets opened on a link within `window` after a resolve on the same
  /// link — the repeat-ticket statistic for E6.
  [[nodiscard]] std::size_t repeat_ticket_count(sim::Duration window) const;

  /// Aborts (via SMN_ASSERT) on state-machine violations: ids must equal
  /// indices, per-state timestamps must be monotone (opened ≤ dispatched ≤
  /// started ≤ resolved where set), closed tickets must name a resolver, and
  /// at most one non-closed ticket may exist per link (the dedup invariant
  /// `open` relies on). Allocates nothing once its scratch has grown to the
  /// in-flight ticket count.
  void check_invariants() const;

 private:
  Ticket& ticket_mut(int id);

  std::vector<Ticket> tickets_;
  std::vector<Listener> resolved_listeners_;
  // check_invariants scratch: links of in-flight tickets, reused.
  mutable std::vector<std::int32_t> check_in_flight_;

  // Observability handles (all null until set_obs). The backlog gauge tracks
  // tickets that are neither resolved nor cancelled.
  obs::Counter* obs_opened_ = nullptr;
  obs::Counter* obs_resolved_ = nullptr;
  obs::Counter* obs_cancelled_ = nullptr;
  obs::Gauge* obs_backlog_ = nullptr;
  obs::Histogram* obs_resolve_hours_ = nullptr;
  obs::TraceBuffer* obs_trace_ = nullptr;
  obs::FlightRecorder* obs_recorder_ = nullptr;
};

}  // namespace smn::maintenance
