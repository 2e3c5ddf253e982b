#include "scenario/campus.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "core/check.h"

namespace smn::scenario {

Campus::Campus(const topology::CampusBlueprint& blueprint, CampusConfig cfg)
    : cfg_{std::move(cfg)}, graph_{blueprint}, spare_pool_{cfg_.spare_pool} {
  SMN_ASSERT(!blueprint.halls.empty(), "campus needs at least one hall");
  // Conservative lookahead: the fastest trunk, so every message is
  // deliverable strictly after the barrier at its send instant. DomainGraph
  // rejects non-positive trunk latency.
  if (graph_.coupled()) lookahead_ = graph_.min_latency();

  domains_.reserve(blueprint.halls.size());
  for (std::size_t i = 0; i < blueprint.halls.size(); ++i) {
    WorldConfig hall_cfg = cfg_.hall;
    hall_cfg.seed = domain_seed(cfg_.hall.seed, i);
    sim::RngFactory rngs{hall_cfg.seed};
    auto d = std::make_unique<Domain>(static_cast<int>(i), rngs.stream("campus-xtraffic"));
    d->world = std::make_unique<World>(blueprint.halls[i], std::move(hall_cfg));
    // Campus-coupling instruments are registered only when trunks exist, so
    // an uncoupled domain's registry — like its event trace — is
    // byte-identical to a standalone World's (the differential-test anchor).
    if (graph_.coupled()) {
      if (obs::Registry* reg = d->world->obs().metrics()) {
        d->tx_flows = reg->counter("campus_xtraffic_tx_total");
        d->rx_flows = reg->counter("campus_xtraffic_rx_total");
        d->rx_degraded = reg->counter("campus_xtraffic_rx_degraded_total");
        d->rx_gbps = reg->histogram("campus_xtraffic_rx_gbps",
                                    {5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0});
        d->spares_requested = reg->counter("campus_spares_requested_total");
        d->spares_granted = reg->counter("campus_spares_granted_total");
        d->spares_denied = reg->counter("campus_spares_denied_total");
        d->depot_level = reg->gauge("campus_spare_depot_level");
        d->depot_level->set(static_cast<double>(spare_pool_.stock()));
        if (cfg_.hall.storage.enabled) {
          d->repl_tx = reg->counter("campus_storage_repl_tx_total");
          d->repl_rx = reg->counter("campus_storage_repl_rx_total");
        }
        if (i == 0) barriers_total_ = reg->counter("campus_barriers_total");
      }
    }
    domains_.push_back(std::move(d));
  }
}

void Campus::start() {
  if (started_) return;
  started_ = true;
  tasks_.reserve(domains_.size());
  for (const std::unique_ptr<Domain>& dp : domains_) {
    Domain& d = *dp;
    d.world->start();
    tasks_.emplace_back([this, dom = &d] { dom->world->simulator().run_until(chunk_target_); });
    if (!graph_.coupled()) continue;
    const bool has_peers = !graph_.peers(d.index).empty();
    if (cfg_.traffic_period > sim::Duration::zero() && has_peers) {
      add_producer(d, cfg_.traffic_period, &Campus::traffic_tick);
    }
    if (cfg_.spare_audit_period > sim::Duration::zero()) {
      add_producer(d, cfg_.spare_audit_period, &Campus::spare_audit_tick);
    }
    if (cfg_.hall.storage.enabled && cfg_.storage_repl_period > sim::Duration::zero() &&
        has_peers) {
      add_producer(d, cfg_.storage_repl_period, &Campus::storage_repl_tick);
    }
  }
}

void Campus::add_producer(Domain& d, sim::Duration period, void (Campus::*tick)(Domain&)) {
  d.world->simulator().schedule_every(period, [this, dom = &d, tick] { (this->*tick)(*dom); });
  // Every domain starts at now_, so producers of one period share their
  // instants; one calendar entry covers them all.
  for (const Producer& p : calendar_) {
    if (p.period == period) return;
  }
  calendar_.push_back({period, now_ + period});
}

sim::TimePoint Campus::next_send() const {
  sim::TimePoint next = sim::TimePoint::max();
  for (const Producer& p : calendar_) next = std::min(next, p.next);
  return next;
}

void Campus::traffic_tick(Domain& d) {
  const sim::TimePoint now = d.world->now();
  for (const net::DomainPeer& peer : graph_.peers(d.index)) {
    for (int f = 0; f < cfg_.flows_per_tick; ++f) {
      CrossMessage m;
      m.kind = CrossMessage::Kind::kTraffic;
      m.src = d.index;
      m.dst = peer.hall;
      m.sent = now;
      m.seq = d.next_seq++;
      m.gbps = d.traffic_rng.exponential(cfg_.flow_gbps_mean);
      d.outbox.push_back(m);
      if (d.tx_flows != nullptr) d.tx_flows->inc();
    }
  }
}

void Campus::spare_audit_tick(Domain& d) {
  const std::size_t faults = d.world->injector().log().size();
  const std::size_t delta = faults - d.faults_seen;
  d.faults_seen = faults;
  if (delta == 0) return;
  CrossMessage m;
  m.kind = CrossMessage::Kind::kSpareRequest;
  m.src = d.index;
  m.dst = -1;  // the campus coordinator (shared depot)
  m.sent = d.world->now();
  m.seq = d.next_seq++;
  m.spares = static_cast<int>(delta);
  d.outbox.push_back(m);
  if (d.spares_requested != nullptr) d.spares_requested->inc(delta);
}

void Campus::storage_repl_tick(Domain& d) {
  const sim::TimePoint now = d.world->now();
  for (const net::DomainPeer& peer : graph_.peers(d.index)) {
    CrossMessage m;
    m.kind = CrossMessage::Kind::kStorageRepl;
    m.src = d.index;
    m.dst = peer.hall;
    m.sent = now;
    m.seq = d.next_seq++;
    m.mb = cfg_.storage_repl_mb;
    d.outbox.push_back(m);
    if (d.repl_tx != nullptr) d.repl_tx->inc();
  }
}

void Campus::run_chunk(sim::TimePoint target, const Executor& exec) {
  chunk_target_ = target;
  if (exec) {
    exec(tasks_);
  } else {
    for (Task& t : tasks_) t();
  }
  // Both executors return only after every task finished, so the gather
  // needs no lock. exchange() sorts into the canonical order.
  for (const std::unique_ptr<Domain>& dp : domains_) {
    pending_.insert(pending_.end(), dp->outbox.begin(), dp->outbox.end());
    dp->outbox.clear();
  }
}

void Campus::exchange(sim::TimePoint barrier) {
  ++barriers_passed_;
  if (barriers_total_ != nullptr) barriers_total_->inc();
  std::sort(pending_.begin(), pending_.end(),
            [](const CrossMessage& a, const CrossMessage& b) { return a.key() < b.key(); });
  for (const CrossMessage& m : pending_) {
    // A producer off the send calendar would deliver late; fail loudly.
    SMN_ASSERT(m.sent <= barrier && barrier < m.sent + lookahead_,
               "message from hall %d sent at %lld us missed its barrier at %lld us", m.src,
               static_cast<long long>(m.sent.count_us()),
               static_cast<long long>(barrier.count_us()));
    switch (m.kind) {
      case CrossMessage::Kind::kTraffic: {
        SMN_ASSERT(m.dst >= 0 && m.dst < static_cast<int>(domains_.size()),
                   "cross-traffic message to unknown hall %d", m.dst);
        Domain& dst = *domains_[static_cast<std::size_t>(m.dst)];
        const sim::Duration latency = graph_.latency(m.src, m.dst);
        SMN_ASSERT(latency < sim::Duration::max(), "cross-traffic between non-adjacent halls");
        // latency >= lookahead puts the delivery strictly after the barrier,
        // where the destination is parked: no event lands in its past.
        dst.world->simulator().schedule_at(m.sent + latency, [dom = &dst, gbps = m.gbps] {
          if (dom->rx_flows != nullptr) dom->rx_flows->inc();
          if (dom->rx_gbps != nullptr) dom->rx_gbps->observe(gbps);
          const bool impaired = dom->world->network().links_down() > 0;
          if (impaired && dom->rx_degraded != nullptr) dom->rx_degraded->inc();
        });
        break;
      }
      case CrossMessage::Kind::kStorageRepl: {
        SMN_ASSERT(m.dst >= 0 && m.dst < static_cast<int>(domains_.size()),
                   "storage replica message to unknown hall %d", m.dst);
        Domain& dst = *domains_[static_cast<std::size_t>(m.dst)];
        const sim::Duration latency = graph_.latency(m.src, m.dst);
        SMN_ASSERT(latency < sim::Duration::max(), "storage replica between non-adjacent halls");
        dst.world->simulator().schedule_at(m.sent + latency, [dom = &dst, mb = m.mb] {
          if (dom->repl_rx != nullptr) dom->repl_rx->inc();
          if (dom->world->has_storage()) dom->world->storage().absorb_replica_mb(mb);
        });
        break;
      }
      case CrossMessage::Kind::kSpareRequest: {
        // Campus-level controller decision, in canonical message order —
        // first-sent, first-served, ties broken by hall index. The request
        // reaches the depot one lookahead after it was sent, which is when
        // it is arbitrated; the grant travels one more lookahead back.
        const sim::TimePoint arbitration = m.sent + lookahead_;
        spare_pool_.restock_to(arbitration);
        const int granted = spare_pool_.grant(m.spares);
        const int denied = m.spares - granted;
        const int level = spare_pool_.stock();
        Domain& src = *domains_[static_cast<std::size_t>(m.src)];
        src.world->simulator().schedule_at(
            arbitration + lookahead_, [dom = &src, granted, denied, level] {
              if (dom->spares_granted != nullptr) {
                dom->spares_granted->inc(static_cast<std::uint64_t>(granted));
              }
              if (dom->spares_denied != nullptr) {
                dom->spares_denied->inc(static_cast<std::uint64_t>(denied));
              }
              if (dom->depot_level != nullptr) dom->depot_level->set(level);
            });
        break;
      }
    }
  }
  messages_exchanged_ += pending_.size();
  pending_.clear();
}

void Campus::run_for(sim::Duration d, const Executor& exec) {
  start();
  const sim::TimePoint end = now_ + d;
  while (now_ < end) {
    // Messages leave only at send instants, so the domains can run
    // undisturbed to the next one (or to the end of the span).
    const sim::TimePoint barrier = next_send();
    const sim::TimePoint target = barrier < end ? barrier : end;
    run_chunk(target, exec);
    now_ = target;
    if (now_ != barrier) continue;
    exchange(barrier);
    for (Producer& p : calendar_) {
      if (p.next == barrier) p.next = p.next + p.period;
    }
  }
}

std::uint64_t Campus::trace_hash() const {
  std::string bytes;
  bytes.resize(domains_.size() * sizeof(std::uint64_t));
  for (std::size_t i = 0; i < domains_.size(); ++i) {
    const std::uint64_t h = domains_[i]->world->simulator().trace_hash();
    std::memcpy(bytes.data() + i * sizeof h, &h, sizeof h);
  }
  return obs::fnv1a(bytes);
}

std::uint64_t Campus::events_processed() const {
  std::uint64_t total = 0;
  for (const std::unique_ptr<Domain>& d : domains_) {
    total += d->world->simulator().events_processed();
  }
  return total;
}

std::vector<obs::SnapshotEntry> Campus::merged_snapshot() const {
  std::vector<std::vector<obs::SnapshotEntry>> snaps;
  snaps.reserve(domains_.size());
  for (const std::unique_ptr<Domain>& d : domains_) {
    if (const obs::Registry* reg = d->world->obs().metrics()) {
      snaps.push_back(reg->snapshot());
    }
  }
  return obs::merge_snapshots(snaps);
}

std::uint64_t Campus::metrics_hash() const {
  const std::vector<obs::SnapshotEntry> merged = merged_snapshot();
  return merged.empty() ? 0 : obs::snapshot_hash(merged);
}

void Campus::check_invariants() const {
  for (const std::unique_ptr<Domain>& d : domains_) d->world->check_invariants();
}

}  // namespace smn::scenario
