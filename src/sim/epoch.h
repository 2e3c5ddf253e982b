// The exchange order for sharded (multi-simulator) execution.
//
// A campus-scale run partitions the plant into *domains*, each owning its own
// Simulator. Domains advance independently and synchronize at barriers where
// cross-domain messages are exchanged. The discipline is conservative
// parallel discrete-event simulation: every delivery lands at least one
// *lookahead* (the minimum cross-domain latency) after its send, so a barrier
// at the send instant can schedule it into the destination simulator while
// every domain is parked there. No rollbacks, no straggler events, and the
// executed event order of every domain is independent of how domains are
// assigned to worker threads. The owner of the domains (scenario::Campus)
// places the barriers and runs the exchange; the ordering key the exchange
// must use is defined here so the tie-break discipline is a single source of
// truth shared with tests.
#pragma once

#include <cstdint>
#include <tuple>

#include "sim/time.h"

namespace smn::sim {

/// The canonical cross-domain message ordering key. Messages gathered from
/// per-domain outboxes would otherwise be ordered by domain; sorting by
/// (send time, source domain, per-source sequence number) gives a total
/// order — (src, seq) is unique per message — so delivery-event scheduling is
/// byte-identical at any shard count. This is the same tie-break discipline
/// the sweep aggregator uses for (cell, seed) replicates.
struct ExchangeKey {
  TimePoint sent;
  int src_domain = 0;
  std::uint64_t seq = 0;

  [[nodiscard]] friend bool operator<(const ExchangeKey& a, const ExchangeKey& b) {
    return std::tuple{a.sent, a.src_domain, a.seq} < std::tuple{b.sent, b.src_domain, b.seq};
  }
};

}  // namespace smn::sim
