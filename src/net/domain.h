// Domain partitioning over a campus: the per-hall adjacency view a sharded
// run needs, derived once from a topology::CampusBlueprint.
//
// A *domain* is one hall — one Network, one Simulator, one set of fault
// processes and fleets — and domains never share mutable state. What crosses
// domains is messages, and the only facts the exchange layer needs are
// captured here: which halls are adjacent, at what latency and capacity, and
// the minimum cross-domain latency (the conservative lookahead: no delivery
// lands sooner than this after its send; see sim/epoch.h).
#pragma once

#include <cstddef>
#include <vector>

#include "sim/time.h"
#include "topology/campus.h"

namespace smn::net {

/// One directed cross-domain edge as seen from a source hall.
struct DomainPeer {
  int hall = -1;  // destination hall index
  sim::Duration latency;
  double capacity_gbps = 0.0;
};

/// The validated, per-hall view of a campus's cross links. Construction
/// validates the blueprint (throws std::logic_error on dangling indices,
/// self-loops, or non-positive latency).
class DomainGraph {
 public:
  explicit DomainGraph(const topology::CampusBlueprint& campus);

  [[nodiscard]] std::size_t domains() const { return peers_.size(); }

  /// Outbound peers of `hall`, sorted by destination hall index — the
  /// deterministic iteration order every cross-domain producer uses.
  [[nodiscard]] const std::vector<DomainPeer>& peers(int hall) const {
    return peers_.at(static_cast<std::size_t>(hall));
  }

  [[nodiscard]] bool coupled() const { return coupled_; }

  /// Minimum latency over all cross links — the conservative lookahead.
  /// Only meaningful when coupled(); Duration::max() otherwise.
  [[nodiscard]] sim::Duration min_latency() const { return min_latency_; }

  /// Latency from `src` to `dst`; Duration::max() when not adjacent.
  [[nodiscard]] sim::Duration latency(int src, int dst) const;

 private:
  std::vector<std::vector<DomainPeer>> peers_;  // indexed by source hall
  sim::Duration min_latency_ = sim::Duration::max();
  bool coupled_ = false;
};

}  // namespace smn::net
