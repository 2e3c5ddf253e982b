// A campus: several independent halls (each a full Blueprint fabric) tied
// together by long inter-hall links. This is the multi-hall modular-DC shape
// the sharded simulation targets — one domain (own Simulator, Network,
// fleets) per hall, cross-hall interactions exchanged at barriers.
//
// Inter-hall links are deliberately *not* folded into one giant Blueprint:
// the whole point of domain sharding is that a hall's event loop never reads
// another hall's mutable state. A CrossHallLink therefore carries only the
// coupling facts the barrier exchange needs: endpoints (hall indices),
// capacity, and the one number that bounds the lookahead — its latency.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"
#include "topology/blueprint.h"
#include "topology/builders.h"

namespace smn::topology {

/// One long-haul fiber trunk between two halls. Latency is the conservative
/// lookahead contribution: the lookahead of a sharded run is the minimum
/// latency over all cross links (see net/domain.h).
struct CrossHallLink {
  int hall_a = -1;
  int hall_b = -1;
  double length_m = 0.0;
  double capacity_gbps = 400.0;
  sim::Duration latency;
};

/// The full campus description: hall fabrics plus the inter-hall trunks.
struct CampusBlueprint {
  std::string name = "campus";
  std::vector<Blueprint> halls;
  std::vector<CrossHallLink> cross_links;

  [[nodiscard]] bool empty() const { return halls.empty(); }

  /// Throws std::logic_error on dangling hall indices, self-loops, or
  /// non-positive cross-link latency (lookahead = 0 is unschedulable).
  void validate() const;
};

struct CampusParams {
  /// Number of identical halls; each is a leaf-spine fabric built from
  /// `hall`. >= 1.
  int halls = 4;
  LeafSpineParams hall{.leaves = 8, .spines = 4, .servers_per_leaf = 6};
  /// Physical spacing between adjacent halls; trunk length between halls i
  /// and j is |i-j| * hall_spacing_m plus an entry run per end.
  double hall_spacing_m = 120.0;
  double entry_run_m = 25.0;
  double cross_capacity_gbps = 1600.0;
  /// Propagation + switching latency per meter of trunk fiber. 5 ns/m of
  /// glass plus DWDM gear overhead, rounded to a round number that keeps
  /// delivery times exact in integer microseconds.
  double latency_us_per_m = 0.05;
  /// Floor on trunk latency, and therefore on the campus lookahead. This
  /// models the end-to-end time for a cross-hall interaction to take
  /// effect — traffic ramp-up, depot logistics dispatch — not raw fiber
  /// propagation (~6 us). One minute stays far below every producer period
  /// in scenario::CampusConfig.
  sim::Duration min_latency = sim::Duration::minutes(1.0);
  /// Ring topology (hall i <-> i+1, wrap) when true; full mesh when false.
  bool ring = true;
};

/// Builds a campus of `halls` identical leaf-spine halls joined by a ring (or
/// full mesh) of long trunks. Validated before return.
[[nodiscard]] CampusBlueprint build_campus(const CampusParams& p);

}  // namespace smn::topology
