#include "topology/metrics.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_map>
#include <vector>

#include "topology/tray_index.h"

namespace smn::topology {

WiringStats compute_wiring_stats(const Blueprint& bp) {
  WiringStats st;
  st.links = bp.links().size();
  if (st.links == 0) return st;

  std::set<long> length_classes;
  std::set<std::pair<long, long>> rack_pairs;
  auto rack_key = [](const RackLocation& loc) {
    return (static_cast<long>(loc.hall) << 40) ^ (static_cast<long>(loc.row) << 20) ^ loc.rack;
  };

  for (int li = 0; li < static_cast<int>(bp.links().size()); ++li) {
    const LinkSpec& l = bp.link(li);
    const auto& loc_a = bp.node(l.node_a).location;
    const auto& loc_b = bp.node(l.node_b).location;
    if (loc_a.same_rack(loc_b)) {
      ++st.in_rack;
    } else {
      if (loc_a.same_row(loc_b)) {
        ++st.same_row;
      } else {
        ++st.cross_row;
      }
      ++st.out_of_rack_cables;
      const long ka = rack_key(loc_a);
      const long kb = rack_key(loc_b);
      rack_pairs.insert({std::min(ka, kb), std::max(ka, kb)});
    }
    st.total_length_m += l.route.length_m;
    st.max_length_m = std::max(st.max_length_m, l.route.length_m);
    length_classes.insert(static_cast<long>(std::ceil(l.route.length_m)));
  }
  st.mean_length_m = st.total_length_m / static_cast<double>(st.links);
  st.length_classes = length_classes.size();
  st.distinct_rack_pairs = rack_pairs.size();

  const TrayIndex trays{bp};
  for (std::size_t seg = 0; seg < trays.segment_count(); ++seg) {
    const auto cables = static_cast<double>(trays.occupancy(seg));
    st.mean_tray_occupancy += cables;
    st.max_tray_occupancy = std::max(st.max_tray_occupancy, cables);
  }
  if (trays.segment_count() > 0) {
    st.mean_tray_occupancy /= static_cast<double>(trays.segment_count());
  }

  // Adjacency: for each cable, the other cables sharing a segment.
  std::vector<std::int32_t> mates;
  for (std::size_t li = 0; li < st.links; ++li) {
    trays.mates(static_cast<std::int32_t>(li), mates);
    const auto adjacent = static_cast<double>(mates.size());
    st.mean_adjacent_cables += adjacent;
    st.max_adjacent_cables = std::max(st.max_adjacent_cables, adjacent);
  }
  st.mean_adjacent_cables /= static_cast<double>(st.links);
  return st;
}

SelfMaintainability compute_self_maintainability(const Blueprint& bp) {
  const WiringStats st = compute_wiring_stats(bp);
  SelfMaintainability m;
  if (st.links == 0) return m;

  const double n_links = static_cast<double>(st.links);

  // Reachability: in-rack cables are serviceable by a rack-scope robot (1.0),
  // same-row by a row gantry (0.8), cross-row needs hall-scope mobility (0.5).
  m.reachability = (static_cast<double>(st.in_rack) * 1.0 +
                    static_cast<double>(st.same_row) * 0.8 +
                    static_cast<double>(st.cross_row) * 0.5) / n_links;

  // Occlusion: tray congestion makes perception and cable separation harder.
  // Log scale: doubling the cables in a tray costs a fixed increment; ~4096
  // cables in one segment is treated as fully occluded.
  m.occlusion = std::clamp(1.0 - std::log2(1.0 + st.max_tray_occupancy) / 12.0, 0.0, 1.0);

  // Uniformity: each distinct cable SKU adds recognition/grasp/spares burden.
  // One SKU per 4 links is treated as worst-case diversity.
  const double sku_ratio = static_cast<double>(st.length_classes) / n_links;
  m.uniformity = std::clamp(1.0 - sku_ratio * 4.0, 0.0, 1.0);

  // Blast radius: how many cables a single maintenance touch can disturb
  // (log scale, ~4096 neighbours = certain collateral damage).
  m.blast_radius =
      std::clamp(1.0 - std::log2(1.0 + st.mean_adjacent_cables) / 12.0, 0.0, 1.0);

  // Bundleability: cables sharing an identical rack-to-rack route deploy and
  // service as one loom (§4's wiring-loom argument). 1 = perfectly bundled.
  m.bundling = st.out_of_rack_cables == 0
                   ? 1.0
                   : 1.0 - static_cast<double>(st.distinct_rack_pairs) /
                               static_cast<double>(st.out_of_rack_cables);

  // Port density: ports that must be manipulated per rack — crowded faceplates
  // mean less clearance for grippers (paper §3.4). 256 ports/rack is worst.
  std::unordered_map<long, int> ports_per_rack;
  for (const NodeSpec& n : bp.nodes()) {
    const long rack_key = (static_cast<long>(n.location.hall) << 40) ^
                          (static_cast<long>(n.location.row) << 20) ^ n.location.rack;
    ports_per_rack[rack_key] += n.ports_used;
  }
  double max_ports = 0;
  for (const auto& [rack, ports] : ports_per_rack) {
    max_ports = std::max(max_ports, static_cast<double>(ports));
  }
  m.port_density = std::clamp(1.0 - max_ports / 256.0, 0.0, 1.0);

  // Composite: bundling carries the largest weight — the paper attributes
  // non-deployment of expander fabrics to wiring-loom complexity — followed
  // by reachability and blast radius, which gate whether robots can service
  // the plant at all and how safely.
  m.score = 100.0 * (0.20 * m.reachability + 0.10 * m.occlusion + 0.10 * m.uniformity +
                     0.15 * m.blast_radius + 0.10 * m.port_density + 0.35 * m.bundling);
  return m;
}

}  // namespace smn::topology
