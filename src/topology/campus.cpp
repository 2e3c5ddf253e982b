#include "topology/campus.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace smn::topology {

void CampusBlueprint::validate() const {
  const int n = static_cast<int>(halls.size());
  for (const CrossHallLink& l : cross_links) {
    if (l.hall_a < 0 || l.hall_a >= n || l.hall_b < 0 || l.hall_b >= n) {
      throw std::logic_error{"campus cross link references hall outside [0, " +
                            std::to_string(n) + ")"};
    }
    if (l.hall_a == l.hall_b) {
      throw std::logic_error{"campus cross link is a self-loop on hall " +
                            std::to_string(l.hall_a)};
    }
    if (l.latency <= sim::Duration::zero()) {
      throw std::logic_error{
          "campus cross link latency must be > 0: it is the conservative lookahead "
          "bound for epoch barriers"};
    }
  }
}

CampusBlueprint build_campus(const CampusParams& p) {
  if (p.halls < 1) throw std::invalid_argument{"build_campus: halls must be >= 1"};
  CampusBlueprint campus;
  campus.name = "campus x" + std::to_string(p.halls);
  campus.halls.reserve(static_cast<std::size_t>(p.halls));
  for (int i = 0; i < p.halls; ++i) {
    Blueprint hall = build_leaf_spine(p.hall);
    campus.halls.push_back(std::move(hall));
  }

  auto trunk = [&](int a, int b) {
    CrossHallLink l;
    l.hall_a = a;
    l.hall_b = b;
    l.length_m = 2.0 * p.entry_run_m + std::abs(a - b) * p.hall_spacing_m;
    l.capacity_gbps = p.cross_capacity_gbps;
    const sim::Duration prop = sim::Duration::microseconds(
        static_cast<std::int64_t>(std::ceil(l.length_m * p.latency_us_per_m)));
    l.latency = prop < p.min_latency ? p.min_latency : prop;
    return l;
  };

  if (p.halls > 1) {
    if (p.ring) {
      for (int i = 0; i + 1 < p.halls; ++i) campus.cross_links.push_back(trunk(i, i + 1));
      if (p.halls > 2) campus.cross_links.push_back(trunk(0, p.halls - 1));  // wrap trunk
    } else {
      for (int i = 0; i < p.halls; ++i) {
        for (int j = i + 1; j < p.halls; ++j) campus.cross_links.push_back(trunk(i, j));
      }
    }
  }
  campus.validate();
  return campus;
}

}  // namespace smn::topology
