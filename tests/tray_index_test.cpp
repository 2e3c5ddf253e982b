// Tests for the tray index — the one owner of cable adjacency — against
// brute force: its tray-mates on every preset fabric, the wiring statistics
// built on it, and the cascade model's contact lists after runtime rewires.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "fault/cascade.h"
#include "runner/presets.h"
#include "sim/rng.h"
#include "test_util.h"
#include "topology/builders.h"
#include "topology/metrics.h"
#include "topology/tray_index.h"

namespace smn::topology {
namespace {

// Every fabric of the topologies, storage and survivability presets (keyed
// "<preset>:<cell name up to '/'>"), and one hall of each campus cell,
// including the campus preset's.
std::vector<std::pair<std::string, Blueprint>> preset_fabrics() {
  std::vector<std::pair<std::string, Blueprint>> out;
  for (const char* preset : {"topologies", "storage", "survivability", "campus"}) {
    const runner::SweepSpec spec = runner::make_sweep(preset, sim::Duration::days(1), 1, 1);
    for (const runner::CellSpec& cell : spec.cells) {
      const std::string key =
          std::string{preset} + ":" + cell.name.substr(0, cell.name.find('/'));
      if (std::any_of(out.begin(), out.end(), [&](const auto& f) { return f.first == key; })) {
        continue;
      }
      out.emplace_back(key, cell.is_campus() ? cell.campus.halls.front() : cell.blueprint);
    }
  }
  return out;
}

bool share_a_segment(const std::vector<TraySegment>& a, const std::vector<TraySegment>& b) {
  for (const TraySegment& s : a) {
    if (std::find(b.begin(), b.end(), s) != b.end()) return true;
  }
  return false;
}

// Tray-mates by pairwise intersection of the links' segment sets.
std::vector<std::vector<std::int32_t>> brute_force_mates(const Blueprint& bp) {
  const std::vector<LinkSpec>& links = bp.links();
  std::vector<std::vector<std::int32_t>> mates(links.size());
  for (std::size_t a = 0; a < links.size(); ++a) {
    for (std::size_t b = 0; b < links.size(); ++b) {
      if (a != b && share_a_segment(links[a].route.segments, links[b].route.segments)) {
        mates[a].push_back(static_cast<std::int32_t>(b));
      }
    }
  }
  return mates;
}

TEST(TrayIndex, MatesEqualPairwiseSegmentIntersectionOnPresetFabrics) {
  const auto fabrics = preset_fabrics();
  ASSERT_GE(fabrics.size(), 10u);
  std::vector<std::int32_t> got;
  for (const auto& [name, bp] : fabrics) {
    SCOPED_TRACE(name);
    const TrayIndex index{bp};
    const auto want = brute_force_mates(bp);
    std::size_t pairs = 0;
    for (std::size_t l = 0; l < want.size(); ++l) {
      index.mates(static_cast<std::int32_t>(l), got);
      EXPECT_EQ(got, want[l]) << "link " << l;
      pairs += got.size();
    }
    EXPECT_GT(pairs, 0u);
  }
}

TEST(WiringStats, TrayFiguresEqualBruteForceOnPresetFabrics) {
  for (const auto& [name, bp] : preset_fabrics()) {
    SCOPED_TRACE(name);
    std::map<TraySegment, int> occupancy;
    for (const LinkSpec& l : bp.links()) {
      for (const TraySegment& s : l.route.segments) ++occupancy[s];
    }
    double occ_sum = 0;
    double occ_max = 0;
    for (const auto& [seg, cables] : occupancy) {
      occ_sum += cables;
      occ_max = std::max(occ_max, static_cast<double>(cables));
    }
    double adj_sum = 0;
    double adj_max = 0;
    for (const auto& m : brute_force_mates(bp)) {
      adj_sum += static_cast<double>(m.size());
      adj_max = std::max(adj_max, static_cast<double>(m.size()));
    }
    const WiringStats st = compute_wiring_stats(bp);
    EXPECT_EQ(st.mean_tray_occupancy, occ_sum / static_cast<double>(occupancy.size()));
    EXPECT_EQ(st.max_tray_occupancy, occ_max);
    EXPECT_EQ(st.mean_adjacent_cables, adj_sum / static_cast<double>(bp.links().size()));
    EXPECT_EQ(st.max_adjacent_cables, adj_max);
  }
}

// Faceplate neighbours by a scan of every link: ends on `device` within the
// default radius of `target`'s port there.
std::vector<net::LinkId> brute_force_faceplate(const net::Network& net, net::LinkId target,
                                               net::DeviceId device) {
  const net::Link& t = net.link(target);
  const int port = t.end_a.device == device ? t.end_a.port : t.end_b.port;
  const int radius = fault::CascadeModel::Config{}.faceplate_radius;
  std::vector<net::LinkId> out;
  for (const net::Link& l : net.links()) {
    if (l.id == target) continue;
    for (const net::LinkEnd* end : {&l.end_a, &l.end_b}) {
      if (end->device == device && std::abs(end->port - port) <= radius) out.push_back(l.id);
    }
  }
  return out;
}

// Applies seeded random switch-to-switch rewires, with no other call in
// between, and checks every link's full-route contact list against faceplate
// ∪ tray-mates brute-forced from the network's current blueprint.
void expect_contacts_follow_rewires(const Blueprint& fabric) {
  sim::Simulator sim;
  net::Network net{fabric, testutil::short_aoc(), sim};
  fault::Environment env;
  sim::RngFactory rngs{17};
  fault::FaultInjector injector{net, env, rngs.stream("inj")};
  fault::CascadeModel cascade{net, env, injector, rngs.stream("cascade")};
  sim::RngStream pick = rngs.stream("rewire");

  std::vector<net::DeviceId> switches;
  for (const net::Device& d : net.devices()) {
    if (is_switch(d.role)) switches.push_back(d.id);
  }
  std::vector<net::LinkId> fabric_links;
  for (const net::Link& l : net.links()) {
    if (is_switch(net.device(l.end_a.device).role) &&
        is_switch(net.device(l.end_b.device).role)) {
      fabric_links.push_back(l.id);
    }
  }
  ASSERT_GE(switches.size(), 3u);
  ASSERT_FALSE(fabric_links.empty());

  auto check_all = [&](int round) {
    const Blueprint& bp = net.blueprint();
    const auto mates = brute_force_mates(bp);
    std::size_t stale = 0;
    for (const net::Link& l : net.links()) {
      const net::DeviceId at = l.end_a.device;
      std::vector<net::LinkId> want = brute_force_faceplate(net, l.id, at);
      std::vector<net::LinkId> faceplate;
      cascade.for_each_faceplate_neighbor(l.id, at,
                                          [&](net::LinkId lid) { faceplate.push_back(lid); });
      std::sort(faceplate.begin(), faceplate.end());
      EXPECT_EQ(faceplate, want);
      for (const std::int32_t m : mates[static_cast<std::size_t>(l.topology_link_index)]) {
        want.push_back(net::LinkId{m});
      }
      std::sort(want.begin(), want.end());
      want.erase(std::unique(want.begin(), want.end()), want.end());
      if (cascade.predicted_contacts(fault::Disturbance{l.id, at, 1.0, true}) != want) ++stale;
    }
    EXPECT_EQ(stale, 0u) << "after rewire round " << round << " of " << net.links().size()
                         << " links";
  };

  check_all(0);  // queries before any rewire, so a stale index would show
  for (int round = 1; round <= 4; ++round) {
    for (int i = 0; i < 5; ++i) {
      const net::LinkId lid = fabric_links[pick.index(fabric_links.size())];
      const net::DeviceId a = switches[pick.index(switches.size())];
      net::DeviceId b = a;
      while (b == a) b = switches[pick.index(switches.size())];
      net.rewire(lid, a, b);
    }
    check_all(round);
  }
}

TEST(CascadeAdjacency, ContactsFollowRewiresOnStandardHall) {
  expect_contacts_follow_rewires(runner::standard_fabric());
}

TEST(CascadeAdjacency, ContactsFollowRewiresOnFatTreeK8) {
  expect_contacts_follow_rewires(build_fat_tree({.k = 8}));
}

}  // namespace
}  // namespace smn::topology
