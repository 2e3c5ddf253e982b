// Randomized differential tests for the ConnectivityEngine: the engine's
// answers must be indistinguishable from the reference BFS
// (`path_available_bfs`) across thousands of random fault / repair / rewire /
// admin-down / device-health sequences on every topology preset and every
// PathPolicy class, and `sampled_pair_connectivity` must match its BFS twin
// bit for bit on the standard hall. Also pins the cache contract itself:
// query bursts against an unchanged network perform no rebuilds, and the
// parallel-link group index always matches a brute-force scan of the link
// table.
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <vector>

#include "net/connectivity.h"
#include "net/network.h"
#include "net/routing.h"
#include "runner/presets.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "topology/builders.h"

namespace smn::net {
namespace {

// The pre-engine shortest-path BFS, kept verbatim as the path oracle: the
// engine must return byte-identical paths, not merely paths of equal length.
std::vector<DeviceId> reference_shortest_path(const Network& net, DeviceId from,
                                              DeviceId to, const PathPolicy& policy) {
  if (from == to) return {from};
  const int n = static_cast<int>(net.devices().size());
  std::vector<int> parent(static_cast<size_t>(n), -2);
  std::queue<DeviceId> q;
  parent[static_cast<size_t>(from.value())] = -1;
  q.push(from);
  while (!q.empty()) {
    const DeviceId cur = q.front();
    q.pop();
    for (const LinkId lid : net.links_at(cur)) {
      const Link& l = net.link(lid);
      if (!link_usable(l, policy)) continue;
      const DeviceId peer = l.end_a.device == cur ? l.end_b.device : l.end_a.device;
      if (!net.device(peer).healthy) continue;
      auto& p = parent[static_cast<size_t>(peer.value())];
      if (p != -2) continue;
      p = cur.value();
      if (peer == to) {
        std::vector<DeviceId> path;
        DeviceId v = to;
        while (true) {
          path.push_back(v);
          const int pv = parent[static_cast<size_t>(v.value())];
          if (pv == -1) break;
          v = DeviceId{pv};
        }
        std::reverse(path.begin(), path.end());
        return path;
      }
      q.push(peer);
    }
  }
  return {};
}

const PathPolicy kPolicies[] = {
    {.use_flapping = true, .use_degraded = true},
    {.use_flapping = true, .use_degraded = false},
    {.use_flapping = false, .use_degraded = true},
    {.use_flapping = false, .use_degraded = false},
};

void expect_group_index_matches_brute_force(const Network& net) {
  // The cached group must reproduce the pre-cache implementation exactly: a
  // scan of `links_at(a)` filtered to links whose far end is `b`, in row
  // order — from either query direction.
  const auto brute = [&](DeviceId a, DeviceId b) {
    std::vector<LinkId> out;
    for (const LinkId lid : net.links_at(a)) {
      const Link& l = net.link(lid);
      const DeviceId peer = l.end_a.device == a ? l.end_b.device : l.end_a.device;
      if (peer == b) out.push_back(lid);
    }
    return out;
  };
  for (const Link& probe : net.links()) {
    ASSERT_EQ(net.links_between(probe.end_a.device, probe.end_b.device),
              brute(probe.end_a.device, probe.end_b.device));
    ASSERT_EQ(net.links_between(probe.end_b.device, probe.end_a.device),
              brute(probe.end_b.device, probe.end_a.device));
  }
}

void run_differential(const topology::Blueprint& bp, std::uint64_t seed, int ops) {
  sim::Simulator sim;
  Network net{bp, Network::Config{}, sim};
  sim::RngFactory rngs{seed};
  sim::RngStream rng = rngs.stream("connectivity.differential");

  const auto n_devices = net.devices().size();
  const auto n_links = net.links().size();
  ASSERT_GE(n_devices, 4u);
  ASSERT_GE(n_links, 4u);

  for (int op = 0; op < ops; ++op) {
    const int kind = static_cast<int>(rng.uniform_int(0, 5));
    const LinkId lid{static_cast<std::int32_t>(rng.index(n_links))};
    switch (kind) {
      case 0: {  // cable fault
        net.link_mut(lid).cable.intact = false;
        net.refresh_link(lid);
        break;
      }
      case 1: {  // full repair
        Link& l = net.link_mut(lid);
        l.cable = CableCondition{};
        l.end_a.condition = EndCondition{};
        l.end_b.condition = EndCondition{};
        l.admin_down = false;
        net.refresh_link(lid);
        break;
      }
      case 2: {  // contamination: exercises Degraded / Flapping classes
        net.link_mut(lid).end_a.condition.contamination = rng.uniform();
        net.refresh_link(lid);
        break;
      }
      case 3: {  // admin drain toggle
        Link& l = net.link_mut(lid);
        l.admin_down = !l.admin_down;
        net.refresh_link(lid);
        break;
      }
      case 4: {  // device health toggle
        const DeviceId dev{static_cast<std::int32_t>(rng.index(n_devices))};
        net.set_device_health(dev, !net.device(dev).healthy);
        break;
      }
      case 5: {  // rewire to random distinct endpoints
        const DeviceId a{static_cast<std::int32_t>(rng.index(n_devices))};
        DeviceId b = a;
        while (b == a) b = DeviceId{static_cast<std::int32_t>(rng.index(n_devices))};
        net.rewire(lid, a, b);
        break;
      }
      default: break;
    }

    for (const PathPolicy& policy : kPolicies) {
      for (int pair = 0; pair < 6; ++pair) {
        const DeviceId a{static_cast<std::int32_t>(rng.index(n_devices))};
        const DeviceId b{static_cast<std::int32_t>(rng.index(n_devices))};
        const bool want = path_available_bfs(net, a, b, policy);
        ASSERT_EQ(net.connectivity().connected(a, b, policy), want)
            << "op " << op << " kind " << kind << " pair " << a.value() << "->"
            << b.value() << " flapping=" << policy.use_flapping
            << " degraded=" << policy.use_degraded;
        ASSERT_EQ(net.connectivity().shortest_path(a, b, policy),
                  reference_shortest_path(net, a, b, policy))
            << "op " << op << " kind " << kind << " pair " << a.value() << "->"
            << b.value();
      }
    }
    if (op % 50 == 0) {
      expect_group_index_matches_brute_force(net);
      net.check_invariants();
    }
  }
}

TEST(ConnectivityDifferential, LeafSpine) {
  run_differential(topology::build_leaf_spine({.leaves = 4, .spines = 2,
                                               .servers_per_leaf = 2,
                                               .uplinks_per_spine = 2}),
                   101, 400);
}

TEST(ConnectivityDifferential, FatTree) {
  run_differential(topology::build_fat_tree({.k = 4}), 202, 400);
}

TEST(ConnectivityDifferential, Jellyfish) {
  run_differential(
      topology::build_jellyfish({.switches = 10, .network_degree = 4, .servers_per_switch = 2}),
      303, 400);
}

TEST(ConnectivityDifferential, Xpander) {
  run_differential(
      topology::build_xpander({.network_degree = 3, .lift = 3, .servers_per_switch = 2}),
      404, 400);
}

TEST(ConnectivityDifferential, GpuCluster) {
  run_differential(topology::build_gpu_cluster({.gpu_servers = 8, .rails = 4, .spines = 2}),
                   505, 400);
}

// Both samplers draw the same pairs from the stream, so identically seeded
// streams must yield bit-identical fractions round after round and leave the
// two streams in the same state. `down_every` > 0 cuts every n-th link's cable
// first (bench_e12_micro's degraded plant uses 7).
void expect_sampled_pairs_match_bfs(std::size_t down_every) {
  sim::Simulator sim;
  const topology::Blueprint bp = runner::standard_fabric();
  Network net{bp, Network::Config{}, sim};
  if (down_every > 0) {
    for (std::size_t i = 0; i < net.links().size(); i += down_every) {
      net.link_mut(LinkId{static_cast<std::int32_t>(i)}).cable.intact = false;
    }
    net.refresh_all();
  }
  sim::RngFactory rngs{7};
  sim::RngStream engine_rng = rngs.stream("sampled-pairs");
  sim::RngStream bfs_rng = rngs.stream("sampled-pairs");
  double lowest = 1.0;
  for (int round = 0; round < 64; ++round) {
    const double engine = sampled_pair_connectivity(net, engine_rng, 64);
    ASSERT_EQ(engine, sampled_pair_connectivity_bfs(net, bfs_rng, 64)) << "round " << round;
    lowest = std::min(lowest, engine);
  }
  EXPECT_TRUE(engine_rng.engine() == bfs_rng.engine());
  // A degraded plant must actually strand some sampled pairs, or the
  // comparison above could not tell a wrong engine from a right one.
  if (down_every > 0) {
    EXPECT_LT(lowest, 1.0);
  }
}

TEST(ConnectivityDifferential, SampledPairsMatchBfsPristineStandardFabric) {
  expect_sampled_pairs_match_bfs(0);
}

TEST(ConnectivityDifferential, SampledPairsMatchBfsDegradedStandardFabric) {
  expect_sampled_pairs_match_bfs(7);
}

TEST(ConnectivityEngineTest, QueryBurstAgainstQuietNetworkRebuildsOnce) {
  sim::Simulator sim;
  const topology::Blueprint bp = topology::build_leaf_spine(
      {.leaves = 4, .spines = 2, .servers_per_leaf = 3, .uplinks_per_spine = 2});
  Network net{bp, Network::Config{}, sim};
  ConnectivityEngine& engine = net.connectivity();

  const std::uint64_t before = engine.rebuilds();
  const auto& servers = net.servers();
  for (std::size_t i = 0; i < servers.size(); ++i) {
    for (std::size_t j = 0; j < servers.size(); ++j) {
      EXPECT_TRUE(engine.connected(servers[i], servers[j]));
    }
  }
  // One forest build for the queried policy class, however many queries.
  EXPECT_EQ(engine.rebuilds(), before + 1);

  // A state change invalidates: next query rebuilds exactly once more.
  net.link_mut(LinkId{0}).cable.intact = false;
  net.refresh_link(LinkId{0});
  EXPECT_TRUE(engine.connected(servers[0], servers[0]));  // self: no rebuild needed
  EXPECT_EQ(engine.rebuilds(), before + 1);
  (void)engine.connected(servers[0], servers[1]);
  EXPECT_EQ(engine.rebuilds(), before + 2);
}

TEST(ConnectivityEngineTest, PolicyClassesInvalidateIndependently) {
  sim::Simulator sim;
  const topology::Blueprint bp = topology::build_leaf_spine(
      {.leaves = 2, .spines = 2, .servers_per_leaf = 2, .uplinks_per_spine = 1});
  Network net{bp, Network::Config{}, sim};
  ConnectivityEngine& engine = net.connectivity();
  const DeviceId a = net.servers()[0];
  const DeviceId b = net.servers()[1];

  const PathPolicy strict{.use_flapping = false, .use_degraded = false};
  (void)engine.connected(a, b);          // builds the default-policy forest
  (void)engine.connected(a, b, strict);  // builds the strict forest
  const std::uint64_t built = engine.rebuilds();
  (void)engine.connected(a, b);
  (void)engine.connected(a, b, strict);
  EXPECT_EQ(engine.rebuilds(), built);  // both still fresh
}

TEST(ConnectivityEngineTest, CsrAdjacencyMirrorsJaggedIndex) {
  sim::Simulator sim;
  const topology::Blueprint bp = topology::build_fat_tree({.k = 4});
  Network net{bp, Network::Config{}, sim};
  const CsrAdjacency& adj = net.adjacency();
  ASSERT_EQ(adj.offsets.size(), net.devices().size() + 1);
  ASSERT_EQ(adj.peer.size(), net.links().size() * 2);
  for (const Device& d : net.devices()) {
    const auto [begin, end] = adj.row(d.id);
    const auto& row = net.links_at(d.id);
    ASSERT_EQ(static_cast<std::size_t>(end - begin), row.size());
    for (std::size_t k = 0; k < row.size(); ++k) {
      EXPECT_EQ(adj.link[static_cast<std::size_t>(begin) + k], row[k]);
      const Link& l = net.link(row[k]);
      const DeviceId expect_peer =
          l.end_a.device == d.id ? l.end_b.device : l.end_a.device;
      EXPECT_EQ(adj.peer[static_cast<std::size_t>(begin) + k], expect_peer);
    }
  }

  // Rewire invalidates and the rebuilt CSR tracks the new endpoints.
  const LinkId moved{0};
  const DeviceId na{static_cast<std::int32_t>(net.devices().size() - 1)};
  const DeviceId nb{static_cast<std::int32_t>(net.devices().size() - 2)};
  net.rewire(moved, na, nb);
  const CsrAdjacency& fresh = net.adjacency();
  const auto [begin, end] = fresh.row(na);
  bool found = false;
  for (std::int32_t k = begin; k < end; ++k) {
    if (fresh.link[static_cast<std::size_t>(k)] == moved) found = true;
  }
  EXPECT_TRUE(found);
  net.check_invariants();
}

}  // namespace
}  // namespace smn::net
