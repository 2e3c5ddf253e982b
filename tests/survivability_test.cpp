// Differential and property tests for the survivability frontier engine.
//
// The core contract: the incremental reverse-replay union-find engine must be
// BIT-IDENTICAL to a verbatim brute-force oracle that re-runs BFS over the
// surviving graph after every single failure step — across every topology
// preset, both failure modes, and hundreds of seeded orderings. The oracle
// shares nothing with the engine except the published curve definitions and
// the capacity quantization helper, so any bookkeeping shortcut the engine
// takes has to reproduce the ground truth exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "analysis/stats.h"
#include "analysis/survivability.h"
#include "runner/presets.h"
#include "sim/rng.h"
#include "topology/builders.h"

namespace smn {
namespace {

using analysis::FailureMode;
using analysis::FrontierResult;
using analysis::SurvivabilityCurves;
using analysis::SurvivabilityFrontier;

// -------------------------------------------------------------------------
// Brute-force oracle: full BFS recompute at every failure step.

struct OracleStep {
  std::int32_t largest = 0;        // devices in the largest alive component
  std::int32_t max_servers = 0;    // most servers in any alive component
  std::uint64_t server_cut = 0;    // crossing capacity in server components
};

/// Metrics of the alive graph: `node_alive` marks devices, `link_failed`
/// marks explicitly failed links (a link is active iff not failed and both
/// endpoints alive).
[[nodiscard]] OracleStep oracle_step(const topology::Blueprint& bp,
                                     const std::vector<std::uint8_t>& node_alive,
                                     const std::vector<std::uint8_t>& link_failed) {
  const std::vector<topology::NodeSpec>& nodes = bp.nodes();
  const std::vector<topology::LinkSpec>& links = bp.links();
  const std::vector<std::vector<std::pair<int, int>>> adjacency = bp.adjacency();
  OracleStep out;
  std::vector<std::uint8_t> visited(nodes.size(), 0);
  std::vector<int> queue;
  for (std::size_t start = 0; start < nodes.size(); ++start) {
    if (visited[start] != 0 || node_alive[start] == 0) continue;
    // BFS one component.
    std::int32_t size = 0;
    std::int32_t servers = 0;
    std::uint64_t cut = 0;
    queue.clear();
    queue.push_back(static_cast<int>(start));
    visited[start] = 1;
    while (!queue.empty()) {
      const int node = queue.back();
      queue.pop_back();
      ++size;
      if (!topology::is_switch(nodes[static_cast<std::size_t>(node)].role)) ++servers;
      for (const auto& [peer, link] : adjacency[static_cast<std::size_t>(node)]) {
        if (link_failed[static_cast<std::size_t>(link)] != 0) continue;
        if (node_alive[static_cast<std::size_t>(peer)] == 0) continue;
        const topology::LinkSpec& l = links[static_cast<std::size_t>(link)];
        // Count each active link once (from its lower endpoint) toward the
        // component's checkerboard-crossing capacity.
        if (node == std::min(l.node_a, l.node_b) && (l.node_a & 1) != (l.node_b & 1)) {
          cut += SurvivabilityFrontier::capacity_units(l.capacity_gbps);
        }
        if (visited[static_cast<std::size_t>(peer)] == 0) {
          visited[static_cast<std::size_t>(peer)] = 1;
          queue.push_back(peer);
        }
      }
    }
    out.largest = std::max(out.largest, size);
    out.max_servers = std::max(out.max_servers, servers);
    if (servers > 0) out.server_cut += cut;
  }
  return out;
}

/// The naive frontier: for every k, rebuild the alive sets from scratch and
/// BFS the whole surviving graph. O(M^2 * (V + E)) per ordering; verbatim
/// implementation of the curve definitions in analysis/survivability.h.
[[nodiscard]] SurvivabilityCurves oracle_curves(const topology::Blueprint& bp, FailureMode mode,
                                                std::span<const std::int32_t> order) {
  const std::vector<topology::NodeSpec>& nodes = bp.nodes();
  std::vector<std::int32_t> switch_nodes;
  std::size_t servers = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (topology::is_switch(nodes[i].role)) {
      switch_nodes.push_back(static_cast<std::int32_t>(i));
    } else {
      ++servers;
    }
  }
  const std::size_t m =
      mode == FailureMode::kLinks ? bp.links().size() : switch_nodes.size();
  std::vector<OracleStep> raw(m + 1);
  for (std::size_t k = 0; k <= m; ++k) {
    std::vector<std::uint8_t> node_alive(nodes.size(), 1);
    std::vector<std::uint8_t> link_failed(bp.links().size(), 0);
    for (std::size_t i = 0; i < k; ++i) {
      if (mode == FailureMode::kLinks) {
        link_failed[static_cast<std::size_t>(order[i])] = 1;
      } else {
        node_alive[static_cast<std::size_t>(
            switch_nodes[static_cast<std::size_t>(order[i])])] = 0;
      }
    }
    raw[k] = oracle_step(bp, node_alive, link_failed);
  }

  SurvivabilityCurves out;
  out.largest_component.resize(m + 1);
  out.server_reachability.resize(m + 1);
  out.bisection.resize(m + 1);
  const double device_den = static_cast<double>(nodes.size());
  const double server_den = static_cast<double>(servers);
  const std::uint64_t pristine_cut = raw[0].server_cut;
  for (std::size_t k = 0; k <= m; ++k) {
    out.largest_component[k] = static_cast<double>(raw[k].largest) / device_den;
    out.server_reachability[k] =
        servers > 0 ? static_cast<double>(raw[k].max_servers) / server_den : 1.0;
    out.bisection[k] = pristine_cut > 0 ? static_cast<double>(raw[k].server_cut) /
                                              static_cast<double>(pristine_cut)
                                        : 1.0;
  }
  return out;
}

// -------------------------------------------------------------------------
// Test fabrics: one per preset family (sized so the O(M^2) oracle stays
// fast), a hybrid to cover the Watts-Strogatz builder, and the 144-link
// standard hall, which is still small enough for the oracle.

struct NamedFabric {
  std::string name;
  topology::Blueprint bp;
};

[[nodiscard]] std::vector<NamedFabric> test_fabrics() {
  std::vector<NamedFabric> fabrics;
  fabrics.push_back({"leaf-spine", topology::build_leaf_spine({.leaves = 4,
                                                               .spines = 2,
                                                               .servers_per_leaf = 2})});
  fabrics.push_back({"fat-tree", topology::build_fat_tree({.k = 4})});
  fabrics.push_back({"jellyfish", topology::build_jellyfish({.switches = 12,
                                                             .network_degree = 4,
                                                             .servers_per_switch = 2,
                                                             .seed = 3})});
  fabrics.push_back({"xpander", topology::build_xpander({.network_degree = 3,
                                                         .lift = 3,
                                                         .servers_per_switch = 2,
                                                         .seed = 3})});
  fabrics.push_back(
      {"gpu", topology::build_gpu_cluster({.gpu_servers = 6, .rails = 3, .spines = 2})});
  fabrics.push_back({"hybrid", topology::build_hybrid({.switches = 12,
                                                       .lattice_neighbors = 4,
                                                       .rewire_fraction = 0.3,
                                                       .servers_per_switch = 2,
                                                       .seed = 3})});
  fabrics.push_back({"standard", runner::standard_fabric()});
  return fabrics;
}

constexpr FailureMode kModes[] = {FailureMode::kLinks, FailureMode::kSwitches};

// -------------------------------------------------------------------------
// The differential suite: engine == oracle, bit for bit, at every point.

TEST(SurvivabilityDifferential, EngineMatchesBruteForceOracleExactly) {
  constexpr int kOrderingsPerCombo = 20;  // 7 fabrics x 2 modes x 20 = 280 orderings
  for (const NamedFabric& f : test_fabrics()) {
    SurvivabilityFrontier engine{f.bp};
    SurvivabilityCurves engine_curves;
    std::vector<std::int32_t> order;
    for (const FailureMode mode : kModes) {
      const std::size_t m = engine.element_count(mode);
      for (int i = 0; i < kOrderingsPerCombo; ++i) {
        const std::uint64_t seed =
            SurvivabilityFrontier::mix_seed(1000 + static_cast<std::uint64_t>(i), m);
        engine.make_ordering(mode, seed, order);
        engine.replay(mode, order, engine_curves);
        const SurvivabilityCurves oracle = oracle_curves(f.bp, mode, order);
        ASSERT_EQ(engine_curves.largest_component.size(), m + 1) << f.name;
        ASSERT_EQ(oracle.largest_component.size(), m + 1) << f.name;
        for (std::size_t k = 0; k <= m; ++k) {
          // Exact double equality on purpose: both sides divide the same two
          // exactly-maintained integers.
          ASSERT_EQ(engine_curves.largest_component[k], oracle.largest_component[k])
              << f.name << " " << analysis::to_string(mode) << " seed " << seed << " k=" << k;
          ASSERT_EQ(engine_curves.server_reachability[k], oracle.server_reachability[k])
              << f.name << " " << analysis::to_string(mode) << " seed " << seed << " k=" << k;
          ASSERT_EQ(engine_curves.bisection[k], oracle.bisection[k])
              << f.name << " " << analysis::to_string(mode) << " seed " << seed << " k=" << k;
        }
      }
    }
  }
}

// Adversarial orderings the random shuffle is unlikely to produce: identity,
// reversed, and even/odd interleaved.
TEST(SurvivabilityDifferential, EngineMatchesOracleOnStructuredOrderings) {
  for (const NamedFabric& f : test_fabrics()) {
    SurvivabilityFrontier engine{f.bp};
    SurvivabilityCurves engine_curves;
    for (const FailureMode mode : kModes) {
      const std::size_t m = engine.element_count(mode);
      std::vector<std::int32_t> identity(m);
      for (std::size_t i = 0; i < m; ++i) identity[i] = static_cast<std::int32_t>(i);
      std::vector<std::int32_t> reversed(identity.rbegin(), identity.rend());
      std::vector<std::int32_t> interleaved;
      for (std::size_t i = 0; i < m; i += 2) interleaved.push_back(static_cast<std::int32_t>(i));
      for (std::size_t i = 1; i < m; i += 2) interleaved.push_back(static_cast<std::int32_t>(i));
      for (const std::vector<std::int32_t>& order : {identity, reversed, interleaved}) {
        engine.replay(mode, order, engine_curves);
        const SurvivabilityCurves oracle = oracle_curves(f.bp, mode, order);
        EXPECT_EQ(engine_curves.largest_component, oracle.largest_component) << f.name;
        EXPECT_EQ(engine_curves.server_reachability, oracle.server_reachability) << f.name;
        EXPECT_EQ(engine_curves.bisection, oracle.bisection) << f.name;
      }
    }
  }
}

// -------------------------------------------------------------------------
// Property tests.

TEST(SurvivabilityProperty, CurvesAreMonotoneNonIncreasing) {
  for (const NamedFabric& f : test_fabrics()) {
    SurvivabilityFrontier engine{f.bp};
    SurvivabilityCurves curves;
    std::vector<std::int32_t> order;
    for (const FailureMode mode : kModes) {
      for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        engine.make_ordering(mode, seed, order);
        engine.replay(mode, order, curves);
        for (const std::vector<double>* curve :
             {&curves.largest_component, &curves.server_reachability, &curves.bisection}) {
          for (std::size_t k = 1; k < curve->size(); ++k) {
            ASSERT_LE((*curve)[k], (*curve)[k - 1])
                << f.name << " " << analysis::to_string(mode) << " seed " << seed
                << " not monotone at k=" << k;
          }
        }
        // Endpoints: pristine state is full capability by definition.
        EXPECT_EQ(curves.largest_component[0], 1.0) << f.name;
        EXPECT_EQ(curves.server_reachability[0], 1.0) << f.name;
        EXPECT_EQ(curves.bisection[0], 1.0) << f.name;
      }
    }
  }
}

TEST(SurvivabilityProperty, AggregationIsPermutationInvariantOverOrderingSeeds) {
  const topology::Blueprint bp =
      topology::build_leaf_spine({.leaves = 4, .spines = 2, .servers_per_leaf = 2});
  SurvivabilityFrontier engine{bp};
  std::vector<std::uint64_t> seeds = SurvivabilityFrontier::ordering_seeds(42, 12);
  for (const FailureMode mode : kModes) {
    const FrontierResult forward = engine.compute(mode, seeds);
    std::vector<std::uint64_t> shuffled = seeds;
    sim::RngStream rng{7};
    rng.shuffle(shuffled);
    ASSERT_NE(shuffled, seeds);  // the permutation must actually permute
    const FrontierResult permuted = engine.compute(mode, shuffled);
    EXPECT_EQ(forward.hash, permuted.hash);
    EXPECT_EQ(forward.largest_component.mean, permuted.largest_component.mean);
    EXPECT_EQ(forward.largest_component.ci95, permuted.largest_component.ci95);
    EXPECT_EQ(forward.server_reachability.mean, permuted.server_reachability.mean);
    EXPECT_EQ(forward.bisection.mean, permuted.bisection.mean);
    EXPECT_EQ(forward.auc_connectivity, permuted.auc_connectivity);
    EXPECT_EQ(forward.auc_reachability, permuted.auc_reachability);
    EXPECT_EQ(forward.auc_bisection, permuted.auc_bisection);
  }
}

TEST(SurvivabilityProperty, AggregationMatchesPerPointSampleStatsBitForBit) {
  // aggregate_curves solves the t quantile once per call; the reference
  // below is the per-point form it replaced: a fresh SampleStats per point,
  // fed in sorted order, asked for mean() and ci95(). Curves mix random
  // values with two-valued points (many ties) and constant points, where the
  // variance sits on its clamp at zero.
  constexpr std::size_t kElements = 24;
  constexpr std::size_t kPoints = kElements + 1;
  sim::RngStream rng{20261019};
  for (const std::size_t n : {1u, 2u, 3u, 4u, 16u, 40u}) {
    std::vector<SurvivabilityCurves> samples(n);
    for (SurvivabilityCurves& c : samples) {
      for (std::vector<double>* curve :
           {&c.largest_component, &c.server_reachability, &c.bisection}) {
        curve->resize(kPoints);
        for (std::size_t k = 0; k < kPoints; ++k) {
          (*curve)[k] = k % 5 == 0   ? 0.1
                        : k % 5 == 1 ? (rng.uniform() < 0.5 ? 0.25 : 0.75)
                                     : rng.uniform();
        }
      }
    }
    const FrontierResult got =
        analysis::aggregate_curves(FailureMode::kLinks, kElements, 10, 4, samples);
    ASSERT_EQ(got.samples, n);
    const auto expect_bits = [&](auto member, const analysis::CurveSummary& summary) {
      ASSERT_EQ(summary.mean.size(), kPoints);
      for (std::size_t k = 0; k < kPoints; ++k) {
        std::vector<double> sorted;
        for (const SurvivabilityCurves& c : samples) sorted.push_back((c.*member)[k]);
        std::sort(sorted.begin(), sorted.end());
        analysis::SampleStats stats;
        for (const double v : sorted) stats.push(v);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(summary.mean[k]),
                  std::bit_cast<std::uint64_t>(stats.mean()))
            << "n " << n << " point " << k;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(summary.ci95[k]),
                  std::bit_cast<std::uint64_t>(stats.ci95()))
            << "n " << n << " point " << k;
      }
    };
    expect_bits(&SurvivabilityCurves::largest_component, got.largest_component);
    expect_bits(&SurvivabilityCurves::server_reachability, got.server_reachability);
    expect_bits(&SurvivabilityCurves::bisection, got.bisection);
  }
}

TEST(SurvivabilityProperty, ComputeIsDeterministicAndSeedSensitive) {
  const topology::Blueprint bp = topology::build_fat_tree({.k = 4});
  SurvivabilityFrontier engine{bp};
  analysis::SurvivabilityConfig cfg;
  cfg.enabled = true;
  cfg.orderings = 8;
  cfg.seed = 5;
  const FrontierResult a = engine.compute(cfg);
  const FrontierResult b = engine.compute(cfg);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.largest_component.mean, b.largest_component.mean);
  cfg.seed = 6;
  const FrontierResult c = engine.compute(cfg);
  EXPECT_NE(a.hash, c.hash);  // different orderings, different mean curves
}

TEST(SurvivabilityProperty, MakeOrderingIsAPermutation) {
  const topology::Blueprint bp = topology::build_leaf_spine({.leaves = 4, .spines = 2});
  SurvivabilityFrontier engine{bp};
  std::vector<std::int32_t> order;
  for (const FailureMode mode : kModes) {
    engine.make_ordering(mode, 99, order);
    ASSERT_EQ(order.size(), engine.element_count(mode));
    std::vector<std::int32_t> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      ASSERT_EQ(sorted[i], static_cast<std::int32_t>(i));
    }
  }
}

TEST(SurvivabilityProperty, EmptySeedListYieldsAbsentResult) {
  const topology::Blueprint bp = topology::build_leaf_spine({.leaves = 4, .spines = 2});
  SurvivabilityFrontier engine{bp};
  const FrontierResult r = engine.compute(FailureMode::kLinks, {});
  EXPECT_FALSE(r.present());
  EXPECT_EQ(r.samples, 0u);
  EXPECT_TRUE(r.largest_component.mean.empty());
  EXPECT_EQ(r.auc_connectivity, 0.0);
}

TEST(SurvivabilityProperty, ScalarSummariesMatchCurves) {
  const topology::Blueprint bp = topology::build_fat_tree({.k = 4});
  SurvivabilityFrontier engine{bp};
  analysis::SurvivabilityConfig cfg;
  cfg.enabled = true;
  cfg.orderings = 8;
  const FrontierResult r = engine.compute(cfg);
  EXPECT_EQ(analysis::curve_value_at(r.largest_component, 0.0), r.largest_component.mean.front());
  EXPECT_EQ(analysis::curve_value_at(r.largest_component, 1.0), r.largest_component.mean.back());
  // AUC of a monotone curve from 1.0 downward lives strictly inside (0, 1].
  EXPECT_GT(r.auc_connectivity, 0.0);
  EXPECT_LE(r.auc_connectivity, 1.0);
  EXPECT_GT(r.auc_bisection, 0.0);
  EXPECT_LE(r.auc_bisection, 1.0);
}

TEST(SurvivabilityProperty, RejectsEmptyBlueprintAndExposesCounts) {
  const topology::Blueprint empty{topology::PhysicalLayout{topology::PhysicalLayout::Config{}},
                                  "empty"};
  EXPECT_THROW(SurvivabilityFrontier{empty}, std::invalid_argument);
  const topology::Blueprint bp = topology::build_leaf_spine({.leaves = 4, .spines = 2});
  SurvivabilityFrontier engine{bp};
  // element_count: every link / every switch is failable.
  EXPECT_EQ(engine.element_count(FailureMode::kLinks), bp.links().size());
  EXPECT_EQ(engine.element_count(FailureMode::kSwitches), bp.switch_count());
  EXPECT_EQ(engine.device_count(), bp.nodes().size());
  EXPECT_EQ(engine.server_count(), bp.server_count());
}

TEST(SurvivabilityProperty, HybridBuilderValidatesParamsAndRewireDial) {
  EXPECT_THROW(topology::build_hybrid({.switches = 2}), std::invalid_argument);
  EXPECT_THROW(topology::build_hybrid({.switches = 8, .lattice_neighbors = 3}),
               std::invalid_argument);
  EXPECT_THROW(topology::build_hybrid({.switches = 8, .rewire_fraction = 1.5}),
               std::invalid_argument);
  // beta = 0 is a pure ring lattice: switch-switch edge count is exactly
  // n * neighbors / 2, and the fabric is deterministic in the seed.
  const topology::HybridParams lattice{.switches = 12,
                                       .lattice_neighbors = 4,
                                       .rewire_fraction = 0.0,
                                       .servers_per_switch = 2,
                                       .seed = 9};
  const topology::Blueprint a = topology::build_hybrid(lattice);
  const topology::Blueprint b = topology::build_hybrid(lattice);
  EXPECT_EQ(a.links().size(), b.links().size());
  const std::size_t fabric_links = a.links().size() - a.server_count();
  EXPECT_EQ(fabric_links, 12u * 4u / 2u);
  // Rewiring keeps the edge count (WS rewires, never adds or removes).
  topology::HybridParams rewired = lattice;
  rewired.rewire_fraction = 0.5;
  const topology::Blueprint c = topology::build_hybrid(rewired);
  EXPECT_EQ(c.links().size(), a.links().size());
}

}  // namespace
}  // namespace smn
