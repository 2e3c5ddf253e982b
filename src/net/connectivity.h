// Incremental connectivity engine: generation-stamped reachability cache.
//
// Every availability number in the repro is a function of reachability
// queries — `path_available`, `sampled_pair_connectivity`, the migration and
// reconfiguration safety checks — and a from-scratch BFS per query made the
// per-replicate hot path the sweep engine's bottleneck. This engine answers
// `connected(a, b)` from a union-find forest over the usable links of the
// queried PathPolicy class, rebuilt lazily on the first query after the
// network reports a change, so a burst of queries against an unchanged
// network costs near-O(α) each instead of O(V+E).
//
// Invalidation rules (see Network's generation counters):
//   * state generation   — bumped whenever any link's derived state changes
//     (fault, repair, contamination threshold crossing, admin drain, device
//     or line-card health: all of these flow through Network::refresh_link).
//   * structure generation — bumped on Network::rewire (endpoints changed).
// A forest is fresh iff both stamps match; each of the four PathPolicy
// classes carries its own stamps, so policies invalidate independently.
//
// The engine is a PURE CACHE: it never draws randomness, never schedules
// events, and its answers are byte-identical to the reference BFS
// (`path_available_bfs`) — the randomized differential test in
// tests/connectivity_test.cpp holds it to that across fault/repair/rewire/
// admin-down sequences on every topology preset. One engine lives per
// Network (hence per World), so sweep workers share no mutable state.
#pragma once

#include <cstdint>
#include <vector>

#include "net/disjoint_set.h"
#include "net/link.h"
#include "net/types.h"

namespace smn::net {

class Network;

class ConnectivityEngine {
 public:
  explicit ConnectivityEngine(const Network& net);

  ConnectivityEngine(const ConnectivityEngine&) = delete;
  ConnectivityEngine& operator=(const ConnectivityEngine&) = delete;

  /// True iff `a` and `b` are mutually reachable over links usable under
  /// `policy`. Near-O(α) amortized; O(V + E) on the first query after a
  /// network change (forest rebuild).
  [[nodiscard]] bool connected(DeviceId a, DeviceId b, const PathPolicy& policy = {});

  /// BFS shortest path by hop count; empty if unreachable. Identical output
  /// to the pre-engine BFS, but runs on the CSR adjacency with reusable
  /// scratch (no per-call allocation beyond the returned path) and early-outs
  /// on the union-find when the endpoints are in different components.
  [[nodiscard]] std::vector<DeviceId> shortest_path(DeviceId from, DeviceId to,
                                                    const PathPolicy& policy = {});

  /// Hop distances from `root` over links usable under `policy`; -1 means
  /// unreachable. Writes into `out` (resized to the device count) so callers
  /// that cache distance tables reuse their own storage.
  void bfs_distances(DeviceId root, const PathPolicy& policy, std::vector<int>& out);

  /// Forest rebuilds performed so far — the observability hook the benches
  /// and tests use to prove queries against an unchanged network stay cached.
  [[nodiscard]] std::uint64_t rebuilds() const { return rebuilds_; }

 private:
  struct Forest {
    DisjointSet set;
    std::uint64_t state_gen = ~std::uint64_t{0};
    std::uint64_t structure_gen = ~std::uint64_t{0};
  };

  [[nodiscard]] static std::size_t policy_index(const PathPolicy& p) {
    return (p.use_degraded ? 1u : 0u) | (p.use_flapping ? 2u : 0u);
  }
  void ensure_fresh(Forest& f, const PathPolicy& policy);
  /// Starts a BFS epoch; resets the stamp arrays on device-count change or
  /// epoch wrap so stale marks can never alias a live query.
  void begin_bfs();

  const Network* net_;
  Forest forests_[4];  // indexed by policy_index

  // BFS scratch, reused across queries: epoch-stamped visit marks instead of
  // a cleared vector per call, and a flat vector as the queue.
  std::vector<std::int32_t> bfs_parent_;
  std::vector<std::uint32_t> visit_epoch_;
  std::vector<DeviceId> bfs_queue_;
  std::uint32_t epoch_ = 0;
  std::uint64_t rebuilds_ = 0;
};

}  // namespace smn::net
