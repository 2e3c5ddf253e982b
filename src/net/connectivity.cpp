#include "net/connectivity.h"

#include <algorithm>

#include "core/check.h"
#include "net/network.h"

namespace smn::net {

ConnectivityEngine::ConnectivityEngine(const Network& net) : net_{&net} {}

void ConnectivityEngine::ensure_fresh(Forest& f, const PathPolicy& policy) {
  const std::uint64_t state_gen = net_->state_generation();
  const std::uint64_t structure_gen = net_->structure_generation();
  if (f.state_gen == state_gen && f.structure_gen == structure_gen) return;

  f.set.reset(net_->devices().size());
  // Links at an unhealthy device (or dead line card) are already Down —
  // Network::refresh_link folds device health into the derived state — so
  // unioning over usable links alone reproduces the reference BFS's
  // peer-health behaviour exactly.
  for (const Link& l : net_->links()) {
    if (link_usable(l, policy)) f.set.unite(l.end_a.device.value(), l.end_b.device.value());
  }
  f.state_gen = state_gen;
  f.structure_gen = structure_gen;
  ++rebuilds_;
}

bool ConnectivityEngine::connected(DeviceId a, DeviceId b, const PathPolicy& policy) {
  if (a == b) return true;  // matches shortest_path's {from} self-path
  Forest& f = forests_[policy_index(policy)];
  ensure_fresh(f, policy);
  return f.set.find(a.value()) == f.set.find(b.value());
}

void ConnectivityEngine::begin_bfs() {
  const std::size_t n = net_->devices().size();
  ++epoch_;
  if (visit_epoch_.size() != n || epoch_ == 0) {
    visit_epoch_.assign(n, 0);
    epoch_ = 1;
  }
  bfs_parent_.resize(n);
  bfs_queue_.clear();
}

std::vector<DeviceId> ConnectivityEngine::shortest_path(DeviceId from, DeviceId to,
                                                        const PathPolicy& policy) {
  if (from == to) return {from};
  // The union-find answers the reachability half for free; a failed BFS is
  // the expensive case (it floods the whole component), so skip it outright.
  if (!connected(from, to, policy)) return {};

  const CsrAdjacency& adj = net_->adjacency();
  begin_bfs();
  visit_epoch_[static_cast<std::size_t>(from.value())] = epoch_;
  bfs_parent_[static_cast<std::size_t>(from.value())] = -1;
  bfs_queue_.push_back(from);
  for (std::size_t head = 0; head < bfs_queue_.size(); ++head) {
    const DeviceId cur = bfs_queue_[head];
    const auto [row_begin, row_end] = adj.row(cur);
    for (std::int32_t k = row_begin; k < row_end; ++k) {
      const Link& l = net_->link(adj.link[static_cast<std::size_t>(k)]);
      if (!link_usable(l, policy)) continue;
      const DeviceId peer = adj.peer[static_cast<std::size_t>(k)];
      if (!net_->device(peer).healthy) continue;
      auto& stamp = visit_epoch_[static_cast<std::size_t>(peer.value())];
      if (stamp == epoch_) continue;
      stamp = epoch_;
      bfs_parent_[static_cast<std::size_t>(peer.value())] = cur.value();
      if (peer == to) {
        // Walk parents from `to` back to the root and reverse.
        std::vector<DeviceId> path;
        DeviceId v = to;
        while (true) {
          path.push_back(v);
          const std::int32_t pv = bfs_parent_[static_cast<std::size_t>(v.value())];
          if (pv == -1) break;
          v = DeviceId{pv};
        }
        std::reverse(path.begin(), path.end());
        return path;
      }
      bfs_queue_.push_back(peer);
    }
  }
  // connected() said reachable; the BFS honouring the same link set must
  // agree (the peer-health check cannot diverge because unhealthy devices
  // have no usable links).
  SMN_ASSERT(false, "connectivity forest and BFS disagree on %d -> %d", from.value(),
             to.value());
  return {};
}

void ConnectivityEngine::bfs_distances(DeviceId root, const PathPolicy& policy,
                                       std::vector<int>& out) {
  const CsrAdjacency& adj = net_->adjacency();
  out.assign(net_->devices().size(), -1);
  begin_bfs();
  out[static_cast<std::size_t>(root.value())] = 0;
  bfs_queue_.push_back(root);
  for (std::size_t head = 0; head < bfs_queue_.size(); ++head) {
    const DeviceId cur = bfs_queue_[head];
    const int next_dist = out[static_cast<std::size_t>(cur.value())] + 1;
    const auto [row_begin, row_end] = adj.row(cur);
    for (std::int32_t k = row_begin; k < row_end; ++k) {
      const Link& l = net_->link(adj.link[static_cast<std::size_t>(k)]);
      if (!link_usable(l, policy)) continue;
      const DeviceId peer = adj.peer[static_cast<std::size_t>(k)];
      if (!net_->device(peer).healthy) continue;
      int& d = out[static_cast<std::size_t>(peer.value())];
      if (d >= 0) continue;
      d = next_dist;
      bfs_queue_.push_back(peer);
    }
  }
}

}  // namespace smn::net
