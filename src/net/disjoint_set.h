// Union-find over dense int32 ids: path halving, union by size, ties keep the
// lower-index root (so the forest is a pure function of the union sequence).
// One implementation serves the connectivity engine's forests and the
// survivability frontier's replay; `reset` keeps capacity, so a forest reused
// at a steady size allocates nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

namespace smn::net {

class DisjointSet {
 public:
  /// `root` survives a `unite` and `absorbed` now hangs under it; the two are
  /// equal when the ids were already in one set.
  struct Merge {
    std::int32_t root;
    std::int32_t absorbed;
  };

  /// Makes `n` singleton sets {0}, ..., {n - 1}.
  void reset(std::size_t n) {
    parent_.resize(n);
    std::iota(parent_.begin(), parent_.end(), 0);
    size_.assign(n, 1);
  }

  [[nodiscard]] std::int32_t find(std::int32_t v) {
    while (parent_[at(v)] != v) {
      parent_[at(v)] = parent_[at(parent_[at(v)])];  // path halving
      v = parent_[at(v)];
    }
    return v;
  }

  Merge unite(std::int32_t a, std::int32_t b) {
    std::int32_t ra = find(a);
    std::int32_t rb = find(b);
    if (ra == rb) return {ra, ra};
    if (size(ra) < size(rb) || (size(ra) == size(rb) && rb < ra)) std::swap(ra, rb);
    parent_[at(rb)] = ra;
    size_[at(ra)] += size(rb);
    return {ra, rb};
  }

  /// Members of the set rooted at `root`.
  [[nodiscard]] std::int32_t size(std::int32_t root) const { return size_[at(root)]; }

 private:
  static std::size_t at(std::int32_t v) { return static_cast<std::size_t>(v); }

  std::vector<std::int32_t> parent_;
  std::vector<std::int32_t> size_;
};

}  // namespace smn::net
