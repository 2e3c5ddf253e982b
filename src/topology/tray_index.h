// The tray index: the one owner of cable adjacency. Cables whose routes share
// a tray segment are physically adjacent, so touching one disturbs the other
// (§1's cascading failures); the wiring statistics and the cascade model both
// read that relation here. Flat CSR arrays, segment → links and link →
// segments, built in O(S log S) over the S route segments of all links.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "topology/blueprint.h"

namespace smn::topology {

class TrayIndex {
 public:
  TrayIndex() = default;
  explicit TrayIndex(const Blueprint& bp);

  /// Distinct occupied segments; ids run in TraySegment order.
  [[nodiscard]] std::size_t segment_count() const { return seg_offsets_.size() - 1; }
  /// Cables riding segment `seg`.
  [[nodiscard]] std::int32_t occupancy(std::size_t seg) const {
    return seg_offsets_[seg + 1] - seg_offsets_[seg];
  }

  /// Fills `out` with the links sharing at least one segment with `link`, in
  /// ascending order, deduplicated, `link` excluded. Allocates nothing once
  /// `out` has the capacity.
  void mates(std::int32_t link, std::vector<std::int32_t>& out) const;

 private:
  // Segment s carries seg_links_[seg_offsets_[s], seg_offsets_[s + 1]),
  // ascending; link l rides link_segs_[link_offsets_[l], link_offsets_[l + 1]).
  std::vector<std::int32_t> seg_offsets_{0};
  std::vector<std::int32_t> seg_links_;
  std::vector<std::int32_t> link_offsets_{0};
  std::vector<std::int32_t> link_segs_;
};

}  // namespace smn::topology
