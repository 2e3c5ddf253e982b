#include "topology/tray_index.h"

#include <algorithm>
#include <tuple>

#include "core/check.h"

namespace smn::topology {

TrayIndex::TrayIndex(const Blueprint& bp) {
  // One (segment, link, slot in link_segs_) entry per route segment; sorting
  // groups each segment's cables in ascending link order.
  std::vector<std::tuple<TraySegment, std::int32_t, std::int32_t>> entries;
  for (std::size_t li = 0; li < bp.links().size(); ++li) {
    for (const TraySegment& seg : bp.links()[li].route.segments) {
      entries.emplace_back(seg, static_cast<std::int32_t>(li),
                           static_cast<std::int32_t>(entries.size()));
    }
    link_offsets_.push_back(static_cast<std::int32_t>(entries.size()));
  }
  std::sort(entries.begin(), entries.end());

  link_segs_.resize(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& [seg, link, slot] = entries[i];
    if (i > 0 && seg != std::get<0>(entries[i - 1])) {
      seg_offsets_.push_back(static_cast<std::int32_t>(i));
    }
    seg_links_.push_back(link);
    link_segs_[static_cast<std::size_t>(slot)] =
        static_cast<std::int32_t>(seg_offsets_.size() - 1);
  }
  if (!entries.empty()) seg_offsets_.push_back(static_cast<std::int32_t>(entries.size()));
}

void TrayIndex::mates(std::int32_t link, std::vector<std::int32_t>& out) const {
  SMN_ASSERT(link >= 0 && static_cast<std::size_t>(link) + 1 < link_offsets_.size(),
             "TrayIndex: link %d out of range", link);
  out.clear();
  const auto l = static_cast<std::size_t>(link);
  for (std::int32_t k = link_offsets_[l]; k < link_offsets_[l + 1]; ++k) {
    const auto seg = static_cast<std::size_t>(link_segs_[static_cast<std::size_t>(k)]);
    for (std::int32_t j = seg_offsets_[seg]; j < seg_offsets_[seg + 1]; ++j) {
      const std::int32_t other = seg_links_[static_cast<std::size_t>(j)];
      if (other != link) out.push_back(other);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

}  // namespace smn::topology
