#include "core/spare_pool.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"

namespace smn::core {

void SparePool::restock_to(sim::TimePoint now) {
  SMN_ASSERT(now >= restocked_to_, "SparePool::restock_to moved backwards");
  restocked_to_ = now;
  // Units delivered by `now` since t = 0, from the clock alone: the stock
  // then cannot depend on how often this is called. Scaling the integer
  // microsecond count keeps whole-unit instants exact for integral rates.
  constexpr double kUsPerDay = static_cast<double>(sim::Duration::days(1).count_us());
  const auto delivered = static_cast<std::int64_t>(
      std::floor(cfg_.restock_per_day * static_cast<double>(now.count_us()) / kUsPerDay));
  const std::int64_t arrivals = delivered - delivered_;
  delivered_ = delivered;
  // An arrival at a full shelf is turned away, not banked.
  if (arrivals > 0) {
    stock_ = static_cast<int>(std::min<std::int64_t>(stock_ + arrivals, cfg_.max_stock));
  }
}

int SparePool::grant(int requested) {
  if (requested <= 0) return 0;
  const int g = requested <= stock_ ? requested : stock_;
  stock_ -= g;
  granted_total_ += static_cast<std::uint64_t>(g);
  denied_total_ += static_cast<std::uint64_t>(requested - g);
  return g;
}

}  // namespace smn::core
