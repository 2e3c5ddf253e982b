// Campus-level shared spare inventory with deterministic arbitration.
//
// Halls of a campus draw replacement stock (optics, cables, line cards) from
// one shared depot instead of per-hall inventories — a real multi-hall
// operations pattern and the concrete "campus-level controller decision" of
// the sharded simulation: spare *requests* travel as cross-domain messages,
// and the campus coordinator arbitrates them in the canonical exchange order
// (sim/epoch.h ExchangeKey), so grants are byte-identical at any shard count.
//
// The pool itself is plain single-owner state: it is touched only by the
// barrier coordinator, between chunks, when no domain worker is running.
// Restocking is a function of simulated time alone: floor(rate * t) units
// have arrived by t, and an arrival at a full shelf is dropped. How often
// restock_to() is called therefore changes nothing — the property that lets
// the coordinator place barriers anywhere.
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace smn::core {

class SparePool {
 public:
  struct Config {
    /// Depot stock at t=0.
    int initial_stock = 64;
    /// Restock rate from the supply chain, units per simulated day.
    double restock_per_day = 8.0;
    /// Depot shelf capacity; restock saturates here.
    int max_stock = 128;
  };

  explicit SparePool(const Config& cfg)
      : cfg_{cfg}, stock_{cfg.initial_stock < 0 ? 0 : cfg.initial_stock} {}

  /// Shelves the units that arrived by `now`, up to the shelf capacity.
  /// Idempotent for equal `now`; `now` must not move backwards (arbitration
  /// instants are monotone).
  void restock_to(sim::TimePoint now);

  /// Grants up to `requested` units from stock. Callers must present
  /// requests in the canonical exchange order for shard invariance.
  [[nodiscard]] int grant(int requested);

  [[nodiscard]] int stock() const { return stock_; }
  [[nodiscard]] std::uint64_t granted_total() const { return granted_total_; }
  [[nodiscard]] std::uint64_t denied_total() const { return denied_total_; }

 private:
  Config cfg_;
  int stock_ = 0;
  std::int64_t delivered_ = 0;  // units arrived by restocked_to_, shelved or dropped
  sim::TimePoint restocked_to_;
  std::uint64_t granted_total_ = 0;
  std::uint64_t denied_total_ = 0;
};

}  // namespace smn::core
