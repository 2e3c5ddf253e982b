#include "storage/stripe_pool.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "core/check.h"

namespace smn::storage {
namespace {

[[nodiscard]] std::int64_t pack_rack(const topology::RackLocation& loc) {
  return (static_cast<std::int64_t>(loc.hall) << 40) |
         (static_cast<std::int64_t>(static_cast<std::uint32_t>(loc.row)) << 20) |
         static_cast<std::int64_t>(static_cast<std::uint32_t>(loc.rack));
}

}  // namespace

StripePool::StripePool(const net::Network& net, sim::RngStream& rng, Config cfg)
    : net_{net}, cfg_{std::move(cfg)} {
  if (cfg_.data_units < 1 || cfg_.parity_units < 0) {
    throw std::invalid_argument{"StripePool: need N >= 1 data units and K >= 0 parity"};
  }
  if (width() > 32) {
    throw std::invalid_argument{"StripePool: N+K exceeds the 32-unit failure mask"};
  }
  if (!cfg_.explicit_placements.empty()) {
    stripes_.reserve(cfg_.explicit_placements.size());
    for (const std::vector<net::DeviceId>& row : cfg_.explicit_placements) {
      Stripe s;
      s.units = row;
      stripes_.push_back(std::move(s));
    }
    cfg_.stripes = static_cast<int>(stripes_.size());
    cfg_.parity_units = static_cast<int>(stripes_.front().units.size()) - cfg_.data_units;
    SMN_ASSERT(cfg_.parity_units >= 0, "explicit placement narrower than N");
  } else {
    build_layout(rng);
  }
  index_placements();
}

void StripePool::build_layout(sim::RngStream& rng) {
  const std::vector<net::DeviceId>& servers = net_.servers();
  if (static_cast<int>(servers.size()) < width()) {
    throw std::invalid_argument{"StripePool: fewer servers than stripe width N+K"};
  }
  // Group the roster by rack, preserving roster order (deterministic: the
  // roster is immutable and rack keys are geometric, not hashed).
  std::vector<std::int64_t> rack_keys;
  std::vector<std::vector<net::DeviceId>> racks;
  for (const net::DeviceId id : servers) {
    const std::int64_t key = pack_rack(net_.device(id).location);
    const auto it = std::find(rack_keys.begin(), rack_keys.end(), key);
    if (it == rack_keys.end()) {
      rack_keys.push_back(key);
      racks.emplace_back();
      racks.back().push_back(id);
    } else {
      racks[static_cast<std::size_t>(it - rack_keys.begin())].push_back(id);
    }
  }

  stripes_.resize(static_cast<std::size_t>(cfg_.stripes));
  for (Stripe& s : stripes_) {
    s.units.reserve(static_cast<std::size_t>(width()));
    // Walk the racks round-robin from a random offset, drawing one server
    // per rack per lap: with enough racks every unit lands in its own
    // failure domain; smaller plants wrap but still never reuse a server.
    const std::size_t offset = rng.index(racks.size());
    std::size_t step = 0;
    while (static_cast<int>(s.units.size()) < width()) {
      SMN_ASSERT(step < racks.size() * static_cast<std::size_t>(width()),
                 "stripe placement failed to converge");
      const std::vector<net::DeviceId>& rack = racks[(offset + step) % racks.size()];
      ++step;
      // One random probe, then a deterministic in-rack scan — the draw count
      // per stripe is fixed, so layouts of later stripes never depend on
      // how many collisions earlier picks hit.
      const std::size_t probe = rng.index(rack.size());
      for (std::size_t j = 0; j < rack.size(); ++j) {
        const net::DeviceId candidate = rack[(probe + j) % rack.size()];
        if (std::find(s.units.begin(), s.units.end(), candidate) == s.units.end()) {
          s.units.push_back(candidate);
          break;
        }
      }
    }
  }
}

void StripePool::index_placements() {
  hosted_.assign(net_.devices().size(), {});
  serving_.assign(net_.devices().size(), 0);
  for (std::size_t s = 0; s < stripes_.size(); ++s) {
    Stripe& st = stripes_[s];
    SMN_ASSERT(!st.units.empty(), "stripe %zu has no units", s);
    for (std::size_t u = 0; u < st.units.size(); ++u) {
      const std::size_t dev = static_cast<std::size_t>(st.units[u].value());
      hosted_.at(dev).push_back(
          {static_cast<std::uint32_t>(s), static_cast<std::uint16_t>(u)});
    }
  }
  // Initial serving state and failure masks (a world may wire storage into
  // an already-degraded fabric, e.g. on a replay).
  for (std::size_t dev = 0; dev < hosted_.size(); ++dev) {
    if (hosted_[dev].empty()) continue;
    const bool ok = compute_serving(net::DeviceId{static_cast<std::int32_t>(dev)});
    serving_[dev] = ok ? 1 : 0;
    if (ok) continue;
    for (const Hosted& h : hosted_[dev]) {
      stripes_[h.stripe].failed |= 1u << h.unit;
    }
  }
  const sim::TimePoint now = net_.now();
  for (Stripe& st : stripes_) {
    if (st.failed == 0) continue;
    st.dirty = true;
    st.dirty_since = now;
    ++dirty_count_;
    ++dirty_transitions_;
    if (std::popcount(st.failed) > cfg_.parity_units) {
      st.lost = true;
      ++stripes_lost_ever_;
    }
  }
}

bool StripePool::compute_serving(net::DeviceId server) const {
  if (!net_.device(server).healthy) return false;
  for (const net::LinkId lid : net_.links_at(server)) {
    if (net_.usable(lid)) return true;
  }
  return false;
}

bool StripePool::serving(net::DeviceId server) const {
  const std::size_t dev = static_cast<std::size_t>(server.value());
  return dev < serving_.size() && serving_[dev] != 0;
}

int StripePool::units_serving(std::size_t s) const {
  const Stripe& st = stripes_.at(s);
  return static_cast<int>(st.units.size()) - std::popcount(st.failed);
}

std::size_t StripePool::first_dirty(std::size_t from) const {
  for (std::size_t s = from; s < stripes_.size(); ++s) {
    if (stripes_[s].dirty) return s;
  }
  return stripes_.size();
}

void StripePool::on_link_transition(const net::Link& l) {
  for (const net::DeviceId dev : {l.end_a.device, l.end_b.device}) {
    const std::size_t i = static_cast<std::size_t>(dev.value());
    if (i >= hosted_.size() || hosted_[i].empty()) continue;
    const bool now_serving = compute_serving(dev);
    if (now_serving != (serving_[i] != 0)) apply_serving_flip(dev, now_serving);
  }
}

void StripePool::apply_serving_flip(net::DeviceId server, bool serving_now) {
  const std::size_t dev = static_cast<std::size_t>(server.value());
  serving_[dev] = serving_now ? 1 : 0;
  const sim::TimePoint now = net_.now();
  for (const Hosted& h : hosted_[dev]) {
    Stripe& st = stripes_[h.stripe];
    const std::uint32_t bit = 1u << h.unit;
    if (serving_now) {
      st.failed &= ~bit;
    } else {
      st.failed |= bit;
      if (!st.dirty) {
        st.dirty = true;
        st.dirty_since = now;
        ++dirty_count_;
        ++dirty_transitions_;
      }
      if (!st.lost && std::popcount(st.failed) > cfg_.parity_units) {
        st.lost = true;
        ++stripes_lost_ever_;
      }
    }
  }
}

void StripePool::place_unit(std::size_t s, int u, net::DeviceId target) {
  Stripe& st = stripes_.at(s);
  const std::size_t ui = static_cast<std::size_t>(u);
  const net::DeviceId old = st.units.at(ui);
  if (old != target) {
    std::vector<Hosted>& from = hosted_.at(static_cast<std::size_t>(old.value()));
    std::erase_if(from, [&](const Hosted& h) {
      return h.stripe == static_cast<std::uint32_t>(s) &&
             h.unit == static_cast<std::uint16_t>(ui);
    });
    hosted_.at(static_cast<std::size_t>(target.value()))
        .push_back({static_cast<std::uint32_t>(s), static_cast<std::uint16_t>(ui)});
    st.units[ui] = target;
  }
  // The rebuilt unit's health is its (possibly new) server's health; keep the
  // tracked flag fresh even if no transition fired since the last look.
  const std::size_t ti = static_cast<std::size_t>(target.value());
  serving_[ti] = compute_serving(target) ? 1 : 0;
  const std::uint32_t bit = 1u << ui;
  if (serving_[ti] != 0) {
    st.failed &= ~bit;
  } else {
    st.failed |= bit;
  }
}

sim::Duration StripePool::finish_episode_if_clean(std::size_t s, sim::TimePoint now) {
  Stripe& st = stripes_.at(s);
  if (!st.dirty || st.failed != 0) return sim::Duration::hours(-1.0);
  st.dirty = false;
  st.lost = false;
  SMN_ASSERT(dirty_count_ > 0, "dirty episode finished with zero dirty count");
  --dirty_count_;
  return now - st.dirty_since;
}

net::DeviceId StripePool::rebuild_target(std::size_t s, int u) {
  const Stripe& st = stripes_.at(s);
  const net::DeviceId original = st.units.at(static_cast<std::size_t>(u));
  if (serving(original)) return original;

  const std::vector<net::DeviceId>& roster = net_.servers();
  auto hosts_stripe = [&](net::DeviceId dev) {
    for (const Hosted& h : hosted_[static_cast<std::size_t>(dev.value())]) {
      if (h.stripe == static_cast<std::uint32_t>(s)) return true;
    }
    return false;
  };
  auto rack_clash = [&](net::DeviceId dev) {
    const std::int64_t key = rack_of(dev);
    for (std::size_t v = 0; v < st.units.size(); ++v) {
      if (static_cast<int>(v) == u) continue;
      if (rack_of(st.units[v]) == key) return true;
    }
    return false;
  };
  // Two deterministic passes from the rotating cursor: prefer a fresh
  // failure domain; fall back to any serving non-member so small plants can
  // still drain a dead rack.
  for (const bool relax : {false, true}) {
    for (std::size_t j = 0; j < roster.size(); ++j) {
      const net::DeviceId cand = roster[(rebuild_cursor_ + j) % roster.size()];
      if (!serving(cand) && !compute_serving(cand)) continue;
      if (hosts_stripe(cand)) continue;
      if (!relax && rack_clash(cand)) continue;
      rebuild_cursor_ = (rebuild_cursor_ + j + 1) % roster.size();
      return cand;
    }
  }
  return net::DeviceId{};
}

std::int64_t StripePool::rack_of(net::DeviceId server) const {
  return pack_rack(net_.device(server).location);
}

void StripePool::check_invariants() const {
  std::size_t dirty = 0;
  for (std::size_t s = 0; s < stripes_.size(); ++s) {
    const Stripe& st = stripes_[s];
    SMN_ASSERT(static_cast<int>(st.units.size()) == width(),
               "stripe %zu width %zu != N+K %d", s, st.units.size(), width());
    SMN_ASSERT(st.dirty == (st.failed != 0 || st.lost),
               "stripe %zu dirty flag out of sync with failure mask", s);
    if (st.dirty) ++dirty;
    for (std::size_t u = 0; u < st.units.size(); ++u) {
      const std::size_t dev = static_cast<std::size_t>(st.units[u].value());
      const bool tracked_ok = serving_.at(dev) != 0;
      SMN_ASSERT(((st.failed >> u) & 1u) == (tracked_ok ? 0u : 1u),
                 "stripe %zu unit %zu failure bit disagrees with serving flag", s, u);
    }
  }
  SMN_ASSERT(dirty == dirty_count_, "dirty count %zu != flagged stripes %zu", dirty_count_,
             dirty);

  // The host index, checked from its own side in one pass: every entry names
  // a unit placed on its device, no (stripe, unit) is named twice, and no
  // device lists two units of one stripe. If every unit is then named, units
  // and entries match one to one.
  std::vector<IndexMark>& marks = check_marks_;
  marks.assign(stripes_.size(), IndexMark{});
  for (std::size_t dev = 0; dev < hosted_.size(); ++dev) {
    for (const Hosted& h : hosted_[dev]) {
      SMN_ASSERT(h.stripe < stripes_.size() && static_cast<int>(h.unit) < width(),
                 "host index entry (stripe %u, unit %u) on device %zu out of range", h.stripe,
                 static_cast<unsigned>(h.unit), dev);
      SMN_ASSERT(static_cast<std::size_t>(stripes_[h.stripe].units[h.unit].value()) == dev,
                 "host index lists stripe %u unit %u on device %zu, which does not host it",
                 h.stripe, static_cast<unsigned>(h.unit), dev);
      IndexMark& mark = marks[h.stripe];
      const std::uint32_t bit = 1u << h.unit;
      SMN_ASSERT((mark.named & bit) == 0, "stripe %u unit %u named twice in the host index",
                 h.stripe, static_cast<unsigned>(h.unit));
      mark.named |= bit;
      SMN_ASSERT(mark.last_device != static_cast<std::int32_t>(dev),
                 "stripe %zu reuses a server", static_cast<std::size_t>(h.stripe));
      mark.last_device = static_cast<std::int32_t>(dev);
    }
  }
  const std::uint32_t all_units = width() == 32 ? ~0u : (1u << width()) - 1u;
  for (std::size_t s = 0; s < stripes_.size(); ++s) {
    SMN_ASSERT(marks[s].named == all_units, "stripe %zu unit %d missing from the host index",
               s, std::countr_one(marks[s].named));
  }

  // The incremental serving flags must agree with a fresh derivation — a
  // missed Network transition would silently freeze a stripe's health.
  for (std::size_t dev = 0; dev < hosted_.size(); ++dev) {
    if (hosted_[dev].empty()) continue;
    const bool fresh = compute_serving(net::DeviceId{static_cast<std::int32_t>(dev)});
    SMN_ASSERT((serving_[dev] != 0) == fresh, "stale serving flag for device %zu", dev);
  }
}

}  // namespace smn::storage
