#include "net/network.h"

#include <set>
#include <stdexcept>

#include "core/check.h"

namespace smn::net {

Network::Network(const topology::Blueprint& bp, const Config& cfg, sim::Simulator& sim)
    : cfg_{cfg}, blueprint_{bp}, sim_{&sim} {
  blueprint_.validate();
  sim::RngFactory rngs{cfg_.seed};
  sim::RngStream hw_rng = rngs.stream("network.hardware");

  devices_.reserve(blueprint_.nodes().size());
  for (int i = 0; i < static_cast<int>(blueprint_.nodes().size()); ++i) {
    const topology::NodeSpec& n = blueprint_.node(i);
    Device dev{DeviceId{i}, n.name, n.role, n.location, true, i, 0, {}};
    const bool chassis = n.role == topology::NodeRole::kCoreSwitch ||
                         n.role == topology::NodeRole::kAggSwitch ||
                         n.role == topology::NodeRole::kSpineSwitch;
    if (chassis && cfg_.chassis_ports_per_linecard > 0) {
      dev.ports_per_linecard = cfg_.chassis_ports_per_linecard;
      const int cards =
          (n.ports_used + dev.ports_per_linecard - 1) / dev.ports_per_linecard;
      dev.linecards_healthy.assign(static_cast<size_t>(std::max(1, cards)), true);
    }
    devices_.push_back(std::move(dev));
  }
  device_links_.resize(devices_.size());

  links_.reserve(blueprint_.links().size());
  for (int i = 0; i < static_cast<int>(blueprint_.links().size()); ++i) {
    const topology::LinkSpec& ls = blueprint_.link(i);
    Link link;
    link.id = LinkId{i};
    link.topology_link_index = i;
    link.end_a.device = DeviceId{ls.node_a};
    link.end_a.port = ls.port_a;
    link.end_b.device = DeviceId{ls.node_b};
    link.end_b.port = ls.port_b;
    link.capacity_gbps = ls.capacity_gbps;
    link.length_m = ls.route.length_m;
    assign_hardware(hw_rng, link);
    device_links_[static_cast<size_t>(ls.node_a)].push_back(link.id);
    device_links_[static_cast<size_t>(ls.node_b)].push_back(link.id);
    link_groups_[pair_key(link.end_a.device, link.end_b.device)].push_back(link.id);
    links_.push_back(std::move(link));
  }
  build_role_rosters();
  connectivity_ = std::make_unique<ConnectivityEngine>(*this);
  refresh_all();
}

void Network::build_role_rosters() {
  role_rosters_.assign(static_cast<std::size_t>(topology::NodeRole::kGpuServer) + 1, {});
  for (const Device& d : devices_) {
    role_rosters_[static_cast<std::size_t>(d.role)].push_back(d.id);
    if (!topology::is_switch(d.role)) servers_.push_back(d.id);
  }
}

void Network::assign_hardware(sim::RngStream& rng, Link& link) {
  if (link.length_m <= cfg_.dac_max_m) {
    link.medium = CableMedium::kDac;
  } else if (link.length_m <= cfg_.aec_max_m) {
    link.medium = CableMedium::kAec;
  } else if (link.length_m <= cfg_.aoc_max_m) {
    link.medium = CableMedium::kAoc;
  } else {
    link.medium =
        link.capacity_gbps > 100.0 ? CableMedium::kMpoOptical : CableMedium::kLcOptical;
  }

  TransceiverModel model;
  if (link.capacity_gbps <= 25.0) {
    model.form_factor = FormFactor::kSfp28;
  } else if (link.capacity_gbps <= 100.0) {
    model.form_factor = FormFactor::kQsfp28;
  } else if (link.capacity_gbps <= 400.0) {
    model.form_factor = rng.bernoulli(0.5) ? FormFactor::kQsfpDd : FormFactor::kOsfp;
  } else {
    model.form_factor = FormFactor::kOsfp;
  }
  model.vendor = static_cast<std::uint8_t>(rng.uniform_int(0, cfg_.vendor_count - 1));
  // Tab style correlates with vendor but not perfectly — the diversity that
  // bites robot grippers.
  const int tab = (model.vendor + static_cast<int>(rng.uniform_int(0, 1))) % 4;
  model.tab = static_cast<TabStyle>(tab);
  model.angled_end_face = link.medium == CableMedium::kMpoOptical && rng.bernoulli(0.5);

  link.end_a.model = model;
  link.end_b.model = model;
}

std::vector<std::pair<DeviceId, LinkId>> Network::live_neighbors(DeviceId id) const {
  std::vector<std::pair<DeviceId, LinkId>> out;
  for (const LinkId lid : links_at(id)) {
    const Link& l = link(lid);
    if (l.state == LinkState::kDown) continue;
    const DeviceId peer = l.end_a.device == id ? l.end_b.device : l.end_a.device;
    out.emplace_back(peer, lid);
  }
  return out;
}

const std::vector<DeviceId>& Network::devices_with_role(topology::NodeRole role) const {
  return role_rosters_.at(static_cast<std::size_t>(role));
}

const std::vector<LinkId>& Network::links_between(DeviceId a, DeviceId b) const {
  static const std::vector<LinkId> kEmpty;
  const auto it = link_groups_.find(pair_key(a, b));
  return it == link_groups_.end() ? kEmpty : it->second;
}

const CsrAdjacency& Network::adjacency() const {
  if (csr_structure_generation_ == structure_generation_) return csr_;
  csr_.offsets.assign(devices_.size() + 1, 0);
  csr_.peer.clear();
  csr_.link.clear();
  csr_.peer.reserve(links_.size() * 2);
  csr_.link.reserve(links_.size() * 2);
  for (std::size_t d = 0; d < device_links_.size(); ++d) {
    const DeviceId dev{static_cast<std::int32_t>(d)};
    for (const LinkId lid : device_links_[d]) {
      const Link& l = links_[static_cast<std::size_t>(lid.value())];
      csr_.peer.push_back(l.end_a.device == dev ? l.end_b.device : l.end_a.device);
      csr_.link.push_back(lid);
    }
    csr_.offsets[d + 1] = static_cast<std::int32_t>(csr_.peer.size());
  }
  csr_structure_generation_ = structure_generation_;
  return csr_;
}

LinkState Network::refresh_link(LinkId id) {
  Link& l = links_.at(static_cast<size_t>(id.value()));
  const Device& da = device(l.end_a.device);
  const Device& db = device(l.end_b.device);
  const bool devices_healthy = da.healthy && db.healthy &&
                               da.card_healthy(l.end_a.port) &&
                               db.card_healthy(l.end_b.port);
  const LinkState next = l.derive_state(sim_->now(), devices_healthy, cfg_.thresholds);
  if (next != l.state) {
    const LinkState prev = l.state;
    l.state = next;
    links_down_ += static_cast<std::size_t>(next == LinkState::kDown);
    links_down_ -= static_cast<std::size_t>(prev == LinkState::kDown);
    // Stamp before notifying: an observer that issues a reachability query
    // must see the post-change forest, not a stale cache.
    ++state_generation_;
    observe_transition(l, prev, next);
    for (const Observer& obs : observers_) obs(l, prev, next);
  }
  if (refresh_hook_) refresh_hook_(id);
  return l.state;
}

void Network::set_obs(obs::Obs* o) {
  if (o == nullptr) return;
  if (obs::Registry* reg = o->metrics()) {
    obs_transitions_ = reg->counter("net_link_transitions_total");
    obs_links_down_ = reg->gauge("net_links_down");
    obs_links_impaired_ = reg->gauge("net_links_impaired");
    // Seed the gauges from the current fleet so incremental ±1 maintenance in
    // observe_transition starts from truth, not zero.
    obs_links_down_->set(static_cast<double>(links_down_));
    obs_links_impaired_->set(static_cast<double>(count_links(LinkState::kDegraded) +
                                                 count_links(LinkState::kFlapping)));
  }
  obs_trace_ = o->trace();
  obs_recorder_ = o->recorder();
}

void Network::observe_transition(const Link& l, LinkState prev, LinkState next) {
  const auto is_down = [](LinkState s) { return s == LinkState::kDown; };
  const auto is_impaired = [](LinkState s) {
    return s == LinkState::kDegraded || s == LinkState::kFlapping;
  };
  if (obs_transitions_ != nullptr) {
    obs_transitions_->inc();
    obs_links_down_->add(static_cast<double>(is_down(next)) - static_cast<double>(is_down(prev)));
    obs_links_impaired_->add(static_cast<double>(is_impaired(next)) -
                             static_cast<double>(is_impaired(prev)));
  }
  if (obs_trace_ != nullptr) obs_trace_->instant(
      to_string(next), "net", sim_->now(), "link", l.id.value(), "prev", static_cast<int>(prev));
  if (obs_recorder_ != nullptr) {
    obs_recorder_->record(sim_->now().count_us(), "link-transition", l.id.value(),
                          static_cast<std::int64_t>(next));
  }
}

void Network::refresh_links_of(DeviceId id) {
  for (const LinkId lid : links_at(id)) refresh_link(lid);
}

void Network::refresh_all() {
  for (const Link& l : links_) refresh_link(l.id);
}

void Network::set_device_health(DeviceId id, bool healthy) {
  devices_.at(static_cast<size_t>(id.value())).healthy = healthy;
  refresh_links_of(id);
}

void Network::set_linecard_health(DeviceId id, int card, bool healthy) {
  Device& dev = devices_.at(static_cast<size_t>(id.value()));
  if (!dev.has_linecards() || card < 0 ||
      card >= static_cast<int>(dev.linecards_healthy.size())) {
    throw std::out_of_range{"set_linecard_health: no such card"};
  }
  dev.linecards_healthy[static_cast<size_t>(card)] = healthy;
  refresh_links_of(id);
}

void Network::rewire(LinkId id, DeviceId new_a, DeviceId new_b) {
  if (new_a == new_b) throw std::invalid_argument{"rewire: self-loop"};
  Link& l = links_.at(static_cast<size_t>(id.value()));

  auto detach = [&](DeviceId dev) {
    auto& lids = device_links_.at(static_cast<size_t>(dev.value()));
    std::erase(lids, id);
  };
  detach(l.end_a.device);
  detach(l.end_b.device);

  // Keep the parallel-link group index in step with the adjacency rows.
  const auto old_key = pair_key(l.end_a.device, l.end_b.device);
  auto group_it = link_groups_.find(old_key);
  SMN_ASSERT(group_it != link_groups_.end(), "rewire: link %d missing from group index",
             id.value());
  std::erase(group_it->second, id);
  if (group_it->second.empty()) link_groups_.erase(group_it);

  auto next_port = [&](DeviceId dev) {
    int max_port = -1;
    for (const LinkId other : links_at(dev)) {
      const Link& o = link(other);
      max_port = std::max(max_port, o.end_a.device == dev ? o.end_a.port : o.end_b.port);
    }
    return max_port + 1;
  };

  // A new cable run: fresh conditions, in a new contact epoch.
  for (LinkEnd* end : {&l.end_a, &l.end_b}) {
    end->condition = EndCondition{.contact_epoch = end->condition.contact_epoch};
    reset_contacts(end->condition);
  }
  l.end_a.device = new_a;
  l.end_a.port = next_port(new_a);
  l.end_b.device = new_b;
  l.end_b.port = next_port(new_b);
  l.cable = CableCondition{};
  l.gray_until = sim_->now();
  device_links_.at(static_cast<size_t>(new_a.value())).push_back(id);
  device_links_.at(static_cast<size_t>(new_b.value())).push_back(id);
  link_groups_[pair_key(new_a, new_b)].push_back(id);
  ++structure_generation_;

  // Re-route the physical cable and re-assign medium/SKU for the new length.
  topology::LinkSpec& spec = blueprint_.link_mut(l.topology_link_index);
  spec.node_a = new_a.value();
  spec.port_a = l.end_a.port;
  spec.node_b = new_b.value();
  spec.port_b = l.end_b.port;
  spec.route = blueprint_.layout().route_cable(device(new_a).location,
                                               device(new_b).location);
  l.length_m = spec.route.length_m;
  sim::RngFactory rngs{cfg_.seed ^ static_cast<std::uint64_t>(id.value())};
  sim::RngStream rng = rngs.stream("network.rewire");
  assign_hardware(rng, l);

  refresh_link(id);
}

std::size_t Network::count_links(LinkState s) const {
  std::size_t n = 0;
  for (const Link& l : links_) {
    if (l.state == s) ++n;
  }
  return n;
}

void Network::check_invariants() const {
  SMN_ASSERT(device_links_.size() == devices_.size(), "adjacency rows %zu != devices %zu",
             device_links_.size(), devices_.size());
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    const Device& d = devices_[i];
    SMN_ASSERT(d.id.value() == static_cast<std::int32_t>(i), "device %zu holds id %d", i,
               d.id.value());
  }

  const auto in_range = [&](DeviceId id) {
    return id.valid() && id.value() < static_cast<std::int32_t>(devices_.size());
  };
  const auto unit_interval = [](double v) { return v >= 0.0 && v <= 1.0; };
  std::size_t down = 0;
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const Link& l = links_[i];
    SMN_ASSERT(l.id.value() == static_cast<std::int32_t>(i), "link %zu holds id %d", i,
               l.id.value());
    down += static_cast<std::size_t>(l.state == LinkState::kDown);
    SMN_ASSERT(in_range(l.end_a.device) && in_range(l.end_b.device),
               "link %d endpoints (%d, %d) out of range", l.id.value(), l.end_a.device.value(),
               l.end_b.device.value());
    SMN_ASSERT(l.end_a.device != l.end_b.device, "link %d is a self-loop", l.id.value());
    SMN_ASSERT(l.end_a.port >= 0 && l.end_b.port >= 0, "link %d has unassigned ports",
               l.id.value());
    for (const LinkEnd* end : {&l.end_a, &l.end_b}) {
      SMN_ASSERT(unit_interval(end->condition.contamination) &&
                     unit_interval(end->condition.oxidation),
                 "link %d end-face condition out of [0,1]: contamination=%f oxidation=%f",
                 l.id.value(), end->condition.contamination, end->condition.oxidation);
    }
    SMN_ASSERT(l.cable.wear >= 0.0, "link %d negative cable wear %f", l.id.value(),
               l.cable.wear);
    SMN_ASSERT(l.length_m > 0.0 && l.capacity_gbps > 0.0,
               "link %d non-physical length %f / capacity %f", l.id.value(), l.length_m,
               l.capacity_gbps);
  }
  SMN_ASSERT(down == links_down_, "Down-link count %zu != recount %zu", links_down_, down);

  // The adjacency index must mirror link endpoints exactly: each link appears
  // once in each endpoint's row and nowhere else.
  std::vector<int>& seen = check_seen_;
  seen.assign(links_.size(), 0);
  for (std::size_t dev = 0; dev < device_links_.size(); ++dev) {
    for (const LinkId lid : device_links_[dev]) {
      SMN_ASSERT(lid.valid() && lid.value() < static_cast<std::int32_t>(links_.size()),
                 "device %zu lists unknown link %d", dev, lid.value());
      const Link& l = links_[static_cast<std::size_t>(lid.value())];
      const auto did = static_cast<std::int32_t>(dev);
      SMN_ASSERT(l.end_a.device.value() == did || l.end_b.device.value() == did,
                 "device %zu lists link %d it does not terminate", dev, lid.value());
      ++seen[static_cast<std::size_t>(lid.value())];
    }
  }
  for (std::size_t i = 0; i < links_.size(); ++i) {
    SMN_ASSERT(seen[i] == 2, "link %zu appears %d times in the adjacency (want 2)", i, seen[i]);
  }

  // The parallel-link group index must list every link exactly once, under
  // the key of its current endpoints.
  std::size_t grouped = 0;
  for (const auto& [key, group] : link_groups_) {
    SMN_ASSERT(!group.empty(), "group index holds empty group for key %llu",
               static_cast<unsigned long long>(key));
    for (const LinkId lid : group) {
      SMN_ASSERT(lid.valid() && lid.value() < static_cast<std::int32_t>(links_.size()),
                 "group index lists unknown link %d", lid.value());
      const Link& l = links_[static_cast<std::size_t>(lid.value())];
      SMN_ASSERT(pair_key(l.end_a.device, l.end_b.device) == key,
                 "link %d filed under stale endpoint key", lid.value());
      ++grouped;
    }
  }
  SMN_ASSERT(grouped == links_.size(), "group index holds %zu links (want %zu)", grouped,
             links_.size());

  // Role rosters partition the device set; `servers_` is exactly the
  // non-switch slice in id order.
  std::size_t rostered = 0;
  for (const auto& roster : role_rosters_) rostered += roster.size();
  SMN_ASSERT(rostered == devices_.size(), "role rosters hold %zu devices (want %zu)",
             rostered, devices_.size());
  for (const DeviceId sid : servers_) {
    SMN_ASSERT(!topology::is_switch(device(sid).role), "servers_ lists switch %d",
               sid.value());
  }

  // A fresh CSR must mirror the jagged adjacency row-for-row.
  if (csr_structure_generation_ == structure_generation_) {
    SMN_ASSERT(csr_.offsets.size() == devices_.size() + 1 &&
                   csr_.peer.size() == links_.size() * 2,
               "CSR shape (%zu offsets, %zu entries) disagrees with network",
               csr_.offsets.size(), csr_.peer.size());
    for (std::size_t dev = 0; dev < device_links_.size(); ++dev) {
      const auto begin = static_cast<std::size_t>(csr_.offsets[dev]);
      SMN_ASSERT(static_cast<std::size_t>(csr_.offsets[dev + 1]) - begin ==
                     device_links_[dev].size(),
                 "CSR row %zu length disagrees with adjacency", dev);
      for (std::size_t k = 0; k < device_links_[dev].size(); ++k) {
        SMN_ASSERT(csr_.link[begin + k] == device_links_[dev][k],
                   "CSR row %zu entry %zu out of order", dev, k);
      }
    }
  }
}

std::size_t Network::transceiver_sku_count() const {
  std::set<std::tuple<FormFactor, TabStyle, std::uint8_t, bool>> skus;
  for (const Link& l : links_) {
    const TransceiverModel& m = l.end_a.model;
    skus.insert({m.form_factor, m.tab, m.vendor, m.angled_end_face});
  }
  return skus.size();
}

}  // namespace smn::net
