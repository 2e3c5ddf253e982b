#include "analysis/survivability.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "analysis/stats.h"
#include "core/check.h"
#include "obs/metrics.h"
#include "sim/rng.h"

namespace smn::analysis {
namespace {

/// Checkerboard side of a node: the canonical bipartition every builder and
/// the oracle agree on. Index parity interleaves servers and switches across
/// both halves for every preset, so the cut stays structurally meaningful
/// without per-topology knowledge.
[[nodiscard]] bool checkerboard_side(std::int32_t node) { return (node & 1) != 0; }

void append_u64(std::string& bytes, std::uint64_t v) {
  char buf[sizeof(v)];
  std::memcpy(buf, &v, sizeof(v));
  bytes.append(buf, sizeof(v));
}

void append_doubles(std::string& bytes, const std::vector<double>& values) {
  for (const double v : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    append_u64(bytes, bits);
  }
}

/// Trapezoid area under the mean curve over failed fraction in [0, 1].
[[nodiscard]] double curve_auc(const std::vector<double>& mean) {
  if (mean.size() < 2) return mean.empty() ? 0.0 : mean.front();
  double area = 0.0;
  for (std::size_t k = 0; k + 1 < mean.size(); ++k) area += 0.5 * (mean[k] + mean[k + 1]);
  return area / static_cast<double>(mean.size() - 1);
}

}  // namespace

const char* to_string(FailureMode mode) {
  switch (mode) {
    case FailureMode::kLinks: return "links";
    case FailureMode::kSwitches: return "switches";
  }
  return "unknown";
}

double curve_value_at(const CurveSummary& curve, double failed_fraction) {
  if (curve.mean.empty()) return 0.0;
  const double clamped = std::clamp(failed_fraction, 0.0, 1.0);
  const auto idx = static_cast<std::size_t>(
      std::llround(clamped * static_cast<double>(curve.mean.size() - 1)));
  return curve.mean[idx];
}

FrontierResult aggregate_curves(FailureMode mode, std::size_t elements, std::size_t devices,
                                std::size_t servers,
                                std::span<const SurvivabilityCurves> samples) {
  FrontierResult out;
  out.mode = mode;
  out.elements = elements;
  out.devices = devices;
  out.servers = servers;
  out.samples = samples.size();
  if (samples.empty()) return out;

  const std::size_t points = elements + 1;
  // Every point has the same sample count, so one t quantile serves them all.
  const double t975 = student_t_975(static_cast<double>(samples.size() - 1));
  std::vector<double> sorted(samples.size());
  const auto aggregate_one = [&](auto member, CurveSummary& summary) {
    summary.mean.resize(points);
    summary.ci95.resize(points);
    for (std::size_t k = 0; k < points; ++k) {
      for (std::size_t s = 0; s < samples.size(); ++s) {
        const std::vector<double>& curve = samples[s].*member;
        SMN_ASSERT(curve.size() == points, "sample %zu has %zu points, expected %zu", s,
                   curve.size(), points);
        sorted[s] = curve[k];
      }
      // Sorted accumulation: the aggregate is independent of sample order.
      std::sort(sorted.begin(), sorted.end());
      Moments moments;
      for (const double v : sorted) moments.push(v);
      summary.mean[k] = moments.mean();
      summary.ci95[k] = moments.ci95(t975);
    }
  };
  aggregate_one(&SurvivabilityCurves::largest_component, out.largest_component);
  aggregate_one(&SurvivabilityCurves::server_reachability, out.server_reachability);
  aggregate_one(&SurvivabilityCurves::bisection, out.bisection);

  out.auc_connectivity = curve_auc(out.largest_component.mean);
  out.auc_reachability = curve_auc(out.server_reachability.mean);
  out.auc_bisection = curve_auc(out.bisection.mean);

  std::string bytes;
  bytes.reserve((6 * points + 4) * sizeof(std::uint64_t));
  append_u64(bytes, static_cast<std::uint64_t>(mode));
  append_u64(bytes, elements);
  append_u64(bytes, samples.size());
  for (const CurveSummary* c :
       {&out.largest_component, &out.server_reachability, &out.bisection}) {
    append_doubles(bytes, c->mean);
    append_doubles(bytes, c->ci95);
  }
  out.hash = obs::fnv1a(bytes);
  return out;
}

SurvivabilityFrontier::SurvivabilityFrontier(const topology::Blueprint& bp) {
  const std::vector<topology::NodeSpec>& nodes = bp.nodes();
  if (nodes.empty()) {
    throw std::invalid_argument{"SurvivabilityFrontier: blueprint has no nodes"};
  }
  node_count_ = nodes.size();
  is_server_.resize(node_count_);
  for (std::size_t i = 0; i < node_count_; ++i) {
    const bool server = !topology::is_switch(nodes[i].role);
    is_server_[i] = server ? 1 : 0;
    if (server) {
      ++server_total_;
    } else {
      switch_nodes_.push_back(static_cast<std::int32_t>(i));
    }
  }

  links_.reserve(bp.links().size());
  for (const topology::LinkSpec& l : bp.links()) {
    LinkRec rec;
    rec.a = static_cast<std::int32_t>(l.node_a);
    rec.b = static_cast<std::int32_t>(l.node_b);
    rec.capacity = capacity_units(l.capacity_gbps);
    rec.crossing = checkerboard_side(rec.a) != checkerboard_side(rec.b);
    links_.push_back(rec);
  }

  // CSR incidence lists (counting sort by endpoint), used by kSwitches replay
  // to activate every link of a re-added switch.
  incident_offset_.assign(node_count_ + 1, 0);
  for (const LinkRec& l : links_) {
    ++incident_offset_[static_cast<std::size_t>(l.a) + 1];
    ++incident_offset_[static_cast<std::size_t>(l.b) + 1];
  }
  for (std::size_t i = 1; i < incident_offset_.size(); ++i) {
    incident_offset_[i] += incident_offset_[i - 1];
  }
  incident_link_.resize(2 * links_.size());
  std::vector<std::int32_t> cursor(incident_offset_.begin(), incident_offset_.end() - 1);
  for (std::size_t li = 0; li < links_.size(); ++li) {
    const LinkRec& l = links_[li];
    incident_link_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(l.a)]++)] =
        static_cast<std::int32_t>(li);
    incident_link_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(l.b)]++)] =
        static_cast<std::int32_t>(li);
  }

  forest_.reset(node_count_);
  comp_servers_.resize(node_count_);
  comp_cut_.resize(node_count_);
  alive_.resize(node_count_);
  const std::size_t max_points = std::max(links_.size(), switch_nodes_.size()) + 1;
  raw_largest_.resize(max_points);
  raw_servers_.resize(max_points);
  raw_cut_.resize(max_points);
}

std::size_t SurvivabilityFrontier::element_count(FailureMode mode) const {
  return mode == FailureMode::kLinks ? links_.size() : switch_nodes_.size();
}

std::uint64_t SurvivabilityFrontier::capacity_units(double gbps) {
  if (!(gbps > 0.0)) return 0;
  return static_cast<std::uint64_t>(std::llround(gbps * 1000.0));
}

std::uint64_t SurvivabilityFrontier::mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 0x632be59bd9b4e019ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<std::uint64_t> SurvivabilityFrontier::ordering_seeds(std::uint64_t base, int count) {
  std::vector<std::uint64_t> seeds;
  seeds.reserve(static_cast<std::size_t>(std::max(0, count)));
  for (int i = 0; i < count; ++i) seeds.push_back(mix_seed(base, static_cast<std::uint64_t>(i)));
  return seeds;
}

void SurvivabilityFrontier::make_ordering(FailureMode mode, std::uint64_t seed,
                                          std::vector<std::int32_t>& out) const {
  const std::size_t m = element_count(mode);
  out.resize(m);
  for (std::size_t i = 0; i < m; ++i) out[i] = static_cast<std::int32_t>(i);
  sim::RngStream rng{seed};
  rng.shuffle(out);
}

void SurvivabilityFrontier::add_link(const LinkRec& link) {
  const auto [root, absorbed] = forest_.unite(link.a, link.b);
  const auto ur = static_cast<std::size_t>(root);
  const std::uint64_t cross = link.crossing ? link.capacity : 0;
  if (root == absorbed) {
    comp_cut_[ur] += cross;
    if (comp_servers_[ur] > 0) active_cut_ += cross;
    return;
  }
  const auto ua = static_cast<std::size_t>(absorbed);
  if (comp_servers_[ur] > 0) active_cut_ -= comp_cut_[ur];
  if (comp_servers_[ua] > 0) active_cut_ -= comp_cut_[ua];
  comp_servers_[ur] += comp_servers_[ua];
  comp_cut_[ur] += comp_cut_[ua] + cross;
  if (comp_servers_[ur] > 0) active_cut_ += comp_cut_[ur];
  max_component_ = std::max(max_component_, forest_.size(root));
  max_servers_ = std::max(max_servers_, comp_servers_[ur]);
}

void SurvivabilityFrontier::reset_forest() {
  forest_.reset(node_count_);
  for (std::size_t i = 0; i < node_count_; ++i) {
    comp_servers_[i] = is_server_[i];
    comp_cut_[i] = 0;
  }
  active_cut_ = 0;
}

void SurvivabilityFrontier::record_point(std::size_t k) {
  raw_largest_[k] = max_component_;
  raw_servers_[k] = max_servers_;
  raw_cut_[k] = active_cut_;
}

void SurvivabilityFrontier::replay(FailureMode mode, std::span<const std::int32_t> order,
                                   SurvivabilityCurves& out) {
  const std::size_t m = element_count(mode);
  SMN_ASSERT(order.size() == m, "ordering has %zu elements, expected %zu", order.size(), m);
  reset_forest();

  if (mode == FailureMode::kLinks) {
    // All devices alive throughout; links come back in reverse failure order.
    max_component_ = node_count_ > 0 ? 1 : 0;
    max_servers_ = server_total_ > 0 ? 1 : 0;
    record_point(m);
    for (std::size_t k = m; k-- > 0;) {
      add_link(links_[static_cast<std::size_t>(order[k])]);
      record_point(k);
    }
  } else {
    // Servers start alive as singletons; switches come back one at a time,
    // activating every incident link whose peer is already alive.
    for (std::size_t i = 0; i < node_count_; ++i) alive_[i] = is_server_[i];
    max_component_ = server_total_ > 0 ? 1 : 0;
    max_servers_ = server_total_ > 0 ? 1 : 0;
    for (const LinkRec& l : links_) {
      if (alive_[static_cast<std::size_t>(l.a)] != 0 &&
          alive_[static_cast<std::size_t>(l.b)] != 0) {
        add_link(l);
      }
    }
    record_point(m);
    for (std::size_t k = m; k-- > 0;) {
      const auto node = static_cast<std::size_t>(switch_nodes_[static_cast<std::size_t>(order[k])]);
      alive_[node] = 1;
      max_component_ = std::max(max_component_, std::int32_t{1});
      const auto begin = static_cast<std::size_t>(incident_offset_[node]);
      const auto end = static_cast<std::size_t>(incident_offset_[node + 1]);
      for (std::size_t e = begin; e < end; ++e) {
        const LinkRec& l = links_[static_cast<std::size_t>(incident_link_[e])];
        const auto peer = static_cast<std::size_t>(
            static_cast<std::size_t>(l.a) == node ? l.b : l.a);
        if (alive_[peer] != 0) add_link(l);
      }
      record_point(k);
    }
  }

  // Raw integer maxima -> fractions. Every value is one division of two
  // integers both the engine and the BFS oracle maintain exactly, so the two
  // implementations agree bit-for-bit.
  const std::size_t points = m + 1;
  out.largest_component.resize(points);
  out.server_reachability.resize(points);
  out.bisection.resize(points);
  const double device_den = static_cast<double>(node_count_);
  const double server_den = static_cast<double>(server_total_);
  const std::uint64_t pristine_cut = raw_cut_[0];
  for (std::size_t k = 0; k < points; ++k) {
    out.largest_component[k] = static_cast<double>(raw_largest_[k]) / device_den;
    out.server_reachability[k] =
        server_total_ > 0 ? static_cast<double>(raw_servers_[k]) / server_den : 1.0;
    out.bisection[k] = pristine_cut > 0
                           ? static_cast<double>(raw_cut_[k]) / static_cast<double>(pristine_cut)
                           : 1.0;
  }
}

FrontierResult SurvivabilityFrontier::compute(FailureMode mode,
                                              std::span<const std::uint64_t> ordering_seeds) {
  std::vector<SurvivabilityCurves> samples(ordering_seeds.size());
  for (std::size_t s = 0; s < ordering_seeds.size(); ++s) {
    make_ordering(mode, ordering_seeds[s], order_scratch_);
    replay(mode, order_scratch_, samples[s]);
  }
  return aggregate_curves(mode, element_count(mode), node_count_, server_total_, samples);
}

FrontierResult SurvivabilityFrontier::compute(const SurvivabilityConfig& cfg) {
  const std::vector<std::uint64_t> seeds = ordering_seeds(cfg.seed, cfg.orderings);
  return compute(cfg.mode, seeds);
}

}  // namespace smn::analysis
