#include "sim/rng.h"

#include <cmath>
#include <numbers>
#include <numeric>

namespace smn::sim {
namespace {

// FNV-1a, then a splitmix64 finalizer for avalanche. Stable across platforms,
// unlike std::hash, so a (seed, name) pair reproduces everywhere.
std::uint64_t hash_name(std::string_view name) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  h += 0x9E3779B97F4A7C15ULL;
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
  return h ^ (h >> 31);
}

}  // namespace

std::size_t RngStream::weighted_index(std::span<const double> weights) {
  if (weights.empty()) throw std::invalid_argument{"weighted_index on empty weights"};
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (total <= 0.0) throw std::invalid_argument{"weighted_index needs positive total weight"};
  double x = uniform(0.0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x <= 0.0) return i;
  }
  return weights.size() - 1;
}

std::int64_t RngStream::geometric(double p) {
  if (p >= 1.0) return 0;
  if (!(p > 0.0)) return kNever;
  ++owned_draws_;
  // 1 - u is uniform on (0, 1], so the log is finite; P(G = k) is
  // (1-p)^k - (1-p)^(k+1) = (1-p)^k p exactly, up to the 2^-53 grid.
  const double g = std::floor(std::log1p(-unit53()) / std::log1p(-p));
  return g < static_cast<double>(kNever) ? static_cast<std::int64_t>(g) : kNever;
}

double RngStream::unit_normal() {
  const double u1 = unit53();
  const double u2 = unit53();
  return std::sqrt(-2.0 * std::log1p(-u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

double RngStream::gamma(double shape, double scale) {
  if (!(shape > 0.0) || !(scale > 0.0)) return 0.0;
  ++owned_draws_;
  const double boost = shape < 1.0 ? std::pow(1.0 - unit53(), 1.0 / shape) : 1.0;
  const double d = (shape < 1.0 ? shape + 1.0 : shape) - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    const double x = unit_normal();
    double v = 1.0 + c * x;
    if (v <= 0.0) continue;
    v = v * v * v;
    const double u = 1.0 - unit53();  // (0, 1]: log(u) stays finite
    if (u < 1.0 - 0.0331 * (x * x) * (x * x) ||
        std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v * boost * scale;
    }
  }
}

RngStream RngFactory::stream(std::string_view name) const {
  return RngStream{master_seed_ ^ hash_name(name)};
}

}  // namespace smn::sim
