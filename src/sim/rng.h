// Deterministic random-number streams.
//
// Every stochastic process in the simulator draws from its own named stream
// derived from a single master seed, so adding a new consumer never perturbs
// the draws seen by existing ones and a (seed, stream-name) pair fully
// determines a sequence. This is what makes differential experiments (e.g.
// L0 vs L3 automation on the *same* fault trace) meaningful.
#pragma once

#include <cmath>
#include <cstdint>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace smn::sim {

/// A single deterministic random stream with distribution helpers.
class RngStream {
 public:
  explicit RngStream(std::uint64_t seed) : engine_{seed} {}

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>{lo, hi}(engine_);
  }
  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(engine_);
  }
  [[nodiscard]] bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::bernoulli_distribution{p}(engine_);
  }
  /// Exponential variate with the given mean (not rate).
  [[nodiscard]] double exponential(double mean) {
    return std::exponential_distribution<double>{1.0 / mean}(engine_);
  }
  [[nodiscard]] double normal(double mean, double stddev) {
    return std::normal_distribution<double>{mean, stddev}(engine_);
  }
  /// Normal truncated below at `lo` (re-draws; suitable for lo well below mean).
  [[nodiscard]] double normal_min(double mean, double stddev, double lo) {
    for (int i = 0; i < 64; ++i) {
      const double v = normal(mean, stddev);
      if (v >= lo) return v;
    }
    return lo;
  }
  [[nodiscard]] double lognormal(double log_mean, double log_sigma) {
    return std::lognormal_distribution<double>{log_mean, log_sigma}(engine_);
  }
  /// Weibull variate; shape < 1 gives infant mortality, > 1 wear-out.
  [[nodiscard]] double weibull(double shape, double scale) {
    return std::weibull_distribution<double>{shape, scale}(engine_);
  }
  /// Poisson count with the given mean (0 for non-positive means).
  [[nodiscard]] int poisson(double mean) {
    if (mean <= 0.0) return 0;
    return std::poisson_distribution<int>{mean}(engine_);
  }
  /// Picks an index in [0, weights.size()) proportionally to weights.
  [[nodiscard]] std::size_t weighted_index(std::span<const double> weights);

  /// Picks a uniformly random element index of a non-empty container size.
  [[nodiscard]] std::size_t index(std::size_t size) {
    if (size == 0) throw std::invalid_argument{"RngStream::index on empty range"};
    return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(size) - 1));
  }

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[index(i)]);
    }
  }

  // ---- Owned algorithms --------------------------------------------------
  // The helpers above delegate to <random>'s distributions, whose algorithms
  // the standard leaves to the implementation. The ones below are specified
  // here, over std::mt19937_64 (whose output the standard fixes), so a (seed,
  // name) pair gives the same variates with any standard library. The fault
  // injector draws only these; every other stream keeps the helpers above.
  // Each call that consumes engine output counts once in owned_draws().

  /// Never, as a geometric step count: p <= 0 or a tail too far to matter.
  static constexpr std::int64_t kNever = std::int64_t{1} << 62;

  /// Uniform double in [0, 1) from the top 53 bits of one engine output.
  [[nodiscard]] double uniform53() {
    ++owned_draws_;
    return unit53();
  }
  /// Failures before the first success of independent Bernoulli(p) trials,
  /// by inversion: floor(log1p(-u) / log1p(-p)). p >= 1 gives 0 and p <= 0
  /// gives kNever, both without a draw.
  [[nodiscard]] std::int64_t geometric(double p);
  /// Gamma(shape, scale) by Marsaglia–Tsang (2000); shape < 1 via the
  /// u^(1/shape) boost. shape <= 0 or scale <= 0 gives 0 without a draw.
  [[nodiscard]] double gamma(double shape, double scale);
  /// exp(Normal(log_mean, log_sigma)), the normal by Box–Muller (two
  /// uniforms, the cosine branch).
  [[nodiscard]] double lognormal_bm(double log_mean, double log_sigma) {
    ++owned_draws_;
    return std::exp(log_mean + log_sigma * unit_normal());
  }
  /// Variates the owned algorithms have returned from engine output.
  [[nodiscard]] std::uint64_t owned_draws() const { return owned_draws_; }

  [[nodiscard]] std::mt19937_64& engine() { return engine_; }

 private:
  [[nodiscard]] double unit53() {
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
  }
  [[nodiscard]] double unit_normal();

  std::mt19937_64 engine_;
  std::uint64_t owned_draws_ = 0;
};

/// Factory for named sub-streams, all derived from one master seed.
class RngFactory {
 public:
  explicit RngFactory(std::uint64_t master_seed) : master_seed_{master_seed} {}

  /// Derives a stream whose sequence depends only on (master seed, name).
  [[nodiscard]] RngStream stream(std::string_view name) const;

  [[nodiscard]] std::uint64_t master_seed() const { return master_seed_; }

 private:
  std::uint64_t master_seed_;
};

}  // namespace smn::sim
