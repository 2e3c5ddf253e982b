// Small statistics toolkit used by experiments: streaming moments, exact
// percentiles over retained samples, and Student-t confidence intervals.
#pragma once

#include <math.h>  // lgamma_r

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace smn::analysis {

namespace detail {

/// Continued fraction of the regularised incomplete beta function (modified
/// Lentz; Numerical Recipes 3rd ed. §6.4).
[[nodiscard]] inline double beta_cf(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  const auto guard = [](double v) { return std::abs(v) < kTiny ? kTiny : v; };
  double c = 1.0;
  double d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0));
  double h = d;
  for (int m = 1; m < 1000; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((a - 1.0 + m2) * (a + m2));
    d = 1.0 / guard(1.0 + aa * d);
    c = guard(1.0 + aa / c);
    h *= d * c;
    aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2));
    d = 1.0 / guard(1.0 + aa * d);
    c = guard(1.0 + aa / c);
    const double step = d * c;
    h *= step;
    if (std::abs(step - 1.0) < 1e-15) break;
  }
  return h;
}

/// ln Γ(x). std::lgamma also stores the sign of Γ(x) in the global
/// `signgam`, a data race when sweep workers aggregate frontiers at once;
/// the POSIX reentrant form returns the same value and keeps the sign local.
[[nodiscard]] inline double log_gamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

/// I_x(a, b), the regularised incomplete beta function.
[[nodiscard]] inline double incomplete_beta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double front = std::exp(log_gamma(a + b) - log_gamma(a) - log_gamma(b) +
                                a * std::log(x) + b * std::log1p(-x));
  return x < (a + 1.0) / (a + b + 2.0) ? front * beta_cf(a, b, x) / a
                                       : 1.0 - front * beta_cf(b, a, 1.0 - x) / b;
}

}  // namespace detail

/// t_{0.975}(df): the Student-t quantile behind a two-sided 95% interval.
/// Bisects P(|T| > t) = I_{df/(df+t^2)}(df/2, 1/2) = 0.05.
[[nodiscard]] inline double student_t_975(double df) {
  if (!(df > 0.0)) return 0.0;
  const auto tail = [df](double t) {
    return detail::incomplete_beta(0.5 * df, 0.5, df / (df + t * t));
  };
  double lo = 0.0;
  double hi = 2.0;
  while (tail(hi) > 0.05) hi *= 2.0;
  for (int i = 0; i < 100 && hi - lo > 1e-12 * hi; ++i) {
    const double mid = 0.5 * (lo + hi);
    (tail(mid) > 0.05 ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

/// Streaming count, sum and sum of squares: the one place the mean, standard
/// deviation and interval formulas live. Holds no samples, so a caller
/// summarising many points with one sample count can reuse one t quantile.
class Moments {
 public:
  void push(double x) {
    ++n_;
    sum_ += x;
    sum_sq_ += x * x;
  }

  [[nodiscard]] double mean() const { return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_); }

  [[nodiscard]] double stddev() const {
    if (n_ < 2) return 0.0;
    const double m = mean();
    const double var = (sum_sq_ - static_cast<double>(n_) * m * m) / static_cast<double>(n_ - 1);
    return var > 0.0 ? std::sqrt(var) : 0.0;
  }

  /// Half-width of the 95% Student-t interval on the mean over n samples,
  /// t * sd / sqrt(n), where `t975` is student_t_975(n - 1); 0 below two.
  [[nodiscard]] double ci95(double t975) const {
    if (n_ < 2) return 0.0;
    return t975 * stddev() / std::sqrt(static_cast<double>(n_));
  }

 private:
  std::size_t n_ = 0;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
};

class SampleStats {
 public:
  void push(double x) {
    samples_.push_back(x);
    sorted_ = false;
    moments_.push(x);
  }

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

  [[nodiscard]] double mean() const { return moments_.mean(); }
  [[nodiscard]] double stddev() const { return moments_.stddev(); }

  /// Half-width of the 95% Student-t interval on the mean,
  /// t_{0.975}(n-1) * sd / sqrt(n); 0 below two samples.
  [[nodiscard]] double ci95() const {
    return moments_.ci95(student_t_975(static_cast<double>(count()) - 1.0));
  }

  [[nodiscard]] double min() const { return order_statistic(0.0); }
  [[nodiscard]] double max() const { return order_statistic(1.0); }
  [[nodiscard]] double median() const { return percentile(50.0); }

  /// Exact percentile (nearest-rank on the retained samples), p in [0, 100].
  [[nodiscard]] double percentile(double p) const {
    if (p < 0.0 || p > 100.0) throw std::invalid_argument{"percentile: p out of range"};
    return order_statistic(p / 100.0);
  }

  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  [[nodiscard]] double order_statistic(double q) const {
    if (samples_.empty()) return 0.0;
    if (!sorted_) {
      sorted_samples_ = samples_;
      std::sort(sorted_samples_.begin(), sorted_samples_.end());
      sorted_ = true;
    }
    const auto idx = static_cast<std::size_t>(q * (static_cast<double>(sorted_samples_.size()) - 1) + 0.5);
    return sorted_samples_[std::min(idx, sorted_samples_.size() - 1)];
  }

  std::vector<double> samples_;
  mutable std::vector<double> sorted_samples_;
  mutable bool sorted_ = false;
  Moments moments_;
};

}  // namespace smn::analysis
