// p-values for the statistical oracles, in plain C++ (no numpy/scipy here):
// chi-square through the regularised upper incomplete gamma function, and
// two-sample Kolmogorov–Smirnov through the Kolmogorov series. Numerical
// Recipes (3rd ed., §6.2 and §14.3) is the reference for both.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace smn::testutil {

/// Q(a, x) = Γ(a, x) / Γ(a): the series for x < a + 1, else Lentz's
/// continued fraction.
[[nodiscard]] inline double gamma_q(double a, double x) {
  if (x <= 0.0) return 1.0;
  const double log_prefix = -x + a * std::log(x) - std::lgamma(a);
  if (x < a + 1.0) {
    double term = 1.0 / a;
    double sum = term;
    for (int n = 1; n < 10000; ++n) {
      term *= x / (a + n);
      sum += term;
      if (std::abs(term) < std::abs(sum) * 1e-15) break;
    }
    return std::max(0.0, 1.0 - sum * std::exp(log_prefix));
  }
  constexpr double kTiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i < 10000; ++i) {
    const double an = -i * (i - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::abs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1.0) < 1e-15) break;
  }
  return std::exp(log_prefix) * h;
}

/// Upper tail of the chi-square distribution with `df` degrees of freedom.
[[nodiscard]] inline double chi2_sf(double x, double df) { return gamma_q(0.5 * df, 0.5 * x); }

/// Kolmogorov's Q_KS(λ) = 2 Σ_{j≥1} (-1)^{j-1} exp(-2 j² λ²).
[[nodiscard]] inline double kolmogorov_q(double lambda) {
  if (lambda < 0.2) return 1.0;  // the series converges slowly; Q is 1 to 1e-9 here
  double sum = 0.0;
  double sign = 1.0;
  for (int j = 1; j <= 200; ++j) {
    const double term = sign * std::exp(-2.0 * j * j * lambda * lambda);
    sum += term;
    if (std::abs(term) < 1e-16) break;
    sign = -sign;
  }
  return std::clamp(2.0 * sum, 0.0, 1.0);
}

struct TestResult {
  double statistic = 0.0;
  double df = 0.0;
  double p = 1.0;
};

/// Two-sample KS test. Ties are handled by stepping both empirical CDFs past
/// each distinct value at once; on discrete data the p-value is conservative.
[[nodiscard]] inline TestResult ks_two_sample(std::vector<double> a, std::vector<double> b) {
  TestResult r;
  if (a.empty() || b.empty()) return r;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  std::size_t i = 0;
  std::size_t j = 0;
  double d = 0.0;
  while (i < a.size() && j < b.size()) {
    const double v = std::min(a[i], b[j]);
    while (i < a.size() && a[i] == v) ++i;
    while (j < b.size() && b[j] == v) ++j;
    d = std::max(d, std::abs(static_cast<double>(i) / na - static_cast<double>(j) / nb));
  }
  const double en = std::sqrt(na * nb / (na + nb));
  r.statistic = d;
  r.p = kolmogorov_q((en + 0.12 + 0.11 / en) * d);
  return r;
}

/// Pearson goodness of fit of integer observations to a pmf over 0..pmf.size()-1
/// (the last cell takes the upper tail). Adjacent values pool, from the low
/// end, until each cell expects at least `min_expected`.
[[nodiscard]] inline TestResult chi2_goodness_of_fit(const std::vector<int>& observations,
                                                    const std::vector<double>& pmf,
                                                    double min_expected = 5.0) {
  TestResult r;
  const double n = static_cast<double>(observations.size());
  std::vector<double> observed(pmf.size(), 0.0);
  const int last = static_cast<int>(pmf.size()) - 1;
  for (const int v : observations) {
    observed[static_cast<std::size_t>(std::clamp(v, 0, last))] += 1.0;
  }
  std::vector<std::pair<double, double>> cells;  // (observed, expected)
  std::pair<double, double> cell{0.0, 0.0};
  for (std::size_t k = 0; k < pmf.size(); ++k) {
    cell.first += observed[k];
    cell.second += n * pmf[k];
    if (cell.second >= min_expected) {
      cells.push_back(cell);
      cell = {0.0, 0.0};
    }
  }
  if (cells.empty()) return r;
  cells.back().first += cell.first;
  cells.back().second += cell.second;
  for (const auto& [o, e] : cells) r.statistic += (o - e) * (o - e) / e;
  r.df = static_cast<double>(cells.size()) - 1.0;
  r.p = r.df > 0.0 ? chi2_sf(r.statistic, r.df) : 1.0;
  return r;
}

/// Pearson test of homogeneity for two samples of integer counts (a 2 x B
/// contingency table). Values pool, from the low end, into cells holding at
/// least `min_pooled` observations of the two samples together.
[[nodiscard]] inline TestResult chi2_homogeneity(const std::vector<int>& a,
                                                const std::vector<int>& b,
                                                double min_pooled = 20.0) {
  TestResult r;
  std::map<int, std::pair<double, double>> by_value;
  for (const int v : a) by_value[v].first += 1.0;
  for (const int v : b) by_value[v].second += 1.0;
  std::vector<std::pair<double, double>> cells;
  std::pair<double, double> cell{0.0, 0.0};
  for (const auto& [v, counts] : by_value) {
    cell.first += counts.first;
    cell.second += counts.second;
    if (cell.first + cell.second >= min_pooled) {
      cells.push_back(cell);
      cell = {0.0, 0.0};
    }
  }
  if (cells.empty()) return r;
  cells.back().first += cell.first;
  cells.back().second += cell.second;
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  for (const auto& [oa, ob] : cells) {
    const double pooled = (oa + ob) / (na + nb);
    const double ea = na * pooled;
    const double eb = nb * pooled;
    r.statistic += (oa - ea) * (oa - ea) / ea + (ob - eb) * (ob - eb) / eb;
  }
  r.df = static_cast<double>(cells.size()) - 1.0;
  r.p = r.df > 0.0 ? chi2_sf(r.statistic, r.df) : 1.0;
  return r;
}

/// pmf of Binomial(n, q) over 0..n.
[[nodiscard]] inline std::vector<double> binomial_pmf(int n, double q) {
  std::vector<double> pmf(static_cast<std::size_t>(n) + 1, 0.0);
  for (int k = 0; k <= n; ++k) {
    const double log_choose =
        std::lgamma(n + 1.0) - std::lgamma(k + 1.0) - std::lgamma(n - k + 1.0);
    const double log_p = log_choose + (k > 0 ? k * std::log(q) : 0.0) +
                         (n - k > 0 ? (n - k) * std::log1p(-q) : 0.0);
    pmf[static_cast<std::size_t>(k)] = q <= 0.0 ? (k == 0 ? 1.0 : 0.0)
                                     : q >= 1.0 ? (k == n ? 1.0 : 0.0)
                                                : std::exp(log_p);
  }
  return pmf;
}

/// pmf of the sum of two independent counts.
[[nodiscard]] inline std::vector<double> convolve(const std::vector<double>& x,
                                                  const std::vector<double>& y) {
  std::vector<double> out(x.size() + y.size() - 1, 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    for (std::size_t j = 0; j < y.size(); ++j) out[i + j] += x[i] * y[j];
  }
  return out;
}

}  // namespace smn::testutil
