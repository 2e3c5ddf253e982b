#include <algorithm>
#include <numeric>

#include "perfbench.h"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double trimmed_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 5;
  return mean(std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(cut),
                                  v.end() - static_cast<std::ptrdiff_t>(cut)));
}

std::optional<Tail> tail_percentile(std::vector<double> v) {
  const std::size_t n = v.size();
  if (n <= kTailBeyond) return std::nullopt;
  std::sort(v.begin(), v.end());
  Tail t;
  t.value = v[n - kTailBeyond - 1];
  t.percentile = 100.0 * static_cast<double>(n - kTailBeyond) / static_cast<double>(n);
  t.n = n;
  return t;
}

}  // namespace perfbench
