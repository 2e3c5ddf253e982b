// Host-speed calibration. Shared hosts change speed by tens of percent from
// one second to the next (co-tenant load, frequency), for every piece of
// code alike. The benchmark runs this fixed kernel next to each timed span;
// kernel time over its reference gives the host's slowdown at that moment,
// and calibrated timings divide it out. The kernel is benchmark-owned code
// (std::mt19937_64 draws, canonical doubles, a small sort: the mix of the
// simulator's hot fault scan) and does not depend on anything in src/.
#include <algorithm>
#include <random>
#include <vector>

#include "perfbench.h"

namespace perfbench {
namespace {

volatile double g_sink = 0.0;

double kernel_once() {
  std::mt19937_64 rng{0x5eedULL};
  std::vector<std::uint32_t> v(1024);
  double acc = 0.0;
  for (int round = 0; round < 8; ++round) {
    for (std::uint32_t& x : v) x = static_cast<std::uint32_t>(rng());
    std::sort(v.begin(), v.end());
    acc += static_cast<double>(v[round]);
    for (int i = 0; i < 4000; ++i) acc += std::generate_canonical<double, 53>(rng);
  }
  return acc;
}

}  // namespace

double host_slowdown(int threads) {
  threads = std::max(1, threads);
  std::vector<double> seconds(static_cast<std::size_t>(threads));
  std::vector<double> sink(seconds.size());
  const auto run = [&seconds, &sink](std::size_t i) {
    const Clock::time_point a = Clock::now();
    sink[i] = kernel_once();
    seconds[i] = seconds_between(a, Clock::now());
  };
  {
    std::vector<std::jthread> helpers;
    for (std::size_t i = 1; i < seconds.size(); ++i) helpers.emplace_back(run, i);
    run(0);
  }
  for (const double s : sink) g_sink = g_sink + s;  // keeps the kernel's work observable
  return mean(seconds) / kCalibrationReference_s;
}

}  // namespace perfbench
