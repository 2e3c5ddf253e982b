// Survivability frontier: progressive-failure curves for a fabric blueprint.
//
// Couto et al.'s survivability methodology replaces one-number availability
// with full degradation curves: pick a random ordering in which elements
// (links or switches) fail, and record — after every single failure — the
// largest-component fraction, the server-reachability fraction, and a
// bisection-bandwidth proxy. Averaged over many orderings this traces the
// *frontier* along which a topology degrades, which is the quantity the
// paper's self-maintainability claim is ultimately about.
//
// The naive computation re-runs BFS over the surviving graph after every
// removal — O(M * (V + E)) per ordering. SurvivabilityFrontier instead
// replays each ordering IN REVERSE through an add-only union-find (the
// net::DisjointSet behind net::ConnectivityEngine's forests too):
// start from the fully-failed state and re-add elements one at a time,
// recording curve point k right before re-adding failed element k. Deletion
// becomes insertion, every curve costs O(M * alpha(V)) merges, and the whole
// replay loop is allocation-free after the constructor (scratch buffers are
// sized once and reused across orderings).
//
// Exactness contract: every curve value is a single double division of two
// exactly-maintained integers (component sizes, server counts, and link
// capacities pre-converted to integral milli-Gbps units), so the incremental
// engine is bit-identical to a brute-force per-step BFS oracle — which
// tests/survivability_test.cpp enforces on every preset topology.
//
// Curve definitions, with k = number of failed elements (index 0..M):
//   largest_component[k]   = max alive-component device count / total devices
//   server_reachability[k] = max per-component alive-server count / servers
//                            (1.0 when the blueprint has no servers)
//   bisection[k]           = C(k) / C(0), where C is the total capacity of
//                            alive links crossing the canonical checkerboard
//                            bipartition (node index parity) restricted to
//                            components containing at least one alive server
//                            (1.0 throughout when C(0) == 0)
// All three are monotone non-increasing in k. In kLinks mode every device
// stays alive and links fail in order; in kSwitches mode switches fail in
// order while servers (and hence the reachability denominator) stay alive.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/disjoint_set.h"
#include "topology/blueprint.h"

namespace smn::analysis {

enum class FailureMode : std::uint8_t {
  kLinks,     // links fail one at a time; devices stay up
  kSwitches,  // switches fail one at a time; servers stay up
};

[[nodiscard]] const char* to_string(FailureMode mode);

/// Knobs carried by scenario::WorldConfig; the sweep runner computes the
/// frontier post-run on the cell blueprint (the engine is a pure observer —
/// it never touches the simulation, which the determinism audit verifies).
struct SurvivabilityConfig {
  bool enabled = false;
  FailureMode mode = FailureMode::kLinks;
  /// Failure orderings sampled per replicate (per hall for campus cells).
  int orderings = 16;
  /// Mixed with the replicate seed (and hall index) to derive ordering seeds.
  std::uint64_t seed = 1;
};

/// One ordering's raw curves, indexed by failed-element count 0..M.
struct SurvivabilityCurves {
  std::vector<double> largest_component;
  std::vector<double> server_reachability;
  std::vector<double> bisection;
};

/// Mean curve with the half-width of the 95% normal CI at every point.
struct CurveSummary {
  std::vector<double> mean;
  std::vector<double> ci95;
};

/// Aggregate of many sample curves (orderings, or hall x ordering for a
/// campus). `hash` is an FNV-1a digest of the mean/ci95 arrays — the
/// determinism signal --audit-determinism gates on.
struct FrontierResult {
  FailureMode mode = FailureMode::kLinks;
  std::size_t elements = 0;  // M: failable elements (curves have M+1 points)
  std::size_t devices = 0;
  std::size_t servers = 0;
  std::size_t samples = 0;  // aggregated sample curves
  CurveSummary largest_component;
  CurveSummary server_reachability;
  CurveSummary bisection;
  /// Normalized area under each mean curve over failed fraction in [0, 1]
  /// (trapezoid rule): 1.0 = no degradation at all, 0.0 = instant collapse.
  double auc_connectivity = 0.0;
  double auc_reachability = 0.0;
  double auc_bisection = 0.0;
  std::uint64_t hash = 0;

  [[nodiscard]] bool present() const { return samples > 0; }
};

/// Mean-curve value at the point closest to `failed_fraction` in [0, 1].
[[nodiscard]] double curve_value_at(const CurveSummary& curve, double failed_fraction);

/// Permutation-invariant aggregation: at every curve point the sample values
/// are sorted before accumulation, so the result is byte-identical no matter
/// in which order the samples were produced (ordering-seed permutations,
/// campus hall interleavings). Mean/CI accumulate through SampleStats.
[[nodiscard]] FrontierResult aggregate_curves(FailureMode mode, std::size_t elements,
                                              std::size_t devices, std::size_t servers,
                                              std::span<const SurvivabilityCurves> samples);

class SurvivabilityFrontier {
 public:
  /// Precomputes the flat link table (integer capacities, crossing flags) and
  /// CSR incidence lists. Throws std::invalid_argument on an empty blueprint.
  explicit SurvivabilityFrontier(const topology::Blueprint& bp);

  [[nodiscard]] std::size_t element_count(FailureMode mode) const;
  [[nodiscard]] std::size_t device_count() const { return node_count_; }
  [[nodiscard]] std::size_t server_count() const { return server_total_; }

  /// Capacity quantization shared with the differential oracle: milli-Gbps,
  /// rounded half away from zero. All cut arithmetic is integral so the
  /// accumulation order can never change a curve bit.
  [[nodiscard]] static std::uint64_t capacity_units(double gbps);

  /// splitmix64-style mix; used to derive ordering seeds from
  /// (config seed, replicate seed, hall index) without stream overlap.
  [[nodiscard]] static std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b);

  /// The `count` ordering seeds derived from `base`: mix_seed(base, i).
  [[nodiscard]] static std::vector<std::uint64_t> ordering_seeds(std::uint64_t base, int count);

  /// Deterministic failure ordering: Fisher-Yates shuffle of [0, M) under
  /// sim::RngStream{seed}. `out` is reused (no allocation at steady size).
  void make_ordering(FailureMode mode, std::uint64_t seed, std::vector<std::int32_t>& out) const;

  /// Replays one failure ordering (a permutation of [0, M)) in reverse
  /// through the add-only union-find and fills the three curves with M+1
  /// points each. Allocation-free once `out` has reached steady size.
  void replay(FailureMode mode, std::span<const std::int32_t> order, SurvivabilityCurves& out);

  /// One sample curve per ordering seed, aggregated permutation-invariantly.
  [[nodiscard]] FrontierResult compute(FailureMode mode,
                                       std::span<const std::uint64_t> ordering_seeds);
  [[nodiscard]] FrontierResult compute(const SurvivabilityConfig& cfg);

 private:
  struct LinkRec {
    std::int32_t a = -1;
    std::int32_t b = -1;
    std::uint64_t capacity = 0;  // milli-Gbps
    bool crossing = false;       // endpoints on opposite checkerboard sides
  };

  void add_link(const LinkRec& link);
  void reset_forest();
  void record_point(std::size_t k);

  // Immutable after construction.
  std::size_t node_count_ = 0;
  std::size_t server_total_ = 0;
  std::vector<std::uint8_t> is_server_;
  std::vector<std::int32_t> switch_nodes_;  // kSwitches element -> node index
  std::vector<LinkRec> links_;
  std::vector<std::int32_t> incident_offset_;  // CSR: node -> incident links
  std::vector<std::int32_t> incident_link_;

  // Replay scratch, sized once in the constructor.
  net::DisjointSet forest_;
  std::vector<std::int32_t> comp_servers_;
  std::vector<std::uint64_t> comp_cut_;
  std::vector<std::uint8_t> alive_;
  std::vector<std::int32_t> raw_largest_;
  std::vector<std::int32_t> raw_servers_;
  std::vector<std::uint64_t> raw_cut_;
  std::int32_t max_component_ = 0;
  std::int32_t max_servers_ = 0;
  std::uint64_t active_cut_ = 0;

  // compute() scratch (reused across seeds; allocation only on first growth).
  std::vector<std::int32_t> order_scratch_;
};

}  // namespace smn::analysis
