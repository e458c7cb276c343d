// Protocol parameters and the paper's timing constants.
#pragma once

#include <cstddef>

#include "common/names.hpp"
#include "common/types.hpp"
#include "domain/domain.hpp"
#include "geometry/safe_area.hpp"

namespace hydra::protocols {

/// How ΠAA-it turns a safe area into the new value.
enum class Aggregation {
  kDiameterMidpoint,  ///< the paper's rule: midpoint of the diameter pair
  kCentroid,          ///< ablation: mean of the extreme points (no proven
                      ///< contraction factor; measured in
                      ///< bench_aggregation_rules)
};

inline constexpr NameRow<Aggregation> kAggregationNames[] = {
    {Aggregation::kDiameterMidpoint, "midpoint"},
    {Aggregation::kCentroid, "centroid"},
};

/// Static parameters of a ΠAA run, shared by every party.
struct Params {
  std::size_t n = 4;    ///< number of parties
  std::size_t ts = 1;   ///< corruption bound under synchrony
  std::size_t ta = 0;   ///< corruption bound under asynchrony (ta <= ts)
  std::size_t dim = 2;  ///< D, the dimension of the value space
  double eps = 1e-3;    ///< target agreement distance (epsilon)
  Duration delta = 1000;  ///< the public synchrony bound Delta, in ticks

  geo::SafeAreaOptions safe_opts{};

  /// Aggregation rule used by ΠAA-it and the Πinit estimates. All parties
  /// must agree on it (it is part of the protocol definition).
  Aggregation aggregation = Aggregation::kDiameterMidpoint;

  /// 0 (default): estimate the sufficient iteration count with Πinit.
  /// > 0: skip Πinit and run exactly this many iterations starting from the
  /// raw input — the "known input bounds" assumption of [Ghinea et al. 22],
  /// used by the fixed-iteration baseline and the Πinit ablation.
  std::uint64_t fixed_iterations = 0;

  /// Test-only fault injection: when non-zero, every aggregated iteration
  /// value is shifted by test_faulty_escape * (1 + party id) along the first
  /// coordinate, deliberately breaking the safe-area guarantee. Exists to
  /// prove the validity and contraction invariant monitors (obs/monitor.hpp)
  /// actually fire; never set outside tests.
  double test_faulty_escape = 0.0;

  /// The value domain the run operates over. nullptr means Euclidean R^D —
  /// the default everywhere, so pre-domain-layer call sites behave
  /// byte-identically. Non-owning: registered domains live for the process.
  const hydra::domain::ValueDomain* domain = nullptr;

  // Timing constants, in units of Delta.
  static constexpr int kCRbc = 3;       ///< Theorem 4.2: c_rBC
  static constexpr int kCRbcCond = 2;   ///< Theorem 4.2: c'_rBC
  static constexpr int kCObc = kCRbc + kCRbcCond;        ///< Theorem 4.4: c_oBC = 5
  static constexpr int kCAaIt = kCObc;                   ///< Section 5: c_AA-it = 5
  static constexpr int kCInit = 2 * kCRbc + kCRbcCond;   ///< Theorem 5.18: c_init = 8

  /// The domain's feasibility condition on (n, ts, ta, D). For Euclid this
  /// is the paper's Theorem 5.19, (D+1) ts + ta < n.
  /// NOTE: the reliable-broadcast substrate (Bracha) additionally needs
  /// n > 3 ts, which is implied whenever D >= 2; for D = 1 the paper uses a
  /// PKI to reach optimal resilience — this library's D = 1 support is
  /// therefore limited to n > 3 ts (documented in README).
  [[nodiscard]] bool feasible() const noexcept {
    return hydra::domain::resolve(domain).feasible(n, ts, ta, dim);
  }

  [[nodiscard]] std::size_t quorum() const noexcept { return n - ts; }
};

}  // namespace hydra::protocols
