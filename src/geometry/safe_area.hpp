// Safe area of Definition 5.1:
//
//   safe_t(M) = intersection over M' in restrict_t(M) of convex(M'),
//   restrict_t(M) = { M' subset of M : |M'| = |M| - t },
//
// i.e. the set of points that remain inside the convex hull of the values no
// matter which t of them the adversary contributed.
//
// Kernels (DESIGN.md decision 3):
//   D = 1  exact closed form: [x_(t+1), x_(m-t)] on the sorted values.
//   D = 2  exact depth region: a point is in every (m - t)-subset hull iff
//          every closed half-plane containing it holds >= t + 1 values, so
//          safe_t(M) is the Tukey-depth region of depth >= t + 1, cut out of
//          the axis order-statistic box by the O(m^2) lines through two
//          values with <= t values strictly beyond them, in one pass.
//   D = 3  exact facet enumeration (quickhull) + half-space vertex
//          enumeration when the configuration permits (full-dimensional
//          hulls, bounded plane count); otherwise the D >= 4 kernel.
//   D >= 4 LP kernel: emptiness and membership are exact (simplex
//          feasibility); the extreme-point sample used for the diameter pair
//          is direction-sampled and therefore approximate (ablated by the
//          bench_geometry_kernels target).
//
// Determinism: given the same value list in the same order, every operation
// is bit-for-bit deterministic. Protocol layers sort values by sender id
// before calling in, so parties holding equal multisets compute identical
// midpoints — the consistency Pi_init relies on.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "geometry/interval.hpp"
#include "geometry/polygon.hpp"
#include "geometry/vec.hpp"

namespace hydra::geo {

struct SafeAreaOptions {
  /// Number of sampled support directions for the D >= 3 kernel (in addition
  /// to the 2D axis directions, which are always included).
  std::size_t support_directions = 64;
  /// LP (simplex) tolerance, used by the D >= 3 kernel and membership tests.
  double tol = 1e-9;
  /// Polygon clipping tolerance (relative to coordinate magnitude), used by
  /// the exact D = 2 kernel.
  double clip_tol = 1e-12;
  /// Seed of the deterministic direction sample (same across all parties).
  std::uint64_t direction_seed = 0x5afea4ea5afea4eaULL;
};

class SafeArea {
 public:
  /// Computes safe_t(values). `values` are the val(M) multiset in a fixed
  /// order (multiplicity preserved; restrictions are taken over positions).
  [[nodiscard]] static SafeArea compute(std::span<const Vec> values, std::size_t t,
                                        const SafeAreaOptions& opts = {});

  [[nodiscard]] bool empty() const noexcept { return empty_; }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }

  /// Membership test; exact in every dimension (D >= 3 uses one LP per
  /// restriction hull).
  [[nodiscard]] bool contains(const Vec& p, double tol = 1e-7) const;

  /// The deterministic diameter-realizing pair (a, b) from the paper's rule:
  /// lexicographically smallest among maximum-distance extreme-point pairs.
  [[nodiscard]] std::optional<std::pair<Vec, Vec>> diameter_pair() const;

  [[nodiscard]] double diameter() const;

  /// The new-value rule of ΠAA-it: v = (a + b) / 2 for the diameter pair.
  /// nullopt iff the safe area is empty.
  [[nodiscard]] std::optional<Vec> midpoint_rule() const;

  /// Alternative aggregation (ablation; see bench_aggregation_rules): the
  /// arithmetic mean of the extreme points. Always in the safe area by
  /// convexity, and deterministic, but WITHOUT the sqrt(7/8) contraction
  /// guarantee of the diameter midpoint [Függer-Nowak 18].
  [[nodiscard]] std::optional<Vec> centroid_rule() const;

  /// Extreme points: exact vertices for D <= 2, sampled support points for
  /// D >= 3. Empty for the empty region.
  [[nodiscard]] const std::vector<Vec>& extreme_points() const noexcept {
    return extreme_;
  }

  /// Exact kernels, exposed for tests.
  [[nodiscard]] const Interval& interval1d() const noexcept { return interval_; }
  [[nodiscard]] const ConvexPolygon2D& polygon2d() const noexcept { return polygon_; }

  /// True when the extreme points are exact (always for D <= 2; for D = 3
  /// when the facet-enumeration kernel succeeded; never for D >= 4).
  [[nodiscard]] bool exact() const noexcept { return dim_ <= 2 || exact_; }

 private:
  std::size_t dim_ = 0;
  bool empty_ = true;
  Interval interval_;                     // D == 1
  ConvexPolygon2D polygon_;               // D == 2
  std::vector<Vec> extreme_;              // all D
  std::vector<std::vector<Vec>> hulls_;   // D >= 3: restriction point sets
  bool exact_ = false;                    // D = 3 facet kernel succeeded
  double lp_tol_ = 1e-9;
};

/// One-shot helper implementing the full ΠAA-it step 4-6 computation:
/// the midpoint of the diameter pair of safe_t(values), or nullopt when the
/// safe area is empty.
[[nodiscard]] std::optional<Vec> safe_area_midpoint(std::span<const Vec> values,
                                                    std::size_t t,
                                                    const SafeAreaOptions& opts = {});

/// Deterministic best pair helper shared by the kernels: among all pairs of
/// `points` at maximum distance, the lexicographically smallest (a, b) with
/// a <= b. nullopt for an empty span.
[[nodiscard]] std::optional<std::pair<Vec, Vec>> max_distance_pair(
    std::span<const Vec> points);

}  // namespace hydra::geo
