// Exact convex kernel for D = 2.
//
// A ConvexPolygon2D is a (possibly degenerate) convex region given by its
// vertex list in counter-clockwise order:
//   0 vertices -> empty set, 1 -> a point, 2 -> a segment, >=3 -> a polygon.
// Degenerate regions matter: the paper's Figure 2 safe area is a single
// point, and safe areas of collinear honest values are segments.
//
// Intersection is computed by clipping against the half-plane representation
// of the other region (Sutherland-Hodgman restricted to convex subjects).
#pragma once

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "geometry/vec.hpp"

namespace hydra::geo {

/// Side of b relative to the directed line o->a: +1 strictly left
/// (counter-clockwise turn), -1 strictly right, 0 collinear. The collinear
/// band is `tol` relative to the local operand magnitudes (the rounding error
/// of the cross product is a few ulps of |a-o|*|b-o|). A global scale would
/// be wrong in both directions: one far-away outlier (coordinates ~1e6) must
/// not blur orientation among points of size ~1, and a sliver triangle with
/// two huge vertices must not lose its third, genuinely non-collinear, small
/// vertex (Hausdorff error of dropping it can dwarf any intersection
/// tolerance). The default is ~100 ulps above the cross-product rounding
/// error.
[[nodiscard]] inline int orientation(const Vec& o, const Vec& a, const Vec& b,
                                     double tol = 1e-13) noexcept {
  const double ax = a[0] - o[0];
  const double ay = a[1] - o[1];
  const double bx = b[0] - o[0];
  const double by = b[1] - o[1];
  const double la = std::max(std::abs(ax), std::abs(ay));
  const double lb = std::max(std::abs(bx), std::abs(by));
  const double eps = tol * std::max(la * lb, 1e-300);
  const double cross = ax * by - ay * bx;
  if (cross <= eps) return cross < -eps ? -1 : 0;
  return 1;
}

/// The half-plane { x : nx*x + ny*y <= c }.
struct HalfPlane {
  double nx = 0.0;
  double ny = 0.0;
  double c = 0.0;
};

class ConvexPolygon2D {
 public:
  /// Empty region.
  ConvexPolygon2D() = default;

  /// Convex hull of arbitrary 2-D points (Andrew's monotone chain).
  /// Collinear interior points are dropped; coincident points collapse.
  /// `tol` is the collinear band of each orientation() test.
  [[nodiscard]] static ConvexPolygon2D hull_of(std::span<const Vec> points,
                                               double tol = 1e-13);

  [[nodiscard]] bool empty() const noexcept { return vertices_.empty(); }
  [[nodiscard]] const std::vector<Vec>& vertices() const noexcept { return vertices_; }

  /// Half-plane representation whose intersection equals this region
  /// (degenerate regions produce cap half-planes). Empty regions assert.
  [[nodiscard]] std::vector<HalfPlane> halfplanes() const;

  /// Clips this region by a half-plane. `tol` is relative to the region's
  /// coordinate magnitude.
  [[nodiscard]] ConvexPolygon2D clip(const HalfPlane& hp, double tol = 1e-12) const;

  /// Intersection of two convex regions (exact up to tolerance).
  [[nodiscard]] ConvexPolygon2D intersect(const ConvexPolygon2D& other,
                                          double tol = 1e-12) const;

  [[nodiscard]] bool contains(const Vec& p, double tol = 1e-7) const;

  /// The deterministic diameter-realizing pair: among all vertex pairs at
  /// maximum distance, the lexicographically smallest (a, b) with a <= b.
  /// nullopt for the empty region.
  [[nodiscard]] std::optional<std::pair<Vec, Vec>> diameter_pair() const;

  [[nodiscard]] double diameter() const;

 private:
  explicit ConvexPolygon2D(std::vector<Vec> vertices) : vertices_(std::move(vertices)) {}

  std::vector<Vec> vertices_;  // CCW; deduped; degenerate sizes allowed
};

}  // namespace hydra::geo
