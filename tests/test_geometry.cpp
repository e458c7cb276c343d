// Unit tests for the geometry kernels below the safe area: vectors, the
// simplex LP solver, convex-hull membership, hull intersections, the 2-D
// polygon kernel, and the 1-D interval kernel.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "geometry/convex.hpp"
#include "geometry/interval.hpp"
#include "geometry/lp.hpp"
#include "geometry/polygon.hpp"
#include "geometry/vec.hpp"

namespace hydra::geo {
namespace {

// ---------------------------------------------------------------- Vec

TEST(Vec, Arithmetic) {
  const Vec a{1.0, 2.0};
  const Vec b{3.0, -1.0};
  EXPECT_EQ(a + b, (Vec{4.0, 1.0}));
  EXPECT_EQ(a - b, (Vec{-2.0, 3.0}));
  EXPECT_EQ(a * 2.0, (Vec{2.0, 4.0}));
  EXPECT_EQ(2.0 * a, (Vec{2.0, 4.0}));
}

TEST(Vec, DistanceMatchesDefinition21) {
  EXPECT_DOUBLE_EQ(distance(Vec{0.0, 0.0}, Vec{3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(distance(Vec{1.0, 1.0, 1.0}, Vec{1.0, 1.0, 1.0}), 0.0);
  EXPECT_DOUBLE_EQ(distance(Vec{0.0}, Vec{-2.0}), 2.0);
}

TEST(Vec, DotAndNorm) {
  EXPECT_DOUBLE_EQ(dot(Vec{1.0, 2.0, 3.0}, Vec{4.0, -5.0, 6.0}), 12.0);
  EXPECT_DOUBLE_EQ(norm(Vec{3.0, 4.0}), 5.0);
}

TEST(Vec, MidpointRule) {
  EXPECT_EQ(midpoint(Vec{0.0, 0.0}, Vec{2.0, 4.0}), (Vec{1.0, 2.0}));
}

TEST(Vec, DiameterOfSet) {
  const std::vector<Vec> pts{{0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}};
  EXPECT_DOUBLE_EQ(diameter(pts), std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(diameter(std::vector<Vec>{}), 0.0);
  EXPECT_DOUBLE_EQ(diameter(std::vector<Vec>{{5.0, 5.0}}), 0.0);
}

TEST(Vec, LexicographicOrderTotalOnRD) {
  EXPECT_LT(Vec({1.0, 9.0}), Vec({2.0, 0.0}));
  EXPECT_LT(Vec({1.0, 2.0}), Vec({1.0, 3.0}));
  EXPECT_EQ(Vec({1.0, 2.0}) <=> Vec({1.0, 2.0}), std::strong_ordering::equal);
}

// ----------------------------------------------------------------- LP

/// Vec value semantics at the edge of inline storage (D = 4) and just past
/// it (D = 5, heap storage).
class VecStorage : public ::testing::TestWithParam<std::size_t> {};

TEST_P(VecStorage, CopyMoveCompareAndArithmetic) {
  const std::size_t dim = GetParam();
  Vec a(dim);
  Vec b(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    a[i] = 1.0 + static_cast<double>(i);
    b[i] = -2.0 * static_cast<double>(i);
  }
  EXPECT_EQ(a.dim(), dim);
  ASSERT_EQ(a.coords().size(), dim);
  EXPECT_EQ(a.coords()[dim - 1], static_cast<double>(dim));

  // Copies are deep: mutating one side leaves the other untouched.
  Vec copy = a;
  EXPECT_EQ(copy, a);
  copy[0] = 99.0;
  EXPECT_NE(copy, a);
  EXPECT_EQ(a[0], 1.0);
  Vec assigned(2, 7.0);  // re-assigned across storage kinds
  assigned = a;
  EXPECT_EQ(assigned, a);
  assigned = Vec(1, 3.0);
  EXPECT_EQ(assigned, (Vec{3.0}));
  assigned = a;
  Vec& self = assigned;
  assigned = self;
  EXPECT_EQ(assigned, a);

  // Moves carry the coordinates; the source stays assignable.
  Vec moved = std::move(copy);
  EXPECT_EQ(moved[0], 99.0);
  EXPECT_EQ(moved.dim(), dim);
  copy = b;
  EXPECT_EQ(copy, b);
  Vec target(dim + 3, 1.0);
  target = std::move(moved);
  EXPECT_EQ(target[0], 99.0);
  EXPECT_EQ(target.dim(), dim);
  std::vector<Vec> grown;
  for (int i = 0; i < 20; ++i) grown.push_back(a);  // relocations move
  for (const auto& v : grown) EXPECT_EQ(v, a);

  // Comparison: lexicographic, then by dimension.
  EXPECT_LT(b, a);
  Vec last_bigger = a;
  last_bigger[dim - 1] += 1.0;
  EXPECT_LT(a, last_bigger);
  EXPECT_LT(Vec(dim - 1, 1.0), Vec(dim, 1.0));
  EXPECT_NE(Vec(dim - 1, 1.0), Vec(dim, 1.0));

  // Arithmetic.
  const Vec sum = a + b;
  const Vec diff = a - b;
  const Vec scaled = 0.5 * a;
  for (std::size_t i = 0; i < dim; ++i) {
    EXPECT_EQ(sum[i], a[i] + b[i]);
    EXPECT_EQ(diff[i], a[i] - b[i]);
    EXPECT_EQ(scaled[i], a[i] * 0.5);
  }
  EXPECT_EQ(midpoint(a, a), a);
  EXPECT_DOUBLE_EQ(distance(a, a + Vec(dim, 0.0)), 0.0);
  double expect_dot = 0.0;
  for (std::size_t i = 0; i < dim; ++i) expect_dot += a[i] * b[i];
  EXPECT_DOUBLE_EQ(dot(a, b), expect_dot);
}

INSTANTIATE_TEST_SUITE_P(InlineAndHeap, VecStorage, ::testing::Values(4u, 5u));

TEST(Lp, SimpleOptimum) {
  // min -x1 - 2 x2  s.t.  x1 + x2 + s = 4, x2 + s2 = 3  (i.e. x1+x2<=4, x2<=3)
  Matrix a(2, 4);
  a.at(0, 0) = 1;
  a.at(0, 1) = 1;
  a.at(0, 2) = 1;
  a.at(1, 1) = 1;
  a.at(1, 3) = 1;
  const std::vector<double> b{4, 3};
  const std::vector<double> c{-1, -2, 0, 0};
  const auto r = solve_lp(a, b, c);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  // Optimum at x1=1, x2=3 -> objective -7.
  EXPECT_NEAR(r.objective, -7.0, 1e-9);
  EXPECT_NEAR(r.x[0], 1.0, 1e-9);
  EXPECT_NEAR(r.x[1], 3.0, 1e-9);
}

TEST(Lp, InfeasibleDetected) {
  // x1 = 1 and x1 = 2 simultaneously.
  Matrix a(2, 1);
  a.at(0, 0) = 1;
  a.at(1, 0) = 1;
  const std::vector<double> b{1, 2};
  const std::vector<double> c{0};
  EXPECT_EQ(solve_lp(a, b, c).status, LpStatus::kInfeasible);
}

TEST(Lp, UnboundedDetected) {
  // min -x1 s.t. x1 - x2 = 0 : x1 can grow without bound.
  Matrix a(1, 2);
  a.at(0, 0) = 1;
  a.at(0, 1) = -1;
  const std::vector<double> b{0};
  const std::vector<double> c{-1, 0};
  EXPECT_EQ(solve_lp(a, b, c).status, LpStatus::kUnbounded);
}

TEST(Lp, NegativeRhsHandled) {
  // -x1 = -5  ->  x1 = 5.
  Matrix a(1, 1);
  a.at(0, 0) = -1;
  const std::vector<double> b{-5};
  const std::vector<double> c{1};
  const auto r = solve_lp(a, b, c);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 5.0, 1e-9);
}

TEST(Lp, DegenerateProblemTerminates) {
  // Multiple redundant constraints (Bland's rule must not cycle).
  Matrix a(3, 3);
  for (int i = 0; i < 3; ++i) {
    a.at(i, 0) = 1;
    a.at(i, 1) = 1;
    a.at(i, 2) = 1;
  }
  const std::vector<double> b{1, 1, 1};
  const std::vector<double> c{1, 2, 3};
  const auto r = solve_lp(a, b, c);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 1.0, 1e-9);
}

// ---------------------------------------------------- in_convex_hull

TEST(ConvexHullMembership, Triangle2D) {
  const std::vector<Vec> tri{{0.0, 0.0}, {2.0, 0.0}, {0.0, 2.0}};
  EXPECT_TRUE(in_convex_hull(tri, Vec{0.5, 0.5}));
  EXPECT_TRUE(in_convex_hull(tri, Vec{0.0, 0.0}));   // vertex
  EXPECT_TRUE(in_convex_hull(tri, Vec{1.0, 1.0}));   // edge
  EXPECT_FALSE(in_convex_hull(tri, Vec{1.5, 1.5}));  // outside
  EXPECT_FALSE(in_convex_hull(tri, Vec{-0.1, 0.0}));
}

TEST(ConvexHullMembership, Simplex4D) {
  std::vector<Vec> pts;
  pts.push_back(Vec(4, 0.0));
  for (std::size_t d = 0; d < 4; ++d) {
    Vec e(4, 0.0);
    e[d] = 1.0;
    pts.push_back(e);
  }
  Vec centroid(4, 0.2);
  EXPECT_TRUE(in_convex_hull(pts, centroid));
  Vec outside(4, 0.3);  // coordinates sum to 1.2 > 1
  EXPECT_FALSE(in_convex_hull(pts, outside));
}

TEST(ConvexHullMembership, SinglePoint) {
  const std::vector<Vec> one{{1.0, 2.0, 3.0}};
  EXPECT_TRUE(in_convex_hull(one, Vec{1.0, 2.0, 3.0}));
  EXPECT_FALSE(in_convex_hull(one, Vec{1.0, 2.0, 3.1}));
}

// ------------------------------------------- intersection / support

TEST(HullIntersection, OverlappingTriangles) {
  const std::vector<std::vector<Vec>> hulls{
      {{0.0, 0.0}, {2.0, 0.0}, {0.0, 2.0}},
      {{1.0, 1.0}, {-1.0, 1.0}, {1.0, -1.0}},
  };
  const auto p = intersection_point(hulls);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(in_convex_hull(hulls[0], *p));
  EXPECT_TRUE(in_convex_hull(hulls[1], *p));
}

TEST(HullIntersection, DisjointTriangles) {
  const std::vector<std::vector<Vec>> hulls{
      {{0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}},
      {{5.0, 5.0}, {6.0, 5.0}, {5.0, 6.0}},
  };
  EXPECT_FALSE(intersection_point(hulls).has_value());
}

TEST(HullIntersection, TouchingAtOnePoint) {
  const std::vector<std::vector<Vec>> hulls{
      {{0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}},
      {{1.0, 0.0}, {2.0, 0.0}, {1.0, 1.0}},
  };
  const auto p = intersection_point(hulls);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(approx_equal(*p, Vec{1.0, 0.0}, 1e-6));
}

TEST(SupportPoint, SquareExtremes) {
  const std::vector<std::vector<Vec>> hulls{
      {{0.0, 0.0}, {1.0, 0.0}, {1.0, 1.0}, {0.0, 1.0}},
  };
  const auto px = support_point(hulls, Vec{1.0, 0.0});
  ASSERT_TRUE(px.has_value());
  EXPECT_NEAR((*px)[0], 1.0, 1e-9);
  const auto pd = support_point(hulls, Vec{1.0, 1.0});
  ASSERT_TRUE(pd.has_value());
  EXPECT_TRUE(approx_equal(*pd, Vec{1.0, 1.0}, 1e-7));
}

TEST(SupportPoint, IntersectionOfSquares3D) {
  // Two unit cubes offset by 0.5 along x: intersection is [0.5,1]x[0,1]^2.
  std::vector<Vec> cube1;
  std::vector<Vec> cube2;
  for (int i = 0; i < 8; ++i) {
    const double x = (i & 1) ? 1.0 : 0.0;
    const double y = (i & 2) ? 1.0 : 0.0;
    const double z = (i & 4) ? 1.0 : 0.0;
    cube1.push_back(Vec{x, y, z});
    cube2.push_back(Vec{x + 0.5, y, z});
  }
  const std::vector<std::vector<Vec>> hulls{cube1, cube2};
  const auto lo = support_point(hulls, Vec{-1.0, 0.0, 0.0});
  ASSERT_TRUE(lo.has_value());
  EXPECT_NEAR((*lo)[0], 0.5, 1e-7);
  const auto hi = support_point(hulls, Vec{1.0, 0.0, 0.0});
  ASSERT_TRUE(hi.has_value());
  EXPECT_NEAR((*hi)[0], 1.0, 1e-7);
}

// ------------------------------------------------------------ Interval

TEST(Interval, HullAndIntersect) {
  const std::vector<double> xs{3.0, -1.0, 2.0};
  const auto i = Interval::hull_of(xs);
  EXPECT_DOUBLE_EQ(i.lo, -1.0);
  EXPECT_DOUBLE_EQ(i.hi, 3.0);
  const auto j = i.intersect({0.0, 5.0});
  EXPECT_DOUBLE_EQ(j.lo, 0.0);
  EXPECT_DOUBLE_EQ(j.hi, 3.0);
  EXPECT_TRUE(i.intersect({4.0, 5.0}).empty());
}

TEST(Interval, EmptyProperties) {
  const Interval e;
  EXPECT_TRUE(e.empty());
  EXPECT_FALSE(e.contains(0.0));
  EXPECT_DOUBLE_EQ(e.diameter(), 0.0);
}

TEST(Interval, DegeneratePoint) {
  const Interval p{2.0, 2.0};
  EXPECT_FALSE(p.empty());
  EXPECT_TRUE(p.contains(2.0));
  EXPECT_DOUBLE_EQ(p.diameter(), 0.0);
  EXPECT_DOUBLE_EQ(p.midpoint(), 2.0);
}

// ----------------------------------------------------- ConvexPolygon2D

TEST(Polygon, HullOfSquareWithInteriorPoints) {
  const std::vector<Vec> pts{{0.0, 0.0}, {1.0, 0.0}, {1.0, 1.0}, {0.0, 1.0},
                             {0.5, 0.5}, {0.25, 0.75}};
  const auto hull = ConvexPolygon2D::hull_of(pts);
  EXPECT_EQ(hull.vertices().size(), 4u);
  EXPECT_TRUE(hull.contains(Vec{0.5, 0.5}));
  EXPECT_FALSE(hull.contains(Vec{1.5, 0.5}));
}

TEST(Polygon, HullDropsCollinear) {
  const std::vector<Vec> pts{{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}, {2.0, 2.0}};
  const auto hull = ConvexPolygon2D::hull_of(pts);
  EXPECT_EQ(hull.vertices().size(), 3u);
}

TEST(Polygon, DegenerateHulls) {
  const auto empty = ConvexPolygon2D::hull_of(std::vector<Vec>{});
  EXPECT_TRUE(empty.empty());

  const auto point = ConvexPolygon2D::hull_of(std::vector<Vec>{{1.0, 1.0}, {1.0, 1.0}});
  EXPECT_EQ(point.vertices().size(), 1u);
  EXPECT_TRUE(point.contains(Vec{1.0, 1.0}));
  EXPECT_FALSE(point.contains(Vec{1.0, 1.1}));

  const auto seg = ConvexPolygon2D::hull_of(
      std::vector<Vec>{{0.0, 0.0}, {1.0, 1.0}, {2.0, 2.0}});
  EXPECT_EQ(seg.vertices().size(), 2u);
  EXPECT_TRUE(seg.contains(Vec{0.5, 0.5}));
  EXPECT_FALSE(seg.contains(Vec{0.5, 0.6}));
  EXPECT_FALSE(seg.contains(Vec{3.0, 3.0}));  // beyond the endpoint
}

TEST(Polygon, ClipSquareByHalfplane) {
  const auto square = ConvexPolygon2D::hull_of(
      std::vector<Vec>{{0.0, 0.0}, {2.0, 0.0}, {2.0, 2.0}, {0.0, 2.0}});
  const auto clipped = square.clip({1.0, 0.0, 1.0});  // x <= 1
  EXPECT_EQ(clipped.vertices().size(), 4u);
  EXPECT_TRUE(clipped.contains(Vec{0.5, 1.0}));
  EXPECT_FALSE(clipped.contains(Vec{1.5, 1.0}));
}

TEST(Polygon, ClipToEmpty) {
  const auto square = ConvexPolygon2D::hull_of(
      std::vector<Vec>{{0.0, 0.0}, {1.0, 0.0}, {1.0, 1.0}, {0.0, 1.0}});
  const auto clipped = square.clip({1.0, 0.0, -1.0});  // x <= -1
  EXPECT_TRUE(clipped.empty());
}

TEST(Polygon, ClipToEdge) {
  const auto square = ConvexPolygon2D::hull_of(
      std::vector<Vec>{{0.0, 0.0}, {1.0, 0.0}, {1.0, 1.0}, {0.0, 1.0}});
  const auto edge = square.clip({1.0, 0.0, 0.0});  // x <= 0: left edge
  ASSERT_FALSE(edge.empty());
  EXPECT_LE(edge.vertices().size(), 2u);
  EXPECT_TRUE(edge.contains(Vec{0.0, 0.5}, 1e-6));
}

TEST(Polygon, IntersectOverlappingSquares) {
  const auto a = ConvexPolygon2D::hull_of(
      std::vector<Vec>{{0.0, 0.0}, {2.0, 0.0}, {2.0, 2.0}, {0.0, 2.0}});
  const auto b = ConvexPolygon2D::hull_of(
      std::vector<Vec>{{1.0, 1.0}, {3.0, 1.0}, {3.0, 3.0}, {1.0, 3.0}});
  const auto c = a.intersect(b);
  ASSERT_FALSE(c.empty());
  EXPECT_TRUE(c.contains(Vec{1.5, 1.5}));
  EXPECT_FALSE(c.contains(Vec{0.5, 0.5}));
  EXPECT_NEAR(c.diameter(), std::sqrt(2.0), 1e-9);
}

TEST(Polygon, IntersectDisjoint) {
  const auto a = ConvexPolygon2D::hull_of(
      std::vector<Vec>{{0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}});
  const auto b = ConvexPolygon2D::hull_of(
      std::vector<Vec>{{5.0, 5.0}, {6.0, 5.0}, {5.0, 6.0}});
  EXPECT_TRUE(a.intersect(b).empty());
}

TEST(Polygon, IntersectProducesPoint) {
  // Two triangles sharing exactly one vertex.
  const auto a = ConvexPolygon2D::hull_of(
      std::vector<Vec>{{0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}});
  const auto b = ConvexPolygon2D::hull_of(
      std::vector<Vec>{{1.0, 0.0}, {2.0, 0.0}, {2.0, 1.0}});
  const auto c = a.intersect(b);
  ASSERT_FALSE(c.empty());
  EXPECT_TRUE(c.contains(Vec{1.0, 0.0}, 1e-6));
  EXPECT_NEAR(c.diameter(), 0.0, 1e-6);
}

TEST(Polygon, IntersectWithSegment) {
  const auto square = ConvexPolygon2D::hull_of(
      std::vector<Vec>{{0.0, 0.0}, {2.0, 0.0}, {2.0, 2.0}, {0.0, 2.0}});
  const auto seg = ConvexPolygon2D::hull_of(
      std::vector<Vec>{{-1.0, 1.0}, {3.0, 1.0}});
  const auto c = square.intersect(seg);
  ASSERT_FALSE(c.empty());
  EXPECT_TRUE(c.contains(Vec{1.0, 1.0}, 1e-6));
  EXPECT_NEAR(c.diameter(), 2.0, 1e-6);  // clipped to x in [0,2]
}

TEST(Polygon, DiameterPairDeterministicTieBreak) {
  // A unit square has two diagonals of equal length; the rule must pick the
  // lexicographically smallest pair.
  const auto square = ConvexPolygon2D::hull_of(
      std::vector<Vec>{{0.0, 0.0}, {1.0, 0.0}, {1.0, 1.0}, {0.0, 1.0}});
  const auto pair = square.diameter_pair();
  ASSERT_TRUE(pair.has_value());
  EXPECT_EQ(pair->first, (Vec{0.0, 0.0}));
  EXPECT_EQ(pair->second, (Vec{1.0, 1.0}));
}

TEST(Polygon, DiameterOfDegenerate) {
  const auto point = ConvexPolygon2D::hull_of(std::vector<Vec>{{1.0, 1.0}});
  EXPECT_DOUBLE_EQ(point.diameter(), 0.0);
  const auto seg =
      ConvexPolygon2D::hull_of(std::vector<Vec>{{0.0, 0.0}, {3.0, 4.0}});
  EXPECT_DOUBLE_EQ(seg.diameter(), 5.0);
  EXPECT_FALSE(ConvexPolygon2D{}.diameter_pair().has_value());
}

TEST(Polygon, RepeatedIntersectionStable) {
  // Intersecting a polygon with itself many times must not erode it.
  auto poly = ConvexPolygon2D::hull_of(
      std::vector<Vec>{{0.0, 0.0}, {4.0, 0.0}, {4.0, 3.0}, {0.0, 3.0}});
  const double d0 = poly.diameter();
  for (int i = 0; i < 20; ++i) poly = poly.intersect(poly);
  EXPECT_NEAR(poly.diameter(), d0, 1e-6);
}

}  // namespace
}  // namespace hydra::geo
