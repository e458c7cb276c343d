// Tests for the safe area (Definition 5.1) and the combinatorial lemmas of
// Section 5.1. The parameterized suites are property tests: they sweep
// random instances across dimensions and check the lemma statements hold on
// every draw.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <tuple>
#include <vector>

#include "common/combinatorics.hpp"
#include "common/rng.hpp"
#include "geometry/convex.hpp"
#include "geometry/polygon.hpp"
#include "geometry/safe_area.hpp"
#include "geometry/vec.hpp"

namespace hydra::geo {
namespace {

std::vector<Vec> random_points(Rng& rng, std::size_t count, std::size_t dim,
                               double radius = 10.0) {
  std::vector<Vec> pts;
  pts.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Vec v(dim, 0.0);
    for (std::size_t d = 0; d < dim; ++d) v[d] = rng.next_double(-radius, radius);
    pts.push_back(std::move(v));
  }
  return pts;
}

/// Restriction hull point sets for safe_t(values) — used to cross-check the
/// SafeArea kernels against the raw LP formulation.
std::vector<std::vector<Vec>> restriction_hulls(std::span<const Vec> values,
                                                std::size_t t) {
  std::vector<std::vector<Vec>> hulls;
  std::vector<std::size_t> kept;
  for_each_combination(values.size(), t, [&](const std::vector<std::size_t>& removed) {
    complement_indices(values.size(), removed, kept);
    auto& h = hulls.emplace_back();
    h.reserve(kept.size());
    for (auto i : kept) h.push_back(values[i]);
  });
  return hulls;
}

/// The D = 2 safe area straight from Definition 5.1: the hull of every
/// (m - t)-subset, clipped together. The differential oracle of the
/// depth-region kernel in SafeArea::compute.
ConvexPolygon2D enumerate_safe_area_2d(std::span<const Vec> values, std::size_t t,
                                       double clip_tol = 1e-12) {
  ConvexPolygon2D region;
  bool first = true;
  for (const auto& kept : restriction_hulls(values, t)) {
    const auto hull = ConvexPolygon2D::hull_of(kept);
    region = first ? hull : region.intersect(hull, clip_tol);
    first = false;
    if (region.empty()) break;
  }
  return region;
}

double point_segment_distance(const Vec& p, const Vec& a, const Vec& b) {
  const Vec e = b - a;
  const double len2 = dot(e, e);
  const double s = len2 > 0.0 ? std::clamp(dot(p - a, e) / len2, 0.0, 1.0) : 0.0;
  return distance(p, a + e * s);
}

/// Euclidean distance from `p` to a non-empty (possibly degenerate) region.
double distance_to_region(const Vec& p, const ConvexPolygon2D& region) {
  const auto& vs = region.vertices();
  if (vs.size() == 1) return distance(p, vs[0]);
  bool inside = vs.size() >= 3;
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < vs.size(); ++i) {
    const Vec& a = vs[i];
    const Vec& b = vs[(i + 1) % vs.size()];
    if (orientation(a, b, p, 0.0) < 0) inside = false;  // CCW ring
    best = std::min(best, point_segment_distance(p, a, b));
  }
  return inside ? 0.0 : best;
}

/// Hausdorff distance of two non-empty convex regions; the distance to a
/// convex set is convex, so it peaks at a vertex.
double hausdorff(const ConvexPolygon2D& a, const ConvexPolygon2D& b) {
  double h = 0.0;
  for (const auto& v : a.vertices()) h = std::max(h, distance_to_region(v, b));
  for (const auto& v : b.vertices()) h = std::max(h, distance_to_region(v, a));
  return h;
}

double max_abs_coord(std::span<const Vec> values) {
  double s = 1.0;
  for (const auto& v : values) {
    for (double c : v.coords()) s = std::max(s, std::abs(c));
  }
  return s;
}

/// True when `x` lies in every restriction hull (the LP oracle).
bool in_every_restriction_hull(const std::vector<std::vector<Vec>>& hulls, const Vec& x,
                               double tol) {
  return std::all_of(hulls.begin(), hulls.end(), [&](const std::vector<Vec>& h) {
    return in_convex_hull(h, x, tol);
  });
}

// ----------------------------------------------------- basic behaviour

TEST(SafeArea, TZeroIsConvexHull) {
  const std::vector<Vec> pts{{0.0, 0.0}, {2.0, 0.0}, {0.0, 2.0}};
  const auto sa = SafeArea::compute(pts, 0);
  ASSERT_FALSE(sa.empty());
  EXPECT_TRUE(sa.contains(Vec{0.5, 0.5}));
  EXPECT_FALSE(sa.contains(Vec{1.5, 1.5}));
  EXPECT_NEAR(sa.diameter(), 2.0 * std::sqrt(2.0), 1e-9);
}

TEST(SafeArea, EmptyInputs) {
  EXPECT_TRUE(SafeArea::compute(std::vector<Vec>{}, 0).empty());
  // t >= |M|: no restriction of positive size exists.
  EXPECT_TRUE(SafeArea::compute(std::vector<Vec>{{1.0, 1.0}}, 1).empty());
}

TEST(SafeArea, PaperEmptyExample) {
  // Section 5: safe_1({(0,0),(0,1),(1,0)}) = empty — the motivating case for
  // the max(k, ta) trim rule.
  const std::vector<Vec> pts{{0.0, 0.0}, {0.0, 1.0}, {1.0, 0.0}};
  EXPECT_TRUE(SafeArea::compute(pts, 1).empty());
}

TEST(SafeArea, Figure2SquareCollapsesToPoint) {
  // Figure 2's structure: four points in convex position with t = 1; the
  // safe area is the single intersection point of the diagonals.
  const std::vector<Vec> pts{{0.0, 0.0}, {1.0, 0.0}, {1.0, 1.0}, {0.0, 1.0}};
  const auto sa = SafeArea::compute(pts, 1);
  ASSERT_FALSE(sa.empty());
  EXPECT_NEAR(sa.diameter(), 0.0, 1e-7);
  const auto mid = sa.midpoint_rule();
  ASSERT_TRUE(mid.has_value());
  EXPECT_TRUE(approx_equal(*mid, Vec{0.5, 0.5}, 1e-7));
}

TEST(SafeArea, OneDimensionalTrimmedInterval) {
  // safe_t in 1-D is the classic trimmed interval [x_(t+1), x_(m-t)].
  const std::vector<Vec> pts{{5.0}, {1.0}, {3.0}, {9.0}, {7.0}};
  const auto sa = SafeArea::compute(pts, 1);
  ASSERT_FALSE(sa.empty());
  EXPECT_DOUBLE_EQ(sa.interval1d().lo, 3.0);
  EXPECT_DOUBLE_EQ(sa.interval1d().hi, 7.0);
  const auto mid = sa.midpoint_rule();
  ASSERT_TRUE(mid.has_value());
  EXPECT_DOUBLE_EQ((*mid)[0], 5.0);
}

TEST(SafeArea, OneDimensionalOvertrimmedIsEmpty) {
  const std::vector<Vec> pts{{0.0}, {10.0}};
  EXPECT_TRUE(SafeArea::compute(pts, 1).empty());  // [x_2, x_1] inverted
}

TEST(SafeArea, MidpointDeterministicAcrossCalls) {
  Rng rng(99);
  const auto pts = random_points(rng, 8, 2);
  const auto a = safe_area_midpoint(pts, 2);
  const auto b = safe_area_midpoint(pts, 2);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, *b);
}

TEST(SafeArea, ThreeDimensionalBasic) {
  // Unit simplex corners + centroid copies: safe_1 must contain the centroid.
  std::vector<Vec> pts;
  pts.push_back(Vec{0.0, 0.0, 0.0});
  pts.push_back(Vec{1.0, 0.0, 0.0});
  pts.push_back(Vec{0.0, 1.0, 0.0});
  pts.push_back(Vec{0.0, 0.0, 1.0});
  pts.push_back(Vec{0.25, 0.25, 0.25});
  pts.push_back(Vec{0.25, 0.25, 0.25});
  const auto sa = SafeArea::compute(pts, 1);
  ASSERT_FALSE(sa.empty());
  EXPECT_TRUE(sa.contains(Vec{0.25, 0.25, 0.25}, 1e-6));
  const auto mid = sa.midpoint_rule();
  ASSERT_TRUE(mid.has_value());
  EXPECT_TRUE(sa.contains(*mid, 1e-5));
}

TEST(SafeArea, Exact2DAgreesWithLpKernelOnMembership) {
  Rng rng(1234);
  for (int trial = 0; trial < 20; ++trial) {
    const auto pts = random_points(rng, 7, 2);
    const std::size_t t = 1 + trial % 2;
    const auto sa = SafeArea::compute(pts, t);
    const auto hulls = restriction_hulls(pts, t);
    const auto witness = intersection_point(hulls);
    EXPECT_EQ(sa.empty(), !witness.has_value()) << "trial " << trial;
    if (!sa.empty()) {
      // Probe points: LP membership must match polygon membership.
      for (int probe = 0; probe < 10; ++probe) {
        Vec q{rng.next_double(-12, 12), rng.next_double(-12, 12)};
        const bool lp_in = in_every_restriction_hull(hulls, q, 1e-7);
        // Skip near-boundary probes where tolerance conventions differ.
        const auto mid = sa.midpoint_rule();
        if (mid && distance(q, *mid) < 1e-3) continue;
        EXPECT_EQ(sa.contains(q, 1e-6), lp_in)
            << "trial " << trial << " probe " << to_string(q);
      }
    }
  }
}

// --------------------------------------------- Lemma 5.3 (restriction count)

TEST(Lemma53, RestrictionCountAtLeastDPlus1) {
  // |restrict_max(k,ta)(M)| >= D+1 whenever |M| = n-ts+k, k <= ts,
  // n > (D+1) ts + ta and max(k, ta) >= 1. (When max(k, ta) = 0 the
  // restriction family is the single set M, and Helly's theorem is not
  // needed: one hull trivially has non-empty self-intersection.)
  for (std::size_t dim = 1; dim <= 4; ++dim) {
    for (std::size_t ts = 1; ts <= 3; ++ts) {
      for (std::size_t ta = 0; ta <= ts; ++ta) {
        const std::size_t n = (dim + 1) * ts + ta + 1;
        for (std::size_t k = 0; k <= ts; ++k) {
          const std::size_t m = n - ts + k;
          const std::size_t t = std::max(k, ta);
          if (t == 0) continue;
          EXPECT_GE(binomial(m, t), dim + 1)
              << "D=" << dim << " ts=" << ts << " ta=" << ta << " k=" << k;
        }
      }
    }
  }
}

// ------------------------------------------------ Lemma 5.5 (non-emptiness)

struct LemmaParams {
  std::size_t dim;
  std::size_t ts;
  std::size_t ta;
  std::uint64_t seed;
};

class Lemma55NonEmpty : public ::testing::TestWithParam<LemmaParams> {};

TEST_P(Lemma55NonEmpty, SafeAreaNonEmpty) {
  const auto p = GetParam();
  const std::size_t n = (p.dim + 1) * p.ts + p.ta + 1;
  Rng rng(p.seed);
  for (std::size_t k = 0; k <= p.ts; ++k) {
    const std::size_t m = n - p.ts + k;
    const auto pts = random_points(rng, m, p.dim);
    const std::size_t t = std::max(k, p.ta);
    const auto sa = SafeArea::compute(pts, t);
    EXPECT_FALSE(sa.empty()) << "D=" << p.dim << " ts=" << p.ts << " ta=" << p.ta
                             << " k=" << k << " m=" << m;
    if (!sa.empty()) {
      const auto mid = sa.midpoint_rule();
      ASSERT_TRUE(mid.has_value());
      // Lemma 5.6: the midpoint lies in the safe area (convexity).
      EXPECT_TRUE(sa.contains(*mid, 1e-5));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Lemma55NonEmpty,
    ::testing::Values(LemmaParams{1, 1, 0, 1}, LemmaParams{1, 1, 1, 2},
                      LemmaParams{1, 2, 1, 3}, LemmaParams{1, 3, 2, 4},
                      LemmaParams{2, 1, 0, 5}, LemmaParams{2, 1, 1, 6},
                      LemmaParams{2, 2, 1, 7}, LemmaParams{2, 2, 2, 8},
                      LemmaParams{3, 1, 0, 9}, LemmaParams{3, 1, 1, 10}),
    [](const auto& info) {
      const auto& p = info.param;
      return "D" + std::to_string(p.dim) + "_ts" + std::to_string(p.ts) + "_ta" +
             std::to_string(p.ta);
    });

// ------------------------------------------- Lemma 5.7 (validity inclusion)

class Lemma57Inclusion : public ::testing::TestWithParam<LemmaParams> {};

TEST_P(Lemma57Inclusion, SafeAreaInsideEveryRestrictionHull) {
  const auto p = GetParam();
  const std::size_t n = (p.dim + 1) * p.ts + p.ta + 1;
  Rng rng(p.seed + 1000);
  for (std::size_t k = 0; k <= p.ts; ++k) {
    const std::size_t m = n - p.ts + k;
    const auto pts = random_points(rng, m, p.dim);
    const std::size_t t = std::max(k, p.ta);
    const auto sa = SafeArea::compute(pts, t);
    ASSERT_FALSE(sa.empty());
    // Every extreme point (and thus the whole safe area) lies inside the
    // hull of every (m - t)-subset — in particular inside the hull of the
    // honest values, whichever they are.
    const auto hulls = restriction_hulls(pts, t);
    for (const auto& x : sa.extreme_points()) {
      for (const auto& h : hulls) {
        EXPECT_TRUE(in_convex_hull(h, x, 1e-5));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Lemma57Inclusion,
    ::testing::Values(LemmaParams{1, 2, 1, 21}, LemmaParams{2, 1, 1, 22},
                      LemmaParams{2, 2, 1, 23}, LemmaParams{3, 1, 1, 24}),
    [](const auto& info) {
      const auto& p = info.param;
      return "D" + std::to_string(p.dim) + "_ts" + std::to_string(p.ts) + "_ta" +
             std::to_string(p.ta);
    });

// ------------------------------------- Lemma 5.8 (safe areas intersect)

class Lemma58Intersect : public ::testing::TestWithParam<LemmaParams> {};

TEST_P(Lemma58Intersect, HonestSafeAreasPairwiseIntersect) {
  const auto p = GetParam();
  const std::size_t n = (p.dim + 1) * p.ts + p.ta + 1;
  Rng rng(p.seed + 2000);
  for (int trial = 0; trial < 8; ++trial) {
    // Two parties' output sets from ΠoBC: share >= n - ts values, union <= n.
    const auto all = random_points(rng, n, p.dim);
    const std::size_t shared = n - p.ts;
    const std::size_t extra1 = rng.next_below(p.ts + 1);
    const std::size_t extra2 = rng.next_below(p.ts + 1);
    std::vector<Vec> m1(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(shared));
    std::vector<Vec> m2 = m1;
    // Disjoint extras drawn from the remaining ts values.
    std::size_t next = shared;
    for (std::size_t i = 0; i < extra1 && next < n; ++i) m1.push_back(all[next++]);
    next = shared;
    for (std::size_t i = 0; i < extra2 && next < n; ++i) m2.push_back(all[next++]);

    const std::size_t k1 = m1.size() - (n - p.ts);
    const std::size_t k2 = m2.size() - (n - p.ts);
    const auto h1 = restriction_hulls(m1, std::max(k1, p.ta));
    const auto h2 = restriction_hulls(m2, std::max(k2, p.ta));

    std::vector<std::vector<Vec>> combined = h1;
    combined.insert(combined.end(), h2.begin(), h2.end());
    EXPECT_TRUE(intersection_point(combined).has_value())
        << "D=" << p.dim << " trial=" << trial << " k1=" << k1 << " k2=" << k2;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Lemma58Intersect,
    ::testing::Values(LemmaParams{1, 1, 1, 31}, LemmaParams{1, 2, 1, 32},
                      LemmaParams{2, 1, 1, 33}, LemmaParams{2, 2, 1, 34},
                      LemmaParams{3, 1, 1, 35}),
    [](const auto& info) {
      const auto& p = info.param;
      return "D" + std::to_string(p.dim) + "_ts" + std::to_string(p.ts) + "_ta" +
             std::to_string(p.ta);
    });

// ------------------------------- Lemma 5.14 (midpoint contraction, [18])

TEST(Lemma514, MidpointContractionFactor) {
  // For random pairs satisfying the lemma's premise, the midpoints are
  // within sqrt(7/8) * gamma.
  Rng rng(77);
  const double factor = std::sqrt(7.0 / 8.0);
  int checked = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t dim = 1 + rng.next_below(4);
    const auto pts = random_points(rng, 4, dim, 5.0);
    const Vec& a = pts[0];
    const Vec& b = pts[1];
    const Vec& a2 = pts[2];
    const Vec& b2 = pts[3];
    const double gamma = diameter(pts);
    if (gamma > distance(a, b) + distance(a2, b2)) continue;  // premise fails
    ++checked;
    const double d = distance(midpoint(a, b), midpoint(a2, b2));
    EXPECT_LE(d, factor * gamma + 1e-9);
  }
  EXPECT_GT(checked, 100);  // the premise is satisfiable often enough
}

// ----------------------------- safe-area monotonicity (Lemmas 5.10, 6.12)

TEST(Lemma510, AddingAPointOnlyGrowsSafeArea) {
  Rng rng(88);
  for (int trial = 0; trial < 10; ++trial) {
    auto pts = random_points(rng, 6, 2);
    const std::size_t t = 1;
    const auto sa_before = SafeArea::compute(pts, t);
    if (sa_before.empty()) continue;
    pts.push_back(random_points(rng, 1, 2)[0]);
    const auto sa_after = SafeArea::compute(pts, t);
    ASSERT_FALSE(sa_after.empty());
    for (const auto& x : sa_before.extreme_points()) {
      EXPECT_TRUE(sa_after.contains(x, 1e-6))
          << "trial " << trial << " point " << to_string(x);
    }
  }
}

TEST(Lemma612, LargerTrimShrinksSafeArea) {
  Rng rng(89);
  for (int trial = 0; trial < 10; ++trial) {
    const auto pts = random_points(rng, 8, 2);
    const auto sa2 = SafeArea::compute(pts, 2);
    const auto sa1 = SafeArea::compute(pts, 1);
    if (sa2.empty()) continue;
    ASSERT_FALSE(sa1.empty());
    for (const auto& x : sa2.extreme_points()) {
      EXPECT_TRUE(sa1.contains(x, 1e-6));
    }
  }
}

// ------------------------ D = 2 depth region vs the restriction enumeration

TEST(SafeArea2D, CollinearInputsMatchTheTrimmedInterval) {
  // On collinear values the D = 2 safe area is the 1-D trimmed interval
  // [s_(t+1), s_(m-t)] along the line. The C(m, t) enumeration can return a
  // segment that is too long (~1% of random m = 11 inputs at t = 2): sliver
  // restriction hulls whose near-parallel edges never cap it. The first draw
  // below (diagonal, no duplicates) is one, at every t in 1..5; at t = 2 its
  // segment reached 0.31 past s_(m-t).
  struct Line {
    Vec base;
    Vec dir;
  };
  const std::vector<Line> lines{{{1.5, -2.0}, {0.6, 0.8}},   // diagonal
                                {{1.5, -2.0}, {0.6, -0.8}},  // anti-diagonal
                                {{-3.0, 2.5}, {1.0, 0.0}},   // horizontal
                                {{-3.0, 2.5}, {0.0, 1.0}}};  // vertical
  Rng rng(77);
  const std::size_t m = 11;
  for (std::size_t li = 0; li < lines.size(); ++li) {
    for (const bool dups : {false, true}) {
      std::vector<Vec> params;
      for (std::size_t k = 0; k < m; ++k) {
        params.push_back(dups && k >= 6 ? params[rng.next_below(6)]
                                        : Vec{rng.next_double(-3.0, 3.0)});
      }
      std::vector<Vec> pts;
      for (const auto& s : params) pts.push_back(lines[li].base + lines[li].dir * s[0]);
      for (std::size_t t = 0; t <= m / 2; ++t) {
        const auto sa = SafeArea::compute(pts, t);
        const auto trimmed = SafeArea::compute(params, t).interval1d();
        const std::vector<Vec> ends{lines[li].base + lines[li].dir * trimmed.lo,
                                    lines[li].base + lines[li].dir * trimmed.hi};
        ASSERT_FALSE(sa.empty()) << "line " << li << " dups " << dups << " t " << t;
        EXPECT_LE(hausdorff(sa.polygon2d(), ConvexPolygon2D::hull_of(ends)), 1e-12)
            << "line " << li << " dups " << dups << " t " << t;
        const auto hulls = restriction_hulls(pts, t);
        for (const auto& x : sa.extreme_points()) {
          EXPECT_TRUE(in_every_restriction_hull(hulls, x, 1e-7))
              << "line " << li << " dups " << dups << " t " << t << " vertex "
              << to_string(x);
        }
      }
    }
  }
}

/// Well-conditioned input classes of the differential test (coordinates
/// ~5, spread >= 1e-6).
std::vector<Vec> differential_input(Rng& rng, int cls, std::size_t m) {
  std::vector<Vec> pts;
  const auto in_ball = [&rng](const Vec& centre, double radius) {
    const double r = radius * std::sqrt(rng.next_double());
    const double phi = rng.next_double(0.0, 2.0 * std::numbers::pi);
    return centre + Vec{r * std::cos(phi), r * std::sin(phi)};
  };
  switch (cls) {
    case 0:  // random ball
      for (std::size_t i = 0; i < m; ++i) pts.push_back(in_ball(Vec{3.0, -2.0}, 5.0));
      break;
    case 1:  // duplicates: about half the values repeat an earlier one
      for (std::size_t i = 0; i < m; ++i) {
        pts.push_back(i > 0 && rng.next_below(2) == 0 ? pts[rng.next_below(i)]
                                                      : in_ball(Vec{3.0, -2.0}, 5.0));
      }
      break;
    case 2:  // integer grid: exact collinearities and repeats
      for (std::size_t i = 0; i < m; ++i) {
        pts.push_back(Vec{static_cast<double>(rng.next_below(5)),
                          static_cast<double>(rng.next_below(5))});
      }
      break;
    case 3:  // cocircular
      for (std::size_t i = 0; i < m; ++i) {
        const double phi = rng.next_double(0.0, 2.0 * std::numbers::pi);
        pts.push_back(Vec{1.0 + 5.0 * std::cos(phi), 2.0 + 5.0 * std::sin(phi)});
      }
      break;
    default: {  // one tight cluster far from the origin
      const Vec centre = in_ball(Vec{5.0, 5.0}, 1.0);
      const double spread = std::pow(10.0, -rng.next_double(0.0, 6.0));
      for (std::size_t i = 0; i < m; ++i) pts.push_back(in_ball(centre, spread));
      break;
    }
  }
  return pts;
}

TEST(SafeArea2D, MatchesRestrictionEnumerationOnWellConditionedInputs) {
  Rng rng(516);
  int nonempty = 0;
  for (int cls = 0; cls < 5; ++cls) {
    for (std::size_t m = 4; m <= 16; ++m) {
      for (std::size_t t = 0; t <= m / 2; ++t) {
        for (int rep = 0; rep < 3; ++rep) {
          const auto pts = differential_input(rng, cls, m);
          const auto got = SafeArea::compute(pts, t);
          const auto want = enumerate_safe_area_2d(pts, t);
          ASSERT_EQ(got.empty(), want.empty())
              << "class " << cls << " m " << m << " t " << t << " rep " << rep;
          if (want.empty()) continue;
          ++nonempty;
          EXPECT_LE(hausdorff(got.polygon2d(), want), 1e-9 * max_abs_coord(pts))
              << "class " << cls << " m " << m << " t " << t << " rep " << rep;
        }
      }
    }
  }
  EXPECT_GT(nonempty, 500);  // the comparison is not vacuous
}

/// Ill-conditioned inputs: values near (5, 5) with a few outliers ~1e4 away
/// (even `trial`), or two or three tight clusters a few units apart, whose
/// safe area is a sliver between near-parallel lines (odd `trial`).
std::vector<Vec> ill_conditioned_input(Rng& rng, int trial, std::size_t m) {
  std::vector<Vec> pts;
  if (trial % 2 == 0) {
    const std::size_t outliers = 1 + rng.next_below(m / 3);
    for (std::size_t i = 0; i < m; ++i) {
      const double r = i < outliers ? 1e4 : 1.0;
      pts.push_back(Vec{5.0 + rng.next_double(-r, r), 5.0 + rng.next_double(-r, r)});
    }
    return pts;
  }
  const std::size_t clusters = 2 + rng.next_below(2);
  std::vector<Vec> centres;
  for (std::size_t c = 0; c < clusters; ++c) {
    centres.push_back(Vec{rng.next_double(2.0, 8.0), rng.next_double(2.0, 8.0)});
  }
  const double spread = std::pow(10.0, -rng.next_double(0.0, 6.0));
  for (std::size_t i = 0; i < m; ++i) {
    const Vec& c = centres[rng.next_below(clusters)];
    pts.push_back(c + Vec{rng.next_double(-spread, spread), rng.next_double(-spread, spread)});
  }
  return pts;
}

TEST(SafeArea2D, InsideEveryRestrictionHullOnIllConditionedInputs) {
  // Against exact rational arithmetic, both kernels miss the true region
  // here by up to clip_tol * scale / theta, theta the angle between two
  // near-parallel bounding lines; and rounding at the 1e4 scale can lose or
  // keep a single-point region either way. So neither emptiness nor the
  // Hausdorff distance to the enumeration is compared: every vertex and the
  // midpoint must pass the LP oracle instead.
  Rng rng(10000);
  int checked = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const std::size_t m = 5 + rng.next_below(8);
    const std::size_t t = 1 + rng.next_below(m / 2);
    const auto pts = ill_conditioned_input(rng, trial, m);
    const auto sa = SafeArea::compute(pts, t);
    if (sa.empty()) continue;
    const auto hulls = restriction_hulls(pts, t);
    const double tol = 1e-9 * max_abs_coord(pts);
    auto probes = sa.extreme_points();
    probes.push_back(*sa.midpoint_rule());
    for (const auto& x : probes) {
      ++checked;
      EXPECT_TRUE(in_every_restriction_hull(hulls, x, tol))
          << "trial " << trial << " m " << m << " t " << t << " point " << to_string(x);
    }
  }
  EXPECT_GT(checked, 120);
}

TEST(SafeArea2D, LargeConfigurationHasDepthAtLeastTPlusOne) {
  // m = 40, t = 13: C(40, 13) ~ 1.2e10 restrictions, beyond any enumeration.
  // Every 2-D set of 40 points has a point of Tukey depth >= ceil(40 / 3) =
  // 14 = t + 1 (centerpoint theorem), so the region is non-empty, and every
  // closed half-plane through each of its vertices must hold >= t + 1 values.
  Rng rng(40);
  const std::size_t m = 40;
  const std::size_t t = 13;
  std::vector<Vec> pts = random_points(rng, m, 2);
  for (std::size_t i = 0; i < 4; ++i) pts[i] = pts[i] * 1e3;  // a few far values
  const auto sa = SafeArea::compute(pts, t);
  ASSERT_FALSE(sa.empty());
  const double tol = 1e-9 * max_abs_coord(pts);
  for (const auto& x : sa.extreme_points()) {
    for (int k = 0; k < 64; ++k) {
      const double phi = 2.0 * std::numbers::pi * k / 64.0;
      const Vec u{std::cos(phi), std::sin(phi)};
      const auto held = std::count_if(pts.begin(), pts.end(), [&](const Vec& v) {
        return dot(u, v - x) >= -tol;
      });
      EXPECT_GE(held, static_cast<std::ptrdiff_t>(t + 1))
          << "vertex " << to_string(x) << " direction " << k;
    }
  }
}

// --------------------------------------------------- max_distance_pair

TEST(MaxDistancePair, EmptyAndSingleton) {
  EXPECT_FALSE(max_distance_pair(std::vector<Vec>{}).has_value());
  const std::vector<Vec> one{{1.0, 2.0}};
  const auto p = max_distance_pair(one);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->first, p->second);
}

TEST(MaxDistancePair, TieBreaksLexicographically) {
  // Both diagonals of the unit square have exactly equal length; the rule
  // must pick the lexicographically smallest pair.
  const std::vector<Vec> pts{{1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}, {0.0, 0.0}};
  const auto p = max_distance_pair(pts);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->first, (Vec{0.0, 0.0}));
  EXPECT_EQ(p->second, (Vec{1.0, 1.0}));
}

}  // namespace
}  // namespace hydra::geo
