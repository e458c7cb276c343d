// Tests for the safe area (Definition 5.1) and the combinatorial lemmas of
// Section 5.1. The parameterized suites are property tests: they sweep
// random instances across dimensions and check the lemma statements hold on
// every draw.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "common/combinatorics.hpp"
#include "common/rng.hpp"
#include "geometry/convex.hpp"
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
        bool lp_in = true;
        for (const auto& h : hulls) {
          if (!in_convex_hull(h, q, 1e-7)) {
            lp_in = false;
            break;
          }
        }
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
