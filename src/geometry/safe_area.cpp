#include "geometry/safe_area.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/assert.hpp"
#include "obs/prof.hpp"
#include "common/combinatorics.hpp"
#include "common/rng.hpp"
#include "geometry/convex.hpp"
#include "geometry/hull3d.hpp"

namespace hydra::geo {
namespace {

// Enumerating C(m, t) restrictions (the D >= 3 kernels) is exponential in t;
// the protocol only ever needs t <= ts < m <= n, and experiments keep n
// modest, but we fail loudly rather than hang if a caller goes overboard.
constexpr std::uint64_t kMaxRestrictions = 2'000'000;

/// values[kept[0]], values[kept[1]], ... into `out` (cleared first).
void subset_values(std::span<const Vec> values, const std::vector<std::size_t>& kept,
                   std::vector<Vec>& out) {
  out.clear();
  for (std::size_t i : kept) out.push_back(values[i]);
}

/// Deterministic direction set: the 2*D axis directions plus `extra` unit
/// vectors drawn from a fixed-seed Gaussian (identical on every party).
std::vector<Vec> make_directions(std::size_t dim, std::size_t extra,
                                 std::uint64_t seed) {
  std::vector<Vec> dirs;
  dirs.reserve(2 * dim + extra);
  for (std::size_t d = 0; d < dim; ++d) {
    Vec plus(dim, 0.0);
    plus[d] = 1.0;
    Vec minus(dim, 0.0);
    minus[d] = -1.0;
    dirs.push_back(std::move(plus));
    dirs.push_back(std::move(minus));
  }
  Rng rng(seed);
  for (std::size_t k = 0; k < extra; ++k) {
    Vec v(dim, 0.0);
    double len = 0.0;
    while (len < 1e-12) {
      for (std::size_t d = 0; d < dim; ++d) v[d] = rng.next_gaussian();
      len = norm(v);
    }
    v *= 1.0 / len;
    dirs.push_back(std::move(v));
  }
  return dirs;
}

std::vector<Vec> dedupe_points(std::vector<Vec> points, double tol) {
  std::sort(points.begin(), points.end());
  std::vector<Vec> out;
  for (auto& p : points) {
    const bool dup = std::any_of(out.begin(), out.end(), [&](const Vec& q) {
      return approx_equal(p, q, tol);
    });
    if (!dup) out.push_back(std::move(p));
  }
  return out;
}

/// The D = 2 kernel. A point lies in every (m - t)-subset hull exactly when
/// every closed half-plane containing it holds >= t + 1 values, so safe_t(M)
/// is the Tukey-depth region of depth >= t + 1 [Rousseeuw-Ruts 96]. Its
/// support in direction u is the (m - t)-th smallest projection u.v, whose
/// owner changes only across a line through two values that has <= t values
/// strictly beyond it and >= t + 1 on or beyond it. Each such line bounds a
/// closed half-plane holding >= m - t values, so clipping by all of them,
/// after the axis order-statistic box (valid for the same reason, and the cap
/// of the all-collinear case, whose pair lines leave an unbounded strip),
/// yields the region in O(m^3) orientation tests.
ConvexPolygon2D depth_region_2d(std::span<const Vec> values, std::size_t t,
                                double clip_tol) {
  const std::size_t m = values.size();
  std::vector<double> xs;
  std::vector<double> ys;
  xs.reserve(m);
  ys.reserve(m);
  for (const auto& v : values) {
    xs.push_back(v[0]);
    ys.push_back(v[1]);
  }
  std::sort(xs.begin(), xs.end());
  std::sort(ys.begin(), ys.end());
  const double x_lo = xs[t];
  const double x_hi = xs[m - 1 - t];
  const double y_lo = ys[t];
  const double y_hi = ys[m - 1 - t];
  if (x_lo > x_hi || y_lo > y_hi) return {};
  const std::array<Vec, 4> box{Vec{x_lo, y_lo}, Vec{x_hi, y_lo}, Vec{x_hi, y_hi},
                               Vec{x_lo, y_hi}};
  auto region = ConvexPolygon2D::hull_of(box);

  for (std::size_t i = 0; i < m; ++i) {
    const Vec& a = values[i];
    for (std::size_t j = i + 1; j < m; ++j) {
      const Vec& b = values[j];
      if (a == b) continue;
      std::size_t left = 0;
      std::size_t right = 0;
      for (const auto& v : values) {
        const int side = orientation(a, b, v);
        left += side > 0;
        right += side < 0;
      }
      const std::size_t on = m - left - right;  // includes a and b
      const double ex = b[0] - a[0];
      const double ey = b[1] - a[1];
      const double len = std::hypot(ex, ey);
      // Clips to { x : n.x <= n.a } for the unit normal n; false once empty.
      const auto cut = [&](double nx, double ny) {
        region = region.clip({nx, ny, nx * a[0] + ny * a[1]}, clip_tol);
        return !region.empty();
      };
      // The closed side right of a->b holds m - left >= m - t values.
      if (left <= t && left + on > t && !cut(-ey / len, ex / len)) return {};
      if (right <= t && right + on > t && !cut(ey / len, -ex / len)) return {};
    }
  }
  // Canonicalize: clipping noise can leave near-collinear vertices.
  return ConvexPolygon2D::hull_of(region.vertices());
}

}  // namespace

std::optional<std::pair<Vec, Vec>> max_distance_pair(std::span<const Vec> points) {
  HYDRA_PROF_SCOPE("geo.diameter");
  if (points.empty()) return std::nullopt;
  std::pair<Vec, Vec> best{points[0], points[0]};
  double best_d = -1.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = i; j < points.size(); ++j) {
      const Vec& u = std::min(points[i], points[j]);
      const Vec& v = std::max(points[i], points[j]);
      const double d = distance(u, v);
      if (d > best_d ||
          (d == best_d && (u < best.first || (u == best.first && v < best.second)))) {
        best_d = d;
        best = {u, v};
      }
    }
  }
  return best;
}

SafeArea SafeArea::compute(std::span<const Vec> values, std::size_t t,
                           const SafeAreaOptions& opts) {
  HYDRA_PROF_SCOPE("geo.safe_area");
  SafeArea sa;
  sa.lp_tol_ = opts.tol;
  if (values.empty() || t >= values.size()) {
    // restrict_t(M) would contain only sub-multisets of non-positive size:
    // the intersection over an empty family of hulls of nothing is empty.
    return sa;
  }
  const std::size_t m = values.size();
  const std::size_t dim = values[0].dim();
  for ([[maybe_unused]] const auto& v : values) HYDRA_ASSERT(v.dim() == dim);
  sa.dim_ = dim;

  if (dim == 1) {
    // Closed form: removing the t smallest values maximizes the kept
    // minimum, removing the t largest minimizes the kept maximum, so
    // safe_t(M) = [x_(t+1), x_(m-t)] on the sorted values — the classic
    // trimmed interval of unidimensional AA [Dolev et al. 86].
    std::vector<double> xs;
    xs.reserve(m);
    for (const auto& v : values) xs.push_back(v[0]);
    std::sort(xs.begin(), xs.end());
    sa.interval_ = Interval{xs[t], xs[m - 1 - t]};
    sa.empty_ = sa.interval_.empty();
    if (!sa.empty_) {
      sa.extreme_.push_back(Vec{sa.interval_.lo});
      if (sa.interval_.hi != sa.interval_.lo) sa.extreme_.push_back(Vec{sa.interval_.hi});
    }
    return sa;
  }

  if (dim == 2) {
    sa.polygon_ = depth_region_2d(values, t, opts.clip_tol);
    sa.empty_ = sa.polygon_.empty();
    sa.extreme_ = sa.polygon_.vertices();
    return sa;
  }

  // The D >= 3 kernels enumerate C(m, t) restrictions; the D <= 2 kernels
  // above do not, so the guard only applies here.
  HYDRA_ASSERT_MSG(binomial(m, t) <= kMaxRestrictions,
                   "safe-area restriction count too large to enumerate");

  // D >= 3: retain the restriction point sets (membership tests run one LP
  // per hull against them in any case).
  std::vector<std::size_t> kept;
  for_each_combination(m, t, [&](const std::vector<std::size_t>& removed) {
    complement_indices(m, removed, kept);
    subset_values(values, kept, sa.hulls_.emplace_back());
  });

  if (dim == 3) {
    // Exact D = 3 kernel: the safe area is the intersection of all the
    // restriction hulls' facet half-spaces, and its diameter pair is
    // attained at the enumerated vertices. Falls back to the LP kernel when
    // a hull is degenerate (rank < 3), the plane budget is exceeded, or the
    // enumeration finds no vertex while the LP says the intersection is
    // non-empty (tangent lower-dimensional intersections).
    double scale = 1.0;
    for (const auto& v : values) {
      for (std::size_t d = 0; d < dim; ++d) scale = std::max(scale, std::abs(v[d]));
    }
    std::vector<Plane3> planes;
    bool facets_ok = true;
    for (const auto& hull : sa.hulls_) {
      const auto f = hull3d_facets(hull);
      if (!f) {
        facets_ok = false;
        break;
      }
      planes.insert(planes.end(), f->begin(), f->end());
    }
    if (facets_ok) {
      if (auto vertices = halfspace_intersection_vertices(planes, scale)) {
        if (!vertices->empty()) {
          std::sort(vertices->begin(), vertices->end());
          sa.empty_ = false;
          sa.extreme_ = std::move(*vertices);
          sa.exact_ = true;
          return sa;
        }
        // No vertex found: genuinely empty unless the LP disagrees.
        if (!intersection_point(sa.hulls_, opts.tol)) {
          sa.empty_ = true;
          return sa;
        }
      }
    }
  }

  const auto witness = intersection_point(sa.hulls_, opts.tol);
  sa.empty_ = !witness.has_value();
  if (sa.empty_) return sa;

  const auto dirs = make_directions(dim, opts.support_directions, opts.direction_seed);
  std::vector<Vec> extremes;
  extremes.reserve(dirs.size() + 1);
  extremes.push_back(*witness);
  for (const auto& dir : dirs) {
    if (auto p = support_point(sa.hulls_, dir, opts.tol)) {
      extremes.push_back(std::move(*p));
    }
  }
  // Scale-aware dedupe keeps the extreme list small without merging
  // genuinely distinct vertices.
  double scale = 1.0;
  for (const auto& p : extremes) {
    for (std::size_t d = 0; d < dim; ++d) scale = std::max(scale, std::abs(p[d]));
  }
  sa.extreme_ = dedupe_points(std::move(extremes), 1e-9 * scale);
  return sa;
}

bool SafeArea::contains(const Vec& p, double tol) const {
  if (empty_) return false;
  HYDRA_ASSERT(p.dim() == dim_);
  if (dim_ == 1) return interval_.contains(p[0], tol);
  if (dim_ == 2) return polygon_.contains(p, tol);
  return std::all_of(hulls_.begin(), hulls_.end(), [&](const std::vector<Vec>& hull) {
    return in_convex_hull(hull, p, tol);
  });
}

std::optional<std::pair<Vec, Vec>> SafeArea::diameter_pair() const {
  if (empty_) return std::nullopt;
  if (dim_ == 2) return polygon_.diameter_pair();
  return max_distance_pair(extreme_);
}

double SafeArea::diameter() const {
  const auto pair = diameter_pair();
  return pair ? distance(pair->first, pair->second) : 0.0;
}

std::optional<Vec> SafeArea::midpoint_rule() const {
  const auto pair = diameter_pair();
  if (!pair) return std::nullopt;
  return midpoint(pair->first, pair->second);
}

std::optional<Vec> SafeArea::centroid_rule() const {
  if (empty_ || extreme_.empty()) return std::nullopt;
  Vec sum(dim_, 0.0);
  for (const auto& p : extreme_) sum += p;
  sum *= 1.0 / static_cast<double>(extreme_.size());
  return sum;
}

std::optional<Vec> safe_area_midpoint(std::span<const Vec> values, std::size_t t,
                                      const SafeAreaOptions& opts) {
  return SafeArea::compute(values, t, opts).midpoint_rule();
}

}  // namespace hydra::geo
