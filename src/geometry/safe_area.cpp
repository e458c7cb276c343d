#include "geometry/safe_area.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "obs/prof.hpp"
#include "common/combinatorics.hpp"
#include "common/rng.hpp"
#include "geometry/convex.hpp"
#include "geometry/hull3d.hpp"

namespace hydra::geo {
namespace {

// Enumerating C(m, t) restrictions is exponential in t; the protocol only
// ever needs t <= ts < m <= n, and experiments keep n modest, but we fail
// loudly rather than hang if a caller goes overboard.
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

  // The D >= 2 kernels enumerate C(m, t) restrictions; the D = 1 closed form
  // above does not, so the guard only applies here.
  HYDRA_ASSERT_MSG(binomial(m, t) <= kMaxRestrictions,
                   "safe-area restriction count too large to enumerate");

  if (dim == 2) {
    ConvexPolygon2D region;
    bool first = true;
    bool is_empty = false;
    std::vector<std::size_t> kept;
    std::vector<Vec> pts;  // reused across all C(m, t) restrictions
    for_each_combination(m, t, [&](const std::vector<std::size_t>& removed) {
      if (is_empty) return;
      complement_indices(m, removed, kept);
      subset_values(values, kept, pts);
      const auto hull = ConvexPolygon2D::hull_of(pts);
      if (first) {
        region = hull;
        first = false;
      } else {
        region = region.intersect(hull, opts.clip_tol);
      }
      if (region.empty()) is_empty = true;
    });
    sa.polygon_ = std::move(region);
    sa.empty_ = sa.polygon_.empty();
    sa.extreme_ = sa.polygon_.vertices();
    return sa;
  }

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
