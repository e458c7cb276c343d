#include "geometry/polygon.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "obs/prof.hpp"

namespace hydra::geo {
namespace {

double max_abs_coord(std::span<const Vec> points) noexcept {
  double s = 1.0;
  for (const auto& p : points) {
    s = std::max({s, std::abs(p[0]), std::abs(p[1])});
  }
  return s;
}

HalfPlane normalized(double nx, double ny, double c) {
  const double len = std::hypot(nx, ny);
  HYDRA_ASSERT(len > 0.0);
  return {nx / len, ny / len, c / len};
}

double point_segment_distance(const Vec& p, const Vec& a, const Vec& b) {
  const double ex = b[0] - a[0];
  const double ey = b[1] - a[1];
  const double len2 = ex * ex + ey * ey;
  double t = 0.0;
  if (len2 > 0.0) {
    t = ((p[0] - a[0]) * ex + (p[1] - a[1]) * ey) / len2;
    t = std::clamp(t, 0.0, 1.0);
  }
  const double qx = a[0] + t * ex;
  const double qy = a[1] + t * ey;
  return std::hypot(p[0] - qx, p[1] - qy);
}

/// Removes consecutive (cyclically) near-coincident vertices.
std::vector<Vec> dedupe_ring(std::vector<Vec> ring, double pos_tol) {
  std::vector<Vec> out;
  for (auto& v : ring) {
    if (out.empty() || !approx_equal(out.back(), v, pos_tol)) {
      out.push_back(std::move(v));
    }
  }
  while (out.size() > 1 && approx_equal(out.front(), out.back(), pos_tol)) {
    out.pop_back();
  }
  return out;
}

}  // namespace

ConvexPolygon2D ConvexPolygon2D::hull_of(std::span<const Vec> points, double tol) {
  HYDRA_PROF_SCOPE("geo.hull2d");
  std::vector<Vec> pts(points.begin(), points.end());
  for ([[maybe_unused]] const auto& p : pts) HYDRA_ASSERT(p.dim() == 2);
  std::sort(pts.begin(), pts.end());
  pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
  if (pts.empty()) return ConvexPolygon2D{};
  if (pts.size() == 1) return ConvexPolygon2D{std::move(pts)};

  // Andrew's monotone chain; collinear interior points are dropped.
  std::vector<Vec> hull(2 * pts.size());
  std::size_t k = 0;
  for (const auto& p : pts) {  // lower chain
    while (k >= 2 && orientation(hull[k - 2], hull[k - 1], p, tol) <= 0) --k;
    hull[k++] = p;
  }
  const std::size_t lower_size = k + 1;
  for (auto it = pts.rbegin() + 1; it != pts.rend(); ++it) {  // upper chain
    while (k >= lower_size && orientation(hull[k - 2], hull[k - 1], *it, tol) <= 0) {
      --k;
    }
    hull[k++] = *it;
  }
  hull.resize(k - 1);  // last point equals the first
  return ConvexPolygon2D{std::move(hull)};
}

std::vector<HalfPlane> ConvexPolygon2D::halfplanes() const {
  HYDRA_ASSERT_MSG(!empty(), "half-plane representation of the empty set");
  std::vector<HalfPlane> out;
  if (vertices_.size() == 1) {
    const Vec& p = vertices_[0];
    out.push_back({1.0, 0.0, p[0]});
    out.push_back({-1.0, 0.0, -p[0]});
    out.push_back({0.0, 1.0, p[1]});
    out.push_back({0.0, -1.0, -p[1]});
    return out;
  }
  if (vertices_.size() == 2) {
    const Vec& a = vertices_[0];
    const Vec& b = vertices_[1];
    const double ex = b[0] - a[0];
    const double ey = b[1] - a[1];
    // Two opposite half-planes through the segment's line ...
    out.push_back(normalized(ey, -ex, ey * a[0] - ex * a[1]));
    out.push_back(normalized(-ey, ex, -(ey * a[0] - ex * a[1])));
    // ... plus end caps along the segment direction.
    out.push_back(normalized(ex, ey, ex * b[0] + ey * b[1]));
    out.push_back(normalized(-ex, -ey, -(ex * a[0] + ey * a[1])));
    return out;
  }
  for (std::size_t i = 0; i < vertices_.size(); ++i) {
    const Vec& v = vertices_[i];
    const Vec& w = vertices_[(i + 1) % vertices_.size()];
    const double ex = w[0] - v[0];
    const double ey = w[1] - v[1];
    // CCW ring: the interior lies to the left of each directed edge, i.e.
    // (ey, -ex) . x <= (ey, -ex) . v.
    out.push_back(normalized(ey, -ex, ey * v[0] - ex * v[1]));
  }
  return out;
}

ConvexPolygon2D ConvexPolygon2D::clip(const HalfPlane& hp, double tol) const {
  if (empty()) return {};
  const double scale = max_abs_coord(vertices_);
  const double eps = tol * scale;
  const auto inside = [&](const Vec& v) {
    return hp.nx * v[0] + hp.ny * v[1] <= hp.c + eps;
  };

  if (vertices_.size() == 1) {
    return inside(vertices_[0]) ? *this : ConvexPolygon2D{};
  }

  std::vector<Vec> out;
  out.reserve(vertices_.size() + 2);
  for (std::size_t i = 0; i < vertices_.size(); ++i) {
    const Vec& s = vertices_[i];
    const Vec& e = vertices_[(i + 1) % vertices_.size()];
    const double fs = hp.nx * s[0] + hp.ny * s[1] - hp.c;
    const double fe = hp.nx * e[0] + hp.ny * e[1] - hp.c;
    const bool s_in = fs <= eps;
    const bool e_in = fe <= eps;
    if (s_in) out.push_back(s);
    // Edge crosses the boundary strictly: emit the crossing point.
    if (s_in != e_in) {
      const double denom = fs - fe;
      if (std::abs(denom) > 0.0) {
        const double t = fs / denom;
        out.push_back(Vec{s[0] + t * (e[0] - s[0]), s[1] + t * (e[1] - s[1])});
      }
    }
  }
  out = dedupe_ring(std::move(out), eps);
  return ConvexPolygon2D{std::move(out)};
}

ConvexPolygon2D ConvexPolygon2D::intersect(const ConvexPolygon2D& other,
                                           double tol) const {
  HYDRA_PROF_SCOPE("geo.clip");
  if (empty() || other.empty()) return {};
  ConvexPolygon2D result = *this;
  for (const auto& hp : other.halfplanes()) {
    result = result.clip(hp, tol);
    if (result.empty()) return {};
  }
  // Canonicalize: clipping noise can leave near-collinear vertices.
  return hull_of(result.vertices_);
}

bool ConvexPolygon2D::contains(const Vec& p, double tol) const {
  HYDRA_PROF_SCOPE("geo.halfspace");
  HYDRA_ASSERT(p.dim() == 2);
  if (empty()) return false;
  if (vertices_.size() == 1) return distance(p, vertices_[0]) <= tol;
  if (vertices_.size() == 2) {
    return point_segment_distance(p, vertices_[0], vertices_[1]) <= tol;
  }
  for (const auto& hp : halfplanes()) {
    if (hp.nx * p[0] + hp.ny * p[1] > hp.c + tol) return false;
  }
  return true;
}

std::optional<std::pair<Vec, Vec>> ConvexPolygon2D::diameter_pair() const {
  if (empty()) return std::nullopt;
  // The diameter of a convex polygon is attained at a vertex pair; with at
  // most a few dozen vertices the all-pairs scan is exact and branch-simple.
  // Ties break to the lexicographically smallest ordered pair, which is the
  // paper's deterministic selection rule.
  std::pair<Vec, Vec> best{vertices_[0], vertices_[0]};
  double best_d = -1.0;
  for (std::size_t i = 0; i < vertices_.size(); ++i) {
    for (std::size_t j = i; j < vertices_.size(); ++j) {
      const Vec& u = std::min(vertices_[i], vertices_[j]);
      const Vec& v = std::max(vertices_[i], vertices_[j]);
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

double ConvexPolygon2D::diameter() const {
  const auto pair = diameter_pair();
  return pair ? distance(pair->first, pair->second) : 0.0;
}

}  // namespace hydra::geo
