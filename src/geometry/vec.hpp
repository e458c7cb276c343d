// Points/vectors in R^D with value semantics.
//
// Dimension is a runtime property (the protocol is parameterized by D). Up to
// kInlineDim coordinates live inside the Vec itself, so the D <= 4 points the
// protocols and geometry kernels shuffle by the million never touch the
// heap; only D > kInlineDim allocates. All pairwise operations assert
// matching dimensions.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <compare>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "common/assert.hpp"

namespace hydra::geo {

class Vec {
 public:
  static constexpr std::size_t kInlineDim = 4;

  Vec() = default;

  explicit Vec(std::size_t dim, double fill = 0.0) {
    if (dim > kInlineDim) {
      heap_.assign(dim, fill);
    } else {
      inline_dim_ = dim;
      std::fill_n(inline_.begin(), dim, fill);
    }
  }

  Vec(std::initializer_list<double> values) { assign(values.begin(), values.size()); }

  explicit Vec(const std::vector<double>& values) { assign(values.data(), values.size()); }

  [[nodiscard]] std::size_t dim() const noexcept {
    return heap_.empty() ? inline_dim_ : heap_.size();
  }

  [[nodiscard]] double operator[](std::size_t i) const noexcept { return begin_ptr()[i]; }
  [[nodiscard]] double& operator[](std::size_t i) noexcept { return begin_ptr()[i]; }

  [[nodiscard]] std::span<const double> coords() const noexcept {
    return {begin_ptr(), dim()};
  }

  Vec& operator+=(const Vec& rhs) {
    HYDRA_ASSERT(dim() == rhs.dim());
    double* c = begin_ptr();
    const double* r = rhs.begin_ptr();
    for (std::size_t i = 0, d = dim(); i < d; ++i) c[i] += r[i];
    return *this;
  }

  Vec& operator-=(const Vec& rhs) {
    HYDRA_ASSERT(dim() == rhs.dim());
    double* c = begin_ptr();
    const double* r = rhs.begin_ptr();
    for (std::size_t i = 0, d = dim(); i < d; ++i) c[i] -= r[i];
    return *this;
  }

  Vec& operator*=(double s) noexcept {
    double* c = begin_ptr();
    for (std::size_t i = 0, d = dim(); i < d; ++i) c[i] *= s;
    return *this;
  }

  [[nodiscard]] friend Vec operator+(Vec lhs, const Vec& rhs) { return lhs += rhs; }
  [[nodiscard]] friend Vec operator-(Vec lhs, const Vec& rhs) { return lhs -= rhs; }
  [[nodiscard]] friend Vec operator*(Vec lhs, double s) noexcept { return lhs *= s; }
  [[nodiscard]] friend Vec operator*(double s, Vec rhs) noexcept { return rhs *= s; }

  [[nodiscard]] friend bool operator==(const Vec& a, const Vec& b) noexcept {
    const auto ca = a.coords();
    const auto cb = b.coords();
    return std::equal(ca.begin(), ca.end(), cb.begin(), cb.end());
  }

  /// Lexicographic order; the paper uses "R^D is totally ordered" to pick the
  /// diameter pair deterministically.
  [[nodiscard]] friend std::strong_ordering operator<=>(const Vec& a, const Vec& b) noexcept {
    const std::size_t n = std::min(a.dim(), b.dim());
    for (std::size_t i = 0; i < n; ++i) {
      if (a[i] < b[i]) return std::strong_ordering::less;
      if (a[i] > b[i]) return std::strong_ordering::greater;
    }
    if (a.dim() < b.dim()) return std::strong_ordering::less;
    if (a.dim() > b.dim()) return std::strong_ordering::greater;
    return std::strong_ordering::equal;
  }

 private:
  [[nodiscard]] const double* begin_ptr() const noexcept {
    return heap_.empty() ? inline_.data() : heap_.data();
  }
  [[nodiscard]] double* begin_ptr() noexcept {
    return heap_.empty() ? inline_.data() : heap_.data();
  }

  void assign(const double* values, std::size_t dim) {
    if (dim > kInlineDim) {
      heap_.assign(values, values + dim);
    } else {
      inline_dim_ = dim;
      std::copy_n(values, dim, inline_.begin());
    }
  }

  // The copy, move and destructor members are the defaulted ones: copying or
  // moving an empty heap_ does not allocate, and a moved-from Vec with
  // D > kInlineDim is left with an empty heap_ and so reads as dimension 0.
  std::array<double, kInlineDim> inline_{};
  std::size_t inline_dim_ = 0;  ///< dimension when heap_ is empty
  std::vector<double> heap_;    ///< the coordinates when D > kInlineDim
};

/// Dot product.
[[nodiscard]] inline double dot(const Vec& a, const Vec& b) {
  HYDRA_ASSERT(a.dim() == b.dim());
  double s = 0.0;
  for (std::size_t i = 0; i < a.dim(); ++i) s += a[i] * b[i];
  return s;
}

/// Euclidean distance delta(v, v') of Definition 2.1.
[[nodiscard]] inline double distance(const Vec& a, const Vec& b) {
  HYDRA_ASSERT(a.dim() == b.dim());
  double s = 0.0;
  for (std::size_t i = 0; i < a.dim(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return std::sqrt(s);
}

[[nodiscard]] inline double norm(const Vec& a) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.dim(); ++i) s += a[i] * a[i];
  return std::sqrt(s);
}

/// Midpoint (a+b)/2 — the update rule of [Függer-Nowak 2018] used by ΠAA-it.
[[nodiscard]] inline Vec midpoint(const Vec& a, const Vec& b) {
  Vec m = a;
  m += b;
  m *= 0.5;
  return m;
}

/// Diameter delta_max(V): maximum pairwise distance. Empty or singleton sets
/// have diameter 0.
[[nodiscard]] inline double diameter(std::span<const Vec> points) {
  double best = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      best = std::max(best, distance(points[i], points[j]));
    }
  }
  return best;
}

/// Approximate equality within an absolute tolerance in every coordinate.
[[nodiscard]] inline bool approx_equal(const Vec& a, const Vec& b, double tol) {
  if (a.dim() != b.dim()) return false;
  for (std::size_t i = 0; i < a.dim(); ++i) {
    if (std::abs(a[i] - b[i]) > tol) return false;
  }
  return true;
}

[[nodiscard]] std::string to_string(const Vec& v);

}  // namespace hydra::geo
