// The Euclidean R^D value domain: the paper's original setting. Every
// method body here is a verbatim move of the pre-domain-layer code (ΠAA-it's
// compute_new_value_impl, Πinit's sufficient_iterations, the oracle's hull
// membership) — the refactor's byte-identity contract depends on it.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/assert.hpp"
#include "common/combinatorics.hpp"
#include "domain/domain.hpp"
#include "geometry/convex.hpp"

namespace hydra::domain {
namespace {

class EuclidDomain final : public ValueDomain {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "euclid";
  }

  [[nodiscard]] bool validate(const geo::Vec& /*v*/) const override {
    // Structural decode already enforces dimension and finiteness; every
    // finite vector is a value.
    return true;
  }

  [[nodiscard]] double distance(const geo::Vec& a,
                                const geo::Vec& b) const override {
    return geo::distance(a, b);
  }

  [[nodiscard]] double diameter(std::span<const geo::Vec> points) const override {
    return geo::diameter(points);
  }

  // The ΠAA-it rule (Section 5): midpoint of the safe area's deterministic
  // diameter pair, with the numerical fallback ladder.
  [[nodiscard]] AggregateResult aggregate(
      const AggregateSpec& spec, std::span<const geo::Vec> values) const override {
    const std::size_t k = values.size() - (spec.n - spec.ts);
    const std::size_t t = std::max(k, spec.ta);

    const auto pick = [&spec](const geo::SafeArea& sa) {
      return spec.centroid ? sa.centroid_rule() : sa.midpoint_rule();
    };

    auto opts = spec.safe_opts;
    const auto sa = geo::SafeArea::compute(values, t, opts);
    if (auto v = pick(sa)) return {*v, 0};

    // Lemma 5.5 says this is unreachable mathematically; numerically the
    // exact kernel can lose a measure-zero intersection. Retry looser, then
    // take an LP witness.
    for (const double tol : {1e-10, 1e-8}) {
      opts.clip_tol = tol;
      const auto relaxed = geo::SafeArea::compute(values, t, opts);
      if (auto v = pick(relaxed)) return {*v, 1};
    }

    std::vector<std::vector<geo::Vec>> hulls;
    std::vector<std::size_t> kept;
    for_each_combination(values.size(), t,
                         [&](const std::vector<std::size_t>& removed) {
                           complement_indices(values.size(), removed, kept);
                           auto& h = hulls.emplace_back();
                           h.reserve(kept.size());
                           for (auto i : kept) h.push_back(values[i]);
                         });
    const auto witness = geo::intersection_point(hulls, 1e-9);
    HYDRA_ASSERT_MSG(witness.has_value(),
                     "safe area empty despite Lemma 5.5 preconditions");
    return {*witness, 1};
  }

  [[nodiscard]] bool in_validity_set(std::span<const geo::Vec> basis,
                                     const geo::Vec& candidate,
                                     double tol) const override {
    return geo::in_convex_hull(basis, candidate, tol);
  }

  [[nodiscard]] double contraction_factor() const noexcept override {
    return std::sqrt(7.0 / 8.0);
  }

  [[nodiscard]] std::uint64_t sufficient_iterations(double eps,
                                                    double diam) const override {
    HYDRA_ASSERT(eps > 0.0);
    if (diam <= eps) return 1;
    // log base sqrt(7/8) of (eps / diam); the base is < 1 and the argument
    // is < 1, so the quotient of logs is positive.
    const double t =
        std::ceil(std::log(eps / diam) / std::log(std::sqrt(7.0 / 8.0)));
    HYDRA_ASSERT(t >= 0.0);
    return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(t));
  }

  [[nodiscard]] bool feasible(std::size_t n, std::size_t ts, std::size_t ta,
                              std::size_t dim) const noexcept override {
    return ta <= ts && n > (dim + 1) * ts + ta && n > 3 * ts;
  }
};

}  // namespace

const ValueDomain& euclid() {
  static const EuclidDomain instance;
  return instance;
}

// -- base-class defaults ----------------------------------------------------

double ValueDomain::diameter(std::span<const geo::Vec> points) const {
  double best = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      best = std::max(best, distance(points[i], points[j]));
    }
  }
  return best;
}

double ValueDomain::contraction_bound(double factor, double prev_diameter) const {
  // The Euclidean monitor's exact formula: a relative epsilon absorbs the
  // floating error of near-converged layers.
  return factor * prev_diameter + 1e-9 * (1.0 + prev_diameter);
}

std::optional<std::size_t> ValueDomain::required_dim() const noexcept {
  return std::nullopt;
}

double ValueDomain::min_eps() const noexcept { return 0.0; }

std::optional<std::vector<geo::Vec>> ValueDomain::make_inputs(
    std::size_t /*n*/, std::size_t /*dim*/, double /*scale*/,
    std::uint64_t /*seed*/) const {
  return std::nullopt;
}

std::string ValueDomain::format_value(const geo::Vec& v) const {
  std::string out = "(";
  char buf[32];
  for (std::size_t d = 0; d < v.dim(); ++d) {
    std::snprintf(buf, sizeof(buf), "%.6g", v[d]);
    if (d > 0) out += ", ";
    out += buf;
  }
  out += ")";
  return out;
}

}  // namespace hydra::domain
