// Tree value domains: approximate agreement over the vertices of a fixed
// tree, the first non-Euclidean ValueDomain instance.
//
// Values are integer vertex labels carried in a 1-D geo::Vec (exactly
// representable in a double far beyond any practical vertex count), so the
// wire codec is unchanged — domain validation rejects non-integral or
// out-of-range labels the way the Euclidean decoder rejects non-finite
// coordinates.
//
// The protocol shape is the paper's, with geodesic convexity substituted
// for linear convexity (Fuchs-Ghinea-Parsaeian-Rybicki, arXiv:2502.05591;
// Nowak-Rybicki, arXiv:1908.02743):
//
//   hull(S)      the geodesic convex hull: every vertex on a path between
//                two members of S. In a tree this is the Steiner subtree of
//                S and is convex (trees have unique paths).
//   safe_t(M)    the intersection of hull(M') over all |M| - t subsets M' —
//                Definition 5.1 verbatim. Subtrees have the Helly property
//                (pairwise-intersecting subtrees share a vertex), so the
//                same feasibility shape keeps it non-empty.
//   new value    the vertex at floor(d/2) along the unique path between the
//                lexicographically-smallest maximum-distance pair of the
//                safe area — the discrete diameter-pair midpoint. Each
//                iteration halves the honest diameter (ceil(d/2)), so
//                convergence stops at 1-agreement: adjacent vertices, the
//                discrete analog of eps-agreement, reached in ceil(log2 d)
//                iterations.
//
// Determinism: vertex sets are iterated in ascending label order and ties
// break lexicographically, so parties holding equal multisets adopt the
// identical vertex — the consistency Πinit relies on.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/combinatorics.hpp"
#include "common/rng.hpp"
#include "domain/tree.hpp"

namespace hydra::domain {

TreeDomain::TreeDomain(std::string name, std::vector<std::uint32_t> parent)
    : name_(std::move(name)), parent_(std::move(parent)) {
  HYDRA_ASSERT_MSG(!parent_.empty() && parent_[0] == 0,
                   "TreeDomain: parent[0] must be the root (self-parented)");
  depth_.assign(parent_.size(), 0);
  for (std::uint32_t v = 1; v < parent_.size(); ++v) {
    HYDRA_ASSERT_MSG(parent_[v] < v,
                     "TreeDomain: parents must precede children (parent[v] < v)");
    depth_[v] = depth_[parent_[v]] + 1;
  }
}

TreeDomain::Label TreeDomain::label_of(const geo::Vec& v) const {
  const double x = v.dim() >= 1 ? v[0] : 0.0;
  const double rounded = std::rint(x);
  const double max_label = static_cast<double>(parent_.size() - 1);
  const double clamped = std::min(std::max(rounded, 0.0), max_label);
  return Label{static_cast<std::uint32_t>(clamped), std::abs(x - clamped)};
}

std::uint32_t TreeDomain::lca(std::uint32_t a, std::uint32_t b) const {
  while (depth_[a] > depth_[b]) a = parent_[a];
  while (depth_[b] > depth_[a]) b = parent_[b];
  while (a != b) {
    a = parent_[a];
    b = parent_[b];
  }
  return a;
}

std::uint32_t TreeDomain::vertex_distance(std::uint32_t a, std::uint32_t b) const {
  const std::uint32_t anc = lca(a, b);
  return (depth_[a] - depth_[anc]) + (depth_[b] - depth_[anc]);
}

std::uint32_t TreeDomain::vertex_at(std::uint32_t a, std::uint32_t b,
                                    std::uint32_t steps) const {
  const std::uint32_t anc = lca(a, b);
  const std::uint32_t up = depth_[a] - depth_[anc];
  if (steps <= up) {
    for (std::uint32_t i = 0; i < steps; ++i) a = parent_[a];
    return a;
  }
  // Descend toward b: equivalently, climb from b by the remaining distance.
  const std::uint32_t total = up + (depth_[b] - depth_[anc]);
  HYDRA_ASSERT(steps <= total);
  std::uint32_t from_b = total - steps;
  while (from_b > 0) {
    b = parent_[b];
    --from_b;
  }
  return b;
}

void TreeDomain::add_path(std::uint32_t a, std::uint32_t b,
                          std::set<std::uint32_t>& out) const {
  const std::uint32_t anc = lca(a, b);
  for (std::uint32_t v = a;; v = parent_[v]) {
    out.insert(v);
    if (v == anc) break;
  }
  for (std::uint32_t v = b;; v = parent_[v]) {
    out.insert(v);
    if (v == anc) break;
  }
}

std::set<std::uint32_t> TreeDomain::hull(
    const std::vector<std::uint32_t>& labels) const {
  std::set<std::uint32_t> out;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    for (std::size_t j = i; j < labels.size(); ++j) {
      add_path(labels[i], labels[j], out);
    }
  }
  return out;
}

bool TreeDomain::validate(const geo::Vec& v) const {
  if (v.dim() != 1) return false;
  const double x = v[0];
  return x == std::rint(x) && x >= 0.0 &&
         x <= static_cast<double>(parent_.size() - 1);
}

double TreeDomain::distance(const geo::Vec& a, const geo::Vec& b) const {
  // Defined for every finite 1-D vector (monitors see test-injected escaped
  // values): the tree metric on the clamped rounded labels plus the L1
  // rounding residuals — still a metric, and exact on valid labels.
  const Label la = label_of(a);
  const Label lb = label_of(b);
  return static_cast<double>(vertex_distance(la.vertex, lb.vertex)) +
         la.residual + lb.residual;
}

AggregateResult TreeDomain::aggregate(const AggregateSpec& spec,
                                      std::span<const geo::Vec> values) const {
  const std::size_t k = values.size() - (spec.n - spec.ts);
  const std::size_t t = std::max(k, spec.ta);

  std::vector<std::uint32_t> labels;
  labels.reserve(values.size());
  for (const auto& v : values) labels.push_back(label_of(v).vertex);

  // safe_t(M): intersect the geodesic hulls of every |M| - t subset
  // (combinations over positions, multiplicity preserved — Definition 5.1).
  std::optional<std::set<std::uint32_t>> safe;
  std::vector<std::size_t> kept;
  std::vector<std::uint32_t> subset;
  for_each_combination(labels.size(), t,
                       [&](const std::vector<std::size_t>& removed) {
                         complement_indices(labels.size(), removed, kept);
                         subset.clear();
                         for (auto i : kept) subset.push_back(labels[i]);
                         auto h = hull(subset);
                         if (!safe) {
                           safe = std::move(h);
                           return;
                         }
                         std::set<std::uint32_t> both;
                         std::set_intersection(
                             safe->begin(), safe->end(), h.begin(), h.end(),
                             std::inserter(both, both.begin()));
                         *safe = std::move(both);
                       });

  std::uint32_t fallbacks = 0;
  if (!safe.has_value() || safe->empty()) {
    // The Helly property makes this unreachable under the feasibility
    // condition; fall back to the full hull so the rule stays total.
    safe = hull(labels);
    fallbacks = 1;
    HYDRA_ASSERT_MSG(!safe->empty(), "tree safe area empty on empty M");
  }

  // Discrete midpoint rule: the vertex at floor(d/2) along the unique path
  // between the lexicographically-smallest maximum-distance pair.
  const std::vector<std::uint32_t> area(safe->begin(), safe->end());
  std::uint32_t best_u = area[0];
  std::uint32_t best_v = area[0];
  std::uint32_t best_d = 0;
  for (std::size_t i = 0; i < area.size(); ++i) {
    for (std::size_t j = i; j < area.size(); ++j) {
      const std::uint32_t d = vertex_distance(area[i], area[j]);
      if (d > best_d) {
        best_d = d;
        best_u = area[i];
        best_v = area[j];
      }
    }
  }
  const std::uint32_t mid = vertex_at(best_u, best_v, best_d / 2);
  return {geo::Vec{static_cast<double>(mid)}, fallbacks};
}

bool TreeDomain::in_validity_set(std::span<const geo::Vec> basis,
                                 const geo::Vec& candidate, double tol) const {
  if (candidate.dim() != 1) return false;
  // A candidate must BE a vertex (tol only absorbs representation noise,
  // capped below one half so distinct labels never alias) ...
  const Label c = label_of(candidate);
  if (c.residual > std::min(tol, 0.499)) return false;
  // ... on some path between two basis members (geodesic hull membership).
  std::vector<std::uint32_t> labels;
  labels.reserve(basis.size());
  for (const auto& b : basis) labels.push_back(label_of(b).vertex);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    for (std::size_t j = i; j < labels.size(); ++j) {
      const std::uint32_t d = vertex_distance(labels[i], labels[j]);
      if (vertex_distance(labels[i], c.vertex) +
              vertex_distance(c.vertex, labels[j]) ==
          d) {
        return true;
      }
    }
  }
  return false;
}

double TreeDomain::contraction_bound(double factor, double prev_diameter) const {
  // Integer metric: the midpoint rule contracts d to at most ceil(d/2)
  // per iteration (factor 1/2); exact, no floating epsilon needed.
  return std::ceil(factor * prev_diameter);
}

std::uint64_t TreeDomain::sufficient_iterations(double eps, double diam) const {
  const double target = std::max(min_eps(), eps);
  std::uint64_t t = 0;
  double d = diam;
  while (d > target && t < 64) {
    d = std::ceil(d / 2.0);
    ++t;
  }
  return std::max<std::uint64_t>(1, t);
}

bool TreeDomain::feasible(std::size_t n, std::size_t ts, std::size_t ta,
                          std::size_t dim) const noexcept {
  // A vertex label is 1-D on the wire; resilience needs the library's D = 1
  // requirements (n > 3 ts for Bracha ΠrBC, n > 2 ts + ta for the 1-D-like
  // safe-area rule).
  return dim == 1 && ta <= ts && n > 3 * ts && n > 2 * ts + ta;
}

std::optional<std::size_t> TreeDomain::required_dim() const noexcept { return 1; }

double TreeDomain::min_eps() const noexcept { return 1.0; }

std::optional<std::vector<geo::Vec>> TreeDomain::make_inputs(
    std::size_t n, std::size_t /*dim*/, double scale, std::uint64_t seed) const {
  // Labels uniform over [0, min(scale, V-1)]: `--scale` bounds the input
  // spread exactly like the Euclidean ball radius does.
  Rng rng(seed ^ 0x7ee5a1b3c0ffee00ULL);
  const auto max_label = static_cast<std::uint64_t>(parent_.size() - 1);
  const std::uint64_t span =
      std::min(max_label,
               static_cast<std::uint64_t>(std::max(1.0, std::floor(scale))));
  std::vector<geo::Vec> inputs;
  inputs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    inputs.emplace_back(
        geo::Vec{static_cast<double>(rng.next_u64() % (span + 1))});
  }
  return inputs;
}

std::string TreeDomain::format_value(const geo::Vec& v) const {
  if (!validate(v)) return ValueDomain::format_value(v);  // escaped value
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u", label_of(v).vertex);
  return buf;
}

std::vector<std::uint32_t> binary_tree_parents(std::size_t vertices) {
  std::vector<std::uint32_t> parent(vertices, 0);
  for (std::uint32_t v = 1; v < vertices; ++v) parent[v] = (v - 1) / 2;
  return parent;
}

std::vector<std::uint32_t> path_parents(std::size_t vertices) {
  std::vector<std::uint32_t> parent(vertices, 0);
  for (std::uint32_t v = 1; v < vertices; ++v) parent[v] = v - 1;
  return parent;
}

}  // namespace hydra::domain
