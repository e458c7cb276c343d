// The value-domain abstraction: everything the ΠAA stack needs to know
// about the space values live in, bundled behind one interface so the
// protocol, the monitors, the oracles, and the harness are generic over it.
//
// The paper's protocol shape — exchange values, intersect hulls over
// |M| - t subsets, adopt a midpoint of the result — is not specific to
// Euclidean R^D. Approximate agreement on trees and block graphs
// (Fuchs-Ghinea-Parsaeian-Rybicki, arXiv:2502.05591) and Byzantine AA on
// graphs (Nowak-Rybicki, arXiv:1908.02743) instantiate the same shape over
// a discrete metric space: geodesic (path) convexity replaces linear
// convexity, the midpoint of the diameter pair becomes a vertex at
// floor(d/2) along the unique tree path, and the per-iteration contraction
// factor becomes 1/2 instead of sqrt(7/8).
//
// A ValueDomain bundles:
//   - the value representation contract over geo::Vec (wire codec content
//     validation beyond structural decode),
//   - the metric (distance/diameter),
//   - the ΠAA-it aggregation rule (safe-area midpoint),
//   - the validity predicate (convex-hull membership for Euclid, geodesic
//     convex-hull membership for trees),
//   - the expected per-iteration contraction bound,
//   - Πinit's sufficient-iteration estimate,
//   - the feasibility condition on (n, ts, ta, D),
//   - input generation and report formatting hooks.
//
// Layering: hydra_domain sits between geometry and obs — it may use
// common + geometry only, never obs or protocols. Aggregation returns its
// numerical-fallback count in AggregateResult; the protocols layer notes
// it into the run's observability context.
//
// Instances register in a process-wide registry (mirroring net::Backend's)
// keyed by name; "euclid" is always present and is the protocol's default
// (a null ValueDomain pointer everywhere means Euclidean, byte-identical
// to the pre-domain-layer code paths).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "geometry/safe_area.hpp"
#include "geometry/vec.hpp"

namespace hydra::domain {

/// Aggregation parameters threaded down from protocols::Params (the domain
/// layer sits below protocols and cannot see Params itself).
struct AggregateSpec {
  std::size_t n = 0;
  std::size_t ts = 0;
  std::size_t ta = 0;
  bool centroid = false;  ///< protocols::Aggregation::kCentroid ablation
  geo::SafeAreaOptions safe_opts{};
};

/// Aggregation result: the adopted value plus how many numerical fallbacks
/// the computation needed (the caller notes them into obs — this layer
/// never touches observability).
struct AggregateResult {
  geo::Vec value;
  std::uint32_t fallbacks = 0;
};

class ValueDomain {
 public:
  virtual ~ValueDomain() = default;

  ValueDomain() = default;
  ValueDomain(const ValueDomain&) = delete;
  ValueDomain& operator=(const ValueDomain&) = delete;

  /// Registry key and CLI surface ("euclid", "tree", "path").
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  // -- wire codec -----------------------------------------------------------

  /// Content validation applied after the structural decode (dimension and
  /// finiteness are already enforced by protocols::decode_value). A payload
  /// failing this is treated exactly like a message the Byzantine sender
  /// never sent. Euclid accepts every finite vector; discrete domains
  /// reject non-integral or out-of-range labels.
  [[nodiscard]] virtual bool validate(const geo::Vec& v) const = 0;

  // -- metric ---------------------------------------------------------------

  [[nodiscard]] virtual double distance(const geo::Vec& a,
                                        const geo::Vec& b) const = 0;

  /// Max pairwise distance; 0 for fewer than two points. Euclid overrides
  /// with geo::diameter so the refactor stays bit-identical.
  [[nodiscard]] virtual double diameter(std::span<const geo::Vec> points) const;

  // -- aggregation (the ΠAA-it safe-area rule) ------------------------------

  /// The new-value rule over the val(M) multiset (sorted by party id, so
  /// parties holding equal multisets compute identical results). `values`
  /// has between n - ts and n entries; t = max(|M| - (n - ts), ta) values
  /// are adversarially suspect (Definition 5.1).
  [[nodiscard]] virtual AggregateResult aggregate(
      const AggregateSpec& spec, std::span<const geo::Vec> values) const = 0;

  // -- validity / contraction (monitors + oracles) --------------------------

  /// Membership of `candidate` in the domain's convex closure of `basis`
  /// (linear hull for Euclid, geodesic hull for trees). `tol` absorbs
  /// floating error; discrete domains use it only to accept exactly-
  /// representable labels.
  [[nodiscard]] virtual bool in_validity_set(std::span<const geo::Vec> basis,
                                             const geo::Vec& candidate,
                                             double tol) const = 0;

  /// Expected per-iteration contraction factor of the midpoint rule:
  /// sqrt(7/8) for Euclid (Lemma 5.10), 1/2 for tree midpoints.
  [[nodiscard]] virtual double contraction_factor() const noexcept = 0;

  /// Upper bound on the next complete layer's honest diameter given the
  /// previous one. The default reproduces the Euclidean monitor's formula
  /// (factor * prev plus a relative epsilon); integer-metric domains
  /// override with an exact ceil.
  [[nodiscard]] virtual double contraction_bound(double factor,
                                                 double prev_diameter) const;

  /// Πinit's iteration estimate: smallest T with diam contracted below eps.
  [[nodiscard]] virtual std::uint64_t sufficient_iterations(double eps,
                                                            double diam) const = 0;

  // -- parameters / harness hooks -------------------------------------------

  /// The domain's feasibility condition on the resilience parameters
  /// (Theorem 5.19's (D+1) ts + ta < n for Euclid).
  [[nodiscard]] virtual bool feasible(std::size_t n, std::size_t ts,
                                      std::size_t ta,
                                      std::size_t dim) const noexcept = 0;

  /// The dimension the domain requires, if fixed (trees encode a vertex
  /// label in a 1-D vector); nullopt = any D the feasibility admits.
  [[nodiscard]] virtual std::optional<std::size_t> required_dim() const noexcept;

  /// Smallest meaningful agreement distance: 0 for continuous domains, 1
  /// for integer metrics (1-agreement — adjacent vertices — is the
  /// strongest guarantee a discrete midpoint rule can converge to).
  [[nodiscard]] virtual double min_eps() const noexcept;

  /// Domain-specific input generation; nullopt = the harness's Euclidean
  /// workload generators apply. Deterministic in (n, scale, seed).
  [[nodiscard]] virtual std::optional<std::vector<geo::Vec>> make_inputs(
      std::size_t n, std::size_t dim, double scale, std::uint64_t seed) const;

  /// Report rendering: "(0.25, 1)" coordinate tuple for Euclid, a bare
  /// vertex label like "12" for graph domains.
  [[nodiscard]] virtual std::string format_value(const geo::Vec& v) const;
};

/// The Euclidean R^D instance (always registered, the protocol's default).
[[nodiscard]] const ValueDomain& euclid();

/// Null-tolerant resolution: a null domain pointer means Euclidean.
[[nodiscard]] inline const ValueDomain& resolve(const ValueDomain* ptr) {
  return ptr != nullptr ? *ptr : euclid();
}

// -- registry (mirrors the net::Backend registry's shape) -------------------

/// Looks up a registered domain by name; nullptr when unknown.
[[nodiscard]] const ValueDomain* find(std::string_view name);

/// Names of every registered domain, in registration order (for CLI
/// validation, `hydra list`, and actionable unknown-domain errors).
[[nodiscard]] std::vector<std::string> names();

/// Space-joined registry names, for `hydra list` and the unknown-domain
/// error.
[[nodiscard]] std::string known_names();

}  // namespace hydra::domain
