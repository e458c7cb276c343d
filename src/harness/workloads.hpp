// Input-vector generators for the experiment grid.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/names.hpp"
#include "common/rng.hpp"
#include "geometry/vec.hpp"

namespace hydra::harness {

enum class Workload {
  kUniformBall,     ///< uniform in a ball of the given radius
  kSimplexCorners,  ///< party i gets scale * e_(i mod D+1) (Figure 1 geometry)
  kClustered,       ///< two tight clusters at distance `scale`
  kCollinear,       ///< all on one line (degenerate hulls)
  kGaussian,        ///< isotropic normal with sigma = scale
};

inline constexpr NameRow<Workload> kWorkloadNames[] = {
    {Workload::kUniformBall, "ball"},
    {Workload::kSimplexCorners, "simplex"},
    {Workload::kClustered, "clustered"},
    {Workload::kCollinear, "collinear"},
    {Workload::kGaussian, "gaussian"},
};

[[nodiscard]] std::string to_string(Workload workload);

/// Inverse of to_string; nullopt on unknown names.
[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);

/// Generates n inputs in R^dim. Deterministic in (workload, n, dim, scale,
/// seed).
[[nodiscard]] std::vector<geo::Vec> make_inputs(Workload workload, std::size_t n,
                                                std::size_t dim, double scale,
                                                std::uint64_t seed);

}  // namespace hydra::harness
