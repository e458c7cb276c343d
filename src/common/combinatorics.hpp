// Subset enumeration used by the safe-area computation (Definition 5.1):
// restrict_t(M) ranges over all subsets of M of size |M| - t, i.e. over all
// ways of *removing* t elements. We enumerate the removed index sets in
// lexicographic order so results are deterministic.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace hydra {

/// Number of k-element subsets of an n-element set, saturating at
/// uint64 max (callers treat huge counts as "too many to enumerate").
[[nodiscard]] inline std::uint64_t binomial(std::uint64_t n, std::uint64_t k) noexcept {
  if (k > n) return 0;
  if (k > n - k) k = n - k;
  std::uint64_t result = 1;
  for (std::uint64_t i = 1; i <= k; ++i) {
    const std::uint64_t q = result / i;
    const std::uint64_t r = result % i;
    const std::uint64_t term = n - k + i;
    // result = result * term / i, computed without overflow when possible.
    if (q > UINT64_MAX / term) return UINT64_MAX;
    result = q * term + r * term / i;
  }
  return result;
}

/// Invokes `fn` with each k-element index subset of {0, .., n-1}, in
/// lexicographic order. `fn` receives the subset as a const
/// std::vector<std::size_t>& that is only valid during the call; the one
/// index buffer is reused across all C(n, k) subsets.
template <typename Fn>
void for_each_combination(std::size_t n, std::size_t k, Fn&& fn) {
  HYDRA_ASSERT(k <= n);
  std::vector<std::size_t> idx(k);
  for (std::size_t i = 0; i < k; ++i) idx[i] = i;
  if (k == 0) {
    fn(std::as_const(idx));
    return;
  }
  while (true) {
    fn(std::as_const(idx));
    // Advance to next combination.
    std::size_t i = k;
    while (i > 0) {
      --i;
      if (idx[i] != i + n - k) {
        ++idx[i];
        for (std::size_t j = i + 1; j < k; ++j) idx[j] = idx[j - 1] + 1;
        i = k + 1;  // flag: advanced
        break;
      }
    }
    if (i != k + 1) break;  // no position could advance: done
  }
}

/// Complement of `removed` within {0,..,n-1} into `kept` (cleared first, so
/// one buffer serves every subset of an enumeration); both sorted ascending.
inline void complement_indices(std::size_t n, const std::vector<std::size_t>& removed,
                               std::vector<std::size_t>& kept) {
  kept.clear();
  std::size_t r = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (r < removed.size() && removed[r] == i) {
      ++r;
    } else {
      kept.push_back(i);
    }
  }
}

/// Complement of `removed` within {0,..,n-1}; both sorted ascending.
[[nodiscard]] inline std::vector<std::size_t> complement_indices(
    std::size_t n, const std::vector<std::size_t>& removed) {
  std::vector<std::size_t> kept;
  kept.reserve(n - removed.size());
  complement_indices(n, removed, kept);
  return kept;
}

}  // namespace hydra
