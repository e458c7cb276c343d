// The process-wide domain registry. Mirrors the net::Backend registry's
// contract: lookup by name, enumerable for `hydra list`, and a joined name
// list for actionable unknown-domain errors. Registration order is the
// display order; "euclid" is always first.

#include <array>
#include <string>
#include <vector>

#include "common/names.hpp"
#include "domain/domain.hpp"
#include "domain/tree.hpp"

namespace hydra::domain {
namespace {

struct Registry {
  // "tree" is a 63-vertex complete binary tree (depth 5, diameter 10);
  // "path" is a 64-vertex line, where tree AA degenerates to integer
  // 1-D AA — the bridge case against the Euclidean dim=1 runs.
  TreeDomain tree{"tree", binary_tree_parents(63)};
  TreeDomain path{"path", path_parents(64)};
  std::array<const ValueDomain*, 3> entries{&euclid(), &tree, &path};
};

const Registry& registry() {
  static const Registry instance;
  return instance;
}

}  // namespace

const ValueDomain* find(std::string_view name) {
  for (const auto* d : registry().entries) {
    if (d->name() == name) return d;
  }
  return nullptr;
}

std::vector<std::string> names() {
  std::vector<std::string> out;
  for (const auto* d : registry().entries) out.emplace_back(d->name());
  return out;
}

std::string known_names() { return joined(names()); }

}  // namespace hydra::domain
