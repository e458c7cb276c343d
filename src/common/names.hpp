// One name table per enum. to_string, the parse_* inverse, `hydra list` and
// the "unknown <kind>" error all read the same rows, so each accepted name is
// written exactly once.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hydra {

template <typename E>
struct NameRow {
  E value;
  const char* name;
};

/// The name of `value`; "?" when the table has no row for it.
template <typename E, std::size_t N>
[[nodiscard]] constexpr const char* name_of(const NameRow<E> (&table)[N],
                                            E value) noexcept {
  for (const auto& row : table) {
    if (row.value == value) return row.name;
  }
  return "?";
}

/// Inverse of name_of; nullopt on unknown names.
template <typename E, std::size_t N>
[[nodiscard]] constexpr std::optional<E> value_of(const NameRow<E> (&table)[N],
                                                  std::string_view name) noexcept {
  for (const auto& row : table) {
    if (name == row.name) return row.value;
  }
  return std::nullopt;
}

/// Every name in table order, space-separated.
template <typename E, std::size_t N>
[[nodiscard]] std::string names_of(const NameRow<E> (&table)[N]) {
  std::string out;
  for (const auto& row : table) {
    if (!out.empty()) out += ' ';
    out += row.name;
  }
  return out;
}

/// Registry names (backends, domains) space-separated, like names_of.
[[nodiscard]] inline std::string joined(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& name : names) {
    if (!out.empty()) out += ' ';
    out += name;
  }
  return out;
}

/// The one rejection text for a name outside a table or registry:
/// `unknown <kind> "<value>"; registered <kind>s: <names>`.
[[nodiscard]] inline std::string unknown_name(std::string_view kind,
                                              std::string_view value,
                                              std::string_view names) {
  std::string out = "unknown ";
  out += kind;
  out += " \"";
  out += value;
  out += "\"; registered ";
  out += kind;
  out += "s: ";
  out += names;
  return out;
}

}  // namespace hydra
