// Command-line options shared by hydra and perf_gate: `--key value` and
// `--key=value` pairs, and numeric values checked whole. Every error goes to
// the tool's `fail` (print usage, exit 2), so the tools reject a malformed
// option or a non-number the same way.
#pragma once

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace hydra::options {

/// Reports a usage error and exits; must not return.
using Fail = void (*)(const std::string& error);

/// The `--key value` / `--key=value` pairs of argv[first, argc), in argv
/// order, so applying them in turn lets a repeated key's last value win.
inline std::vector<std::pair<std::string, std::string>> parse_kv(int argc, char** argv,
                                                                 int first, Fail fail) {
  std::vector<std::pair<std::string, std::string>> kv;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) fail("malformed options");
    key = key.substr(2);
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      fail("--" + key + " needs a value");
    }
    kv.emplace_back(std::move(key), std::move(value));
  }
  return kv;
}

/// A numeric option's value: a usage error naming the key unless the whole
/// value parses as a finite number that fits T.
template <typename T>
T number(const std::string& key, const std::string& value, Fail fail) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (value.empty() || *end != '\0' || !std::isfinite(v)) {
    fail("--" + key + " needs a number, got \"" + value + "\"");
  }
  if constexpr (std::is_integral_v<T>) {
    if (v < static_cast<double>(std::numeric_limits<T>::min()) ||
        v >= std::ldexp(1.0, std::numeric_limits<T>::digits)) {
      fail("--" + key + " is out of range: " + value);
    }
  }
  return static_cast<T>(v);
}

}  // namespace hydra::options
