#include "protocols/codec.hpp"

#include <algorithm>
#include <cmath>

namespace hydra::protocols {
namespace {

bool finite_vec(const geo::Vec& v) {
  for (std::size_t d = 0; d < v.dim(); ++d) {
    if (!std::isfinite(v[d])) return false;
  }
  return true;
}

/// Reads one length-prefixed coordinate vector straight into a Vec (no
/// intermediate buffer); nullopt unless it holds exactly `dim` coordinates.
std::optional<geo::Vec> read_vec(Reader& r, std::size_t dim) {
  const std::uint32_t len = r.u32();
  if (!r.ok() || len != dim) return std::nullopt;
  geo::Vec v(dim);
  for (std::size_t d = 0; d < dim; ++d) v[d] = r.f64();
  if (!r.ok()) return std::nullopt;
  return v;
}

}  // namespace

Bytes encode_value(const geo::Vec& v) {
  Writer w;
  w.f64_vec(v.coords());
  return w.take();
}

std::optional<geo::Vec> decode_value(const Bytes& data, std::size_t dim,
                                     const hydra::domain::ValueDomain* dom) {
  Reader r(data);
  auto v = read_vec(r, dim);
  if (!v || !r.at_end()) return std::nullopt;
  if (!finite_vec(*v)) return std::nullopt;
  if (dom != nullptr && !dom->validate(*v)) return std::nullopt;
  return v;
}

Bytes encode_pairs(const PairList& pairs) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(pairs.size()));
  for (const auto& [party, value] : pairs) {
    w.u32(party);
    w.f64_vec(value.coords());
  }
  return w.take();
}

std::optional<PairList> decode_pairs(const Bytes& data, std::size_t dim,
                                     std::size_t n,
                                     const hydra::domain::ValueDomain* dom) {
  Reader r(data);
  const std::uint32_t count = r.u32();
  if (!r.ok() || count > n) return std::nullopt;
  PairList pairs;
  pairs.reserve(count);
  PartySet seen;
  for (std::uint32_t i = 0; i < count; ++i) {
    const PartyId party = r.u32();
    auto v = read_vec(r, dim);
    if (!v || party >= n) return std::nullopt;
    if (!finite_vec(*v)) return std::nullopt;
    if (dom != nullptr && !dom->validate(*v)) return std::nullopt;
    if (!seen.insert(party)) return std::nullopt;
    pairs.emplace_back(party, std::move(*v));
  }
  if (!r.at_end()) return std::nullopt;
  std::sort(pairs.begin(), pairs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return pairs;
}

Bytes encode_party_set(const PartySet& parties) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(parties.size()));
  for (PartyId p : parties) w.u32(p);
  return w.take();
}

std::optional<PartySet> decode_party_set(const Bytes& data, std::size_t n) {
  Reader r(data);
  const std::uint32_t count = r.u32();
  if (!r.ok() || count > n) return std::nullopt;
  PartySet out;
  for (std::uint32_t i = 0; i < count; ++i) {
    const PartyId p = r.u32();
    if (!r.ok() || p >= n) return std::nullopt;
    if (!out.insert(p)) return std::nullopt;
  }
  if (!r.at_end()) return std::nullopt;
  return out;
}

std::vector<geo::Vec> values_of(const PairList& pairs) {
  std::vector<geo::Vec> values;
  values.reserve(pairs.size());
  for (const auto& [party, value] : pairs) values.push_back(value);
  return values;
}

}  // namespace hydra::protocols
