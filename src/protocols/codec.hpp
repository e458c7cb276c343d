// Serialization of protocol payloads, with defensive decoding.
//
// Every decoder validates structure AND content: dimension mismatches,
// non-finite coordinates, out-of-range party ids and duplicate entries are
// rejected (returning nullopt), because payload bytes may come from
// Byzantine parties. A rejected payload is treated exactly like a message
// the Byzantine party never sent.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "common/party_set.hpp"
#include "common/serialize.hpp"
#include "common/types.hpp"
#include "domain/domain.hpp"
#include "geometry/vec.hpp"

namespace hydra::protocols {

/// A set of value-party pairs M (Section 2.1), kept sorted by party id so
/// identical sets serialize identically and geometric computations on them
/// are bit-for-bit deterministic across parties.
using PairList = std::vector<std::pair<PartyId, geo::Vec>>;

[[nodiscard]] Bytes encode_value(const geo::Vec& v);

/// Rejects wrong dimension and non-finite coordinates; a non-null `dom`
/// additionally rejects vectors outside the domain's value set (e.g.
/// non-integral or out-of-range tree labels).
[[nodiscard]] std::optional<geo::Vec> decode_value(
    const Bytes& data, std::size_t dim,
    const hydra::domain::ValueDomain* dom = nullptr);

[[nodiscard]] Bytes encode_pairs(const PairList& pairs);

/// Rejects malformed bytes, party ids >= n, duplicate parties, and invalid
/// values (domain content validation as in decode_value). Output is sorted
/// by party id.
[[nodiscard]] std::optional<PairList> decode_pairs(
    const Bytes& data, std::size_t dim, std::size_t n,
    const hydra::domain::ValueDomain* dom = nullptr);

/// A count followed by the ids in ascending order.
[[nodiscard]] Bytes encode_party_set(const PartySet& parties);

/// Rejects malformed bytes, party ids >= n and duplicate ids.
[[nodiscard]] std::optional<PartySet> decode_party_set(const Bytes& data, std::size_t n);

/// val(M) in party-id order.
[[nodiscard]] std::vector<geo::Vec> values_of(const PairList& pairs);

}  // namespace hydra::protocols
