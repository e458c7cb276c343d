// Which protocol runs in the honest slots. The harness builds the parties
// from it; the report reads the name back from a metrics document to pick
// the matching paper bound.
#pragma once

#include <string>

#include "common/names.hpp"

namespace hydra {

enum class Protocol {
  kHybrid,        ///< the paper's ΠAA
  kSyncLockstep,  ///< Vaidya-Garg-style baseline (t = ts)
  kAsyncMh,       ///< Mendes-Herlihy-style baseline (t = ts = ta)
};

inline constexpr NameRow<Protocol> kProtocolNames[] = {
    {Protocol::kHybrid, "hybrid"},
    {Protocol::kSyncLockstep, "sync-lockstep"},
    {Protocol::kAsyncMh, "async-mh"},
};

[[nodiscard]] inline std::string to_string(Protocol protocol) {
  return name_of(kProtocolNames, protocol);
}

}  // namespace hydra
