// Overlap All-to-All Broadcast (ΠoBC, Section 4.2).
//
// Every party distributes its value via ΠrBC, reports the set of
// value-party pairs it collected once |M| >= n - ts and c_rBC * Delta local
// time has passed, marks reporters whose reported values it has itself
// received as witnesses, and outputs its set M once it has n - ts witnesses
// and (c_rBC + c'_rBC) * Delta local time has passed.
//
// Guarantees (Theorem 4.4): Validity, Consistency, (ts, ta)-Overlap
// (any two honest outputs share >= n - ts pairs), Synchronized Overlap and
// c_oBC = 5 round liveness under synchrony, eventual liveness under
// asynchrony.
//
// The instance is event-driven and guard-based: handlers update state and
// then step() re-evaluates the protocol's "When ..." conditions. An
// instance can be constructed passively (messages of parties that are
// already in this iteration arrive before we join) and is activated by
// start().
#pragma once

#include <functional>
#include <map>
#include <optional>

#include "common/party_set.hpp"
#include "geometry/vec.hpp"
#include "protocols/codec.hpp"
#include "protocols/params.hpp"
#include "protocols/rbc.hpp"

namespace hydra::protocols {

class ObcInstance {
 public:
  using OutputFn = std::function<void(Env&, const PairList&)>;

  /// `iteration` is the key coordinate b used by this instance's messages;
  /// `mux` must outlive the instance.
  ObcInstance(const Params& params, std::uint32_t iteration, RbcMux* mux)
      : params_(params), iteration_(iteration), mux_(mux) {}

  /// Joins the protocol with input `v`: reliably broadcasts it and arms the
  /// two timing guards. Idempotent (second call asserts).
  void start(Env& env, const geo::Vec& input);

  /// A value reliably delivered from `sender` (tag kRbcObcValue, b matching).
  void on_rbc_value(Env& env, PartyId sender, const Bytes& payload);

  /// A direct report message (tag kObcReport, b matching).
  void on_report(Env& env, PartyId from, const Bytes& payload);

  /// Re-evaluates all guards; call after any event or timer that may have
  /// unblocked one. `at_timer` selects the boundary semantics of the time
  /// guards: a guard "when tau_now >= tau_start + c * Delta" is inclusive
  /// when evaluated from a timer (all messages of that tick have been
  /// processed — the simulator orders messages before timers) and strict
  /// when evaluated from a message handler (same-tick messages may still be
  /// in flight). This realizes the paper's synchronous semantics, where a
  /// guard at time tau observes every message delivered "within" tau.
  void step(Env& env, bool at_timer = false);

  [[nodiscard]] bool started() const noexcept { return started_; }
  [[nodiscard]] bool has_output() const noexcept { return output_.has_value(); }
  [[nodiscard]] const PairList& output() const { return *output_; }

  /// Observers for tests.
  [[nodiscard]] std::size_t collected() const noexcept { return m_.size(); }
  [[nodiscard]] std::size_t witnesses() const noexcept { return witnesses_.size(); }

  /// Invoked exactly once, when the output guard first passes.
  OutputFn on_output;

 private:
  [[nodiscard]] PairList snapshot() const;

  Params params_;
  std::uint32_t iteration_;
  RbcMux* mux_;

  bool started_ = false;
  Time tau_start_ = 0;
  bool sent_report_ = false;

  std::map<PartyId, geo::Vec> m_;                 // M: collected value-party pairs
  std::map<PartyId, PairList> pending_reports_;   // first report per sender
  PartySet witnesses_;                            // W
  std::optional<PairList> output_;
};

}  // namespace hydra::protocols
