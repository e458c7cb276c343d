// Πinit (Section 5): estimates a sufficient iteration count T and a starting
// value v0 inside the honest inputs' convex hull.
//
// Structure (witness technique of [1] extended with double-witnesses):
//   1. reliably broadcast the input value;
//   2. after c_rBC * Delta and |M| >= n - ts, reliably broadcast the report M;
//   3. a reporter P' whose report is a subset of our own M becomes a witness;
//      its estimation v_P' is computed from safe_max(ta, k_P')(M_P') with the
//      ΠAA-it midpoint rule (deterministic: all parties derive the same
//      v_P' from the same reliably-broadcast report);
//   4. after 2 c_rBC * Delta and |W| >= n - ts, send the witness set W to all;
//   5. a party P' whose witness set is a subset of our own W becomes a
//      double-witness; n - ts double-witnesses guarantee n - ts common
//      estimations with every honest party (Lemma 6.18);
//   6. after (2 c_rBC + c'_rBC) * Delta and |W2| >= n - ts, output
//      v0 = midpoint rule over safe_max(ta, k)(I_e) and
//      T  = ceil(log_sqrt(7/8)(eps / delta_max(I_e))), clamped to >= 1.
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

class InitInstance {
 public:
  struct Output {
    std::uint64_t iterations = 0;  ///< T
    geo::Vec v0;
  };
  using OutputFn = std::function<void(Env&, const Output&)>;

  InitInstance(const Params& params, RbcMux* mux) : params_(params), mux_(mux) {}

  /// Joins Πinit with input `v`.
  void start(Env& env, const geo::Vec& input);

  /// Value reliably delivered from `sender` (tag kRbcInitValue).
  void on_rbc_value(Env& env, PartyId sender, const Bytes& payload);

  /// Report reliably delivered from `sender` (tag kRbcInitReport).
  void on_rbc_report(Env& env, PartyId sender, const Bytes& payload);

  /// Witness set received directly from `from` (tag kInitWitnessSet).
  void on_witness_set(Env& env, PartyId from, const Bytes& payload);

  /// Guard re-evaluation; see ObcInstance::step for the `at_timer`
  /// boundary semantics.
  void step(Env& env, bool at_timer = false);

  [[nodiscard]] bool has_output() const noexcept { return output_.has_value(); }
  [[nodiscard]] const Output& output() const { return *output_; }

  /// Observers for tests.
  [[nodiscard]] std::size_t witnesses() const noexcept { return w_.size(); }
  [[nodiscard]] std::size_t double_witnesses() const noexcept { return w2_.size(); }
  [[nodiscard]] const PairList& estimations() const noexcept { return ie_; }

  OutputFn on_output;

 private:
  Params params_;
  RbcMux* mux_;

  bool started_ = false;
  Time tau_start_ = 0;
  bool sent_report_ = false;
  bool sent_witness_set_ = false;

  std::map<PartyId, geo::Vec> m_;                  // M
  std::map<PartyId, PairList> pending_reports_;    // reliably delivered, unverified
  PairList ie_;                                    // I_e, sorted by party id
  PartySet w_;                                     // W (witnesses)
  std::map<PartyId, PartySet> pending_witness_sets_;
  PartySet w2_;                                    // W2 (double-witnesses)
  std::optional<Output> output_;
};

/// T = ceil(log_sqrt(7/8)(eps / diam)) clamped to >= 1; 1 when diam <= eps
/// (already agreed) or diam == 0.
[[nodiscard]] std::uint64_t sufficient_iterations(double eps, double diam);

}  // namespace hydra::protocols
