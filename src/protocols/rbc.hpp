// Bracha's Reliable Broadcast (ΠrBC, Theorem 4.2 / Appendix 6.1).
//
// Guarantees with n > 3t:
//   t-Validity      honest output equals an honest sender's input;
//   t-Consistency   no two honest parties output different values;
//   Honest Liveness sender honest => everyone outputs within c_rBC = 3 rounds
//                   under synchrony;
//   Conditional Liveness  one honest output => all honest outputs within
//                   c'_rBC = 2 further rounds under synchrony.
//
// The payload is an opaque byte vector; upper layers serialize their own
// content. One RbcInstance is the per-party state machine of a single
// broadcast (identified by an InstanceKey whose `a` coordinate names the
// designated sender); RbcMux owns all instances of a party and routes wire
// messages to them, creating instances on demand so parties implicitly join
// broadcasts they first hear about from others.
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "common/party_set.hpp"
#include "common/serialize.hpp"
#include "common/types.hpp"
#include "protocols/keys.hpp"
#include "protocols/params.hpp"
#include "sim/env.hpp"

namespace hydra::protocols {

// Protocol code uses the sim abstractions directly; these aliases keep
// signatures short and make the dependency explicit.
using sim::Env;
using sim::Message;

class RbcInstance {
 public:
  RbcInstance(const Params& params, InstanceKey key)
      : params_(params), key_(key) {}

  /// Sender-side entry point: disseminates `payload` (Bracha's initial send).
  void broadcast(Env& env, Bytes payload);

  /// Feeds a wire message (kinds kRbcSend/kRbcEcho/kRbcReady) belonging to
  /// this instance. Returns true if this event made the instance deliver.
  bool on_message(Env& env, PartyId from, const Message& msg);

  [[nodiscard]] bool delivered() const noexcept { return delivered_; }
  [[nodiscard]] const Bytes& output() const noexcept { return output_; }
  [[nodiscard]] const InstanceKey& key() const noexcept { return key_; }

 private:
  void send_echo(Env& env, const Bytes& payload);
  void send_ready(Env& env, const Bytes& payload);

  Params params_;
  InstanceKey key_;

  bool sent_echo_ = false;
  bool sent_ready_ = false;
  bool delivered_ = false;
  Bytes output_;

  /// Votes for one payload. Honest runs see a single payload per instance,
  /// so the tallies are scanned linearly.
  struct Tally {
    Bytes payload;
    std::size_t votes = 0;
  };
  /// Records a vote for `payload`; returns its new vote count.
  static std::size_t vote(std::vector<Tally>& tallies, const Bytes& payload);

  // One vote per sender: the first echo/ready a party sends is the one that
  // counts; later equivocations are ignored, so a per-payload count suffices.
  PartySet echo_voters_;
  PartySet ready_voters_;
  std::vector<Tally> echoes_;
  std::vector<Tally> readies_;
};

/// Routes every RBC wire message of one party to the right instance.
class RbcMux {
 public:
  using DeliverFn = std::function<void(sim::Env&, const InstanceKey&, const Bytes&)>;

  RbcMux(const Params& params, DeliverFn on_deliver)
      : params_(params), on_deliver_(std::move(on_deliver)) {}

  /// Starts a broadcast with this party as designated sender; asserts that
  /// key.a names this party.
  void broadcast(sim::Env& env, InstanceKey key, Bytes payload);

  /// Consumes a message if it belongs to the RBC layer (kind <= kRbcReady).
  /// Returns true when consumed.
  bool handle(sim::Env& env, PartyId from, const sim::Message& msg);

  /// Instance lookup for tests; nullptr when the instance does not exist.
  [[nodiscard]] const RbcInstance* find(const InstanceKey& key) const;

 private:
  RbcInstance& instance(const InstanceKey& key);

  Params params_;
  DeliverFn on_deliver_;
  std::unordered_map<InstanceKey, RbcInstance, InstanceKeyHash> instances_;
};

}  // namespace hydra::protocols
