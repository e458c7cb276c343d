// Tests for Bracha reliable broadcast (ΠrBC): validity, consistency, the
// timing constants of Theorem 4.2, resistance to equivocating senders and
// forged quorums, and the per-instance vote tallies.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "protocol_test_util.hpp"

namespace hydra::test {
namespace {

using protocols::kRbcEcho;
using protocols::kRbcInitValue;
using protocols::kRbcReady;
using protocols::kRbcSend;

Params make_params(std::size_t n, std::size_t ts) {
  Params p;
  p.n = n;
  p.ts = ts;
  p.ta = 0;
  p.dim = 2;
  p.delta = 1000;
  return p;
}

Bytes payload_of(std::uint8_t fill, std::size_t len = 8) { return Bytes(len, fill); }

struct RbcFixture {
  explicit RbcFixture(Params params, std::uint64_t seed = 1,
                      std::unique_ptr<sim::DelayModel> model = nullptr)
      : sim(sim::SimConfig{.n = params.n, .delta = params.delta, .seed = seed},
            model ? std::move(model)
                  : std::make_unique<sim::FixedDelay>(params.delta)) {}

  /// Adds an honest RBC party; returns its pointer.
  RbcTestParty* add_honest(const Params& params) {
    auto party = std::make_unique<RbcTestParty>(params);
    auto* raw = party.get();
    parties.push_back(raw);
    sim.add_party(std::move(party));
    return raw;
  }

  sim::Simulation sim;
  std::vector<RbcTestParty*> parties;
};

TEST(Rbc, HonestSenderAllDeliverWithin3Delta) {
  const auto params = make_params(4, 1);
  RbcFixture f(params);
  for (std::size_t i = 0; i < 4; ++i) f.add_honest(params);
  f.parties[0]->broadcast_payload = payload_of(0x11);
  f.sim.run();
  for (auto* p : f.parties) {
    ASSERT_EQ(p->deliveries.size(), 1u);
    EXPECT_EQ(p->deliveries[0].payload, payload_of(0x11));
    EXPECT_EQ(p->deliveries[0].key.a, 0u);
    // Theorem 4.2: c_rBC = 3 rounds under synchrony.
    EXPECT_LE(p->deliveries[0].at, 3 * params.delta);
  }
}

TEST(Rbc, SenderDeliversItsOwnBroadcast) {
  const auto params = make_params(4, 1);
  RbcFixture f(params);
  for (std::size_t i = 0; i < 4; ++i) f.add_honest(params);
  f.parties[2]->broadcast_payload = payload_of(0x22);
  f.sim.run();
  ASSERT_EQ(f.parties[2]->deliveries.size(), 1u);
  EXPECT_EQ(f.parties[2]->deliveries[0].key.a, 2u);
}

TEST(Rbc, ConcurrentBroadcastsAllDeliver) {
  const auto params = make_params(7, 2);
  RbcFixture f(params);
  for (std::size_t i = 0; i < 7; ++i) {
    f.add_honest(params)->broadcast_payload = payload_of(static_cast<std::uint8_t>(i));
  }
  f.sim.run();
  for (auto* p : f.parties) {
    ASSERT_EQ(p->deliveries.size(), 7u);
    std::set<std::uint32_t> senders;
    for (const auto& d : p->deliveries) senders.insert(d.key.a);
    EXPECT_EQ(senders.size(), 7u);
  }
}

TEST(Rbc, SilentSenderNobodyDelivers) {
  const auto params = make_params(4, 1);
  RbcFixture f(params);
  for (std::size_t i = 0; i < 4; ++i) f.add_honest(params);
  // Nobody broadcasts.
  f.sim.run();
  for (auto* p : f.parties) EXPECT_TRUE(p->deliveries.empty());
}

TEST(Rbc, EquivocatingSenderNeverSplitsHonestOutputs) {
  // A Byzantine sender emits a different SEND to every receiver across many
  // seeds; consistency demands that all honest deliveries (if any) agree.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto params = make_params(4, 1);
    RbcFixture f(params, seed, std::make_unique<sim::UniformDelay>(1, params.delta));
    auto equivocator = std::make_unique<adversary::EquivocatorParty>(
        params, geo::Vec{0.0, 0.0}, 1.0, 1);
    f.sim.add_party(std::move(equivocator));  // party 0 = attacker
    for (std::size_t i = 1; i < 4; ++i) f.add_honest(params);
    f.sim.run();

    std::optional<Bytes> agreed;
    for (auto* p : f.parties) {
      for (const auto& d : p->deliveries) {
        if (d.key.a != 0) continue;
        if (!agreed) {
          agreed = d.payload;
        } else {
          EXPECT_EQ(*agreed, d.payload) << "seed " << seed;
        }
      }
    }
  }
}

TEST(Rbc, ForgedQuorumCannotDeliver) {
  // One Byzantine party sends ECHO and READY for a value nobody broadcast;
  // with n = 4, t = 1 the quorums (3 echoes / 3 readies) are unreachable.
  const auto params = make_params(4, 1);

  class QuorumForger : public sim::IParty {
   public:
    void start(sim::Env& env) override {
      const InstanceKey key{kRbcInitValue, 0, 0};  // pretends party 0 broadcast
      env.broadcast(sim::Message{key, kRbcEcho, payload_of(0x66)});
      env.broadcast(sim::Message{key, kRbcReady, payload_of(0x66)});
    }
    void on_message(sim::Env&, PartyId, const sim::Message&) override {}
    void on_timer(sim::Env&, std::uint64_t) override {}

   private:
    static Bytes payload_of(std::uint8_t fill) { return Bytes(8, fill); }
  };

  RbcFixture f(params);
  for (std::size_t i = 0; i < 3; ++i) f.add_honest(params);
  f.sim.add_party(std::make_unique<QuorumForger>());
  f.sim.run();
  for (auto* p : f.parties) EXPECT_TRUE(p->deliveries.empty());
}

TEST(Rbc, ReadyAmplificationDeliversToLateParties) {
  // Conditional liveness: t+1 readies make an honest party send ready even
  // if it missed the echoes. Model: sender + echoes delayed away from party
  // 3 by an async partition, delivery still happens eventually.
  const auto params = make_params(4, 1);
  auto base = std::make_unique<sim::FixedDelay>(params.delta);
  auto model = std::make_unique<adversary::PartitionScheduler>(
      std::move(base), std::set<PartyId>{3}, 0, 50 * params.delta);
  RbcFixture f(params, 1, std::move(model));
  for (std::size_t i = 0; i < 4; ++i) f.add_honest(params);
  f.parties[0]->broadcast_payload = payload_of(0x33);
  f.sim.run();
  for (auto* p : f.parties) {
    ASSERT_EQ(p->deliveries.size(), 1u);
    EXPECT_EQ(p->deliveries[0].payload, payload_of(0x33));
  }
}

TEST(Rbc, AsynchronousDeliveryEventuallyCompletes) {
  const auto params = make_params(7, 2);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    RbcFixture f(params, seed,
                 std::make_unique<sim::ExponentialDelay>(5.0 * params.delta,
                                                         100 * params.delta));
    for (std::size_t i = 0; i < 7; ++i) f.add_honest(params);
    f.parties[0]->broadcast_payload = payload_of(0x44);
    const auto stats = f.sim.run();
    EXPECT_FALSE(stats.hit_limit);
    for (auto* p : f.parties) {
      ASSERT_EQ(p->deliveries.size(), 1u) << "seed " << seed;
      EXPECT_EQ(p->deliveries[0].payload, payload_of(0x44));
    }
  }
}

TEST(Rbc, DistinctInstancesDoNotInterfere) {
  // Same sender, two instance keys: payloads must not cross.
  const auto params = make_params(4, 1);

  class DualSender : public sim::IParty {
   public:
    explicit DualSender(const Params& params)
        : mux_(params, [this](sim::Env& env, const InstanceKey& key, const Bytes& b) {
            deliveries.push_back({env.now(), key, b});
          }) {}

    void start(sim::Env& env) override {
      mux_.broadcast(env, InstanceKey{protocols::kRbcObcValue, env.self(), 1},
                     Bytes(4, 0xA1));
      mux_.broadcast(env, InstanceKey{protocols::kRbcObcValue, env.self(), 2},
                     Bytes(4, 0xB2));
    }

    void on_message(sim::Env& env, PartyId from, const sim::Message& msg) override {
      if (msg.kind <= protocols::kRbcReady) mux_.handle(env, from, msg);
    }

    void on_timer(sim::Env&, std::uint64_t) override {}

    std::vector<RbcTestParty::Delivery> deliveries;

   private:
    protocols::RbcMux mux_;
  };

  sim::Simulation sim(sim::SimConfig{.n = 4, .delta = params.delta, .seed = 1},
                      std::make_unique<sim::FixedDelay>(params.delta));
  std::vector<DualSender*> parties;
  for (int i = 0; i < 4; ++i) {
    auto p = std::make_unique<DualSender>(params);
    parties.push_back(p.get());
    sim.add_party(std::move(p));
  }
  sim.run();
  for (auto* p : parties) {
    // 4 senders x 2 instances.
    ASSERT_EQ(p->deliveries.size(), 8u);
    for (const auto& d : p->deliveries) {
      EXPECT_EQ(d.payload, Bytes(4, d.key.b == 1 ? 0xA1 : 0xB2));
    }
  }
}

/// An Env that only records what an RbcInstance broadcasts.
class RecordingEnv : public sim::Env {
 public:
  explicit RecordingEnv(std::size_t n) : n_(n) {}
  void send(PartyId, sim::Message msg) override { sent.push_back(std::move(msg)); }
  void broadcast(const sim::Message& msg) override { sent.push_back(msg); }
  void set_timer(Time, std::uint64_t) override {}
  [[nodiscard]] Time now() const override { return 0; }
  [[nodiscard]] PartyId self() const override { return 0; }
  [[nodiscard]] std::size_t n() const override { return n_; }

  [[nodiscard]] std::size_t count(std::uint8_t kind) const {
    std::size_t c = 0;
    for (const auto& m : sent) c += m.kind == kind ? 1 : 0;
    return c;
  }

  std::vector<sim::Message> sent;

 private:
  std::size_t n_;
};

TEST(Rbc, VotersSecondDifferentEchoIsIgnored) {
  // n = 4, t = 1: a ready needs n - t = 3 echoes for one payload.
  const auto params = make_params(4, 1);
  const InstanceKey key{kRbcInitValue, 0, 0};
  protocols::RbcInstance inst(params, key);
  RecordingEnv env(4);
  const auto echo = [&](PartyId from, std::uint8_t fill) {
    inst.on_message(env, from, sim::Message{key, kRbcEcho, payload_of(fill)});
  };
  echo(1, 0xA);
  echo(1, 0xB);  // party 1 already voted for 0xA: ignored
  echo(2, 0xB);
  echo(3, 0xB);
  EXPECT_EQ(env.count(kRbcReady), 0u);  // 0xB has 2 binding votes, not 3
  echo(0, 0xB);
  ASSERT_EQ(env.count(kRbcReady), 1u);
  EXPECT_EQ(env.sent.back().payload, payload_of(0xB));
}

TEST(Rbc, EchoQuorumSplitAcrossPayloadsSendsNoReady) {
  // n = 7, t = 2: six echoes (>= n - t = 5) split 3/3 over two payloads.
  const auto params = make_params(7, 2);
  const InstanceKey key{kRbcInitValue, 0, 0};
  protocols::RbcInstance inst(params, key);
  RecordingEnv env(7);
  for (PartyId from = 0; from < 6; ++from) {
    inst.on_message(env, from,
                    sim::Message{key, kRbcEcho, payload_of(from % 2 == 0 ? 0xA : 0xB)});
  }
  EXPECT_EQ(env.count(kRbcReady), 0u);
  EXPECT_FALSE(inst.delivered());
  // The same split over readies: t + 1 = 3 readies for 0xA amplify, but no
  // payload reaches the n - t = 5 needed to deliver.
  for (PartyId from = 0; from < 6; ++from) {
    inst.on_message(env, from,
                    sim::Message{key, kRbcReady, payload_of(from % 2 == 0 ? 0xA : 0xB)});
  }
  ASSERT_EQ(env.count(kRbcReady), 1u);
  EXPECT_EQ(env.sent.back().payload, payload_of(0xA));
  EXPECT_FALSE(inst.delivered());
}

TEST(Rbc, SeventyPartiesAllDeliver) {
  // n = 70 puts voter ids 64..69 (and the sender) past the first 64-bit word
  // of every tally.
  const auto params = make_params(70, 23);
  RbcFixture f(params, 1, std::make_unique<sim::UniformDelay>(1, params.delta));
  for (std::size_t i = 0; i < 70; ++i) f.add_honest(params);
  f.parties[66]->broadcast_payload = payload_of(0x70);
  const auto stats = f.sim.run();
  EXPECT_FALSE(stats.hit_limit);
  for (auto* p : f.parties) {
    ASSERT_EQ(p->deliveries.size(), 1u);
    EXPECT_EQ(p->deliveries[0].key.a, 66u);
    EXPECT_EQ(p->deliveries[0].payload, payload_of(0x70));
    EXPECT_LE(p->deliveries[0].at, 3 * params.delta);
  }
}

}  // namespace
}  // namespace hydra::test
