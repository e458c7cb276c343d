// Tests for the discrete-event simulator: event ordering, timer semantics,
// delay models, broadcast accounting, end-to-end determinism, and the
// recycling of event slots.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "faults/faults.hpp"
#include "sim/delay.hpp"
#include "sim/env.hpp"
#include "sim/message.hpp"
#include "sim/simulation.hpp"

namespace hydra::sim {
namespace {

/// A party that records everything that happens to it.
class Recorder : public IParty {
 public:
  struct Entry {
    Time at;
    PartyId from;   // kInvalidParty for timers / start
    std::uint64_t tag;
  };

  void start(Env& env) override {
    log.push_back({env.now(), kInvalidParty, 0xFFFF});
    if (on_start) on_start(env);
  }

  void on_message(Env& env, PartyId from, const Message& msg) override {
    log.push_back({env.now(), from, msg.key.tag});
    if (on_msg) on_msg(env, from, msg);
  }

  void on_timer(Env& env, std::uint64_t timer_id) override {
    log.push_back({env.now(), kInvalidParty, timer_id});
    if (on_tmr) on_tmr(env, timer_id);
  }

  std::vector<Entry> log;
  std::function<void(Env&)> on_start;
  std::function<void(Env&, PartyId, const Message&)> on_msg;
  std::function<void(Env&, std::uint64_t)> on_tmr;
};

Message make_msg(std::uint32_t tag, Bytes payload = {}) {
  return Message{InstanceKey{tag, 0, 0}, 0, std::move(payload)};
}

TEST(Simulation, StartsAllPartiesAtTimeZero) {
  Simulation sim({.n = 3, .delta = 100, .seed = 1}, std::make_unique<FixedDelay>(100));
  std::vector<Recorder*> recs;
  for (int i = 0; i < 3; ++i) {
    auto r = std::make_unique<Recorder>();
    recs.push_back(r.get());
    sim.add_party(std::move(r));
  }
  sim.run();
  for (auto* r : recs) {
    ASSERT_EQ(r->log.size(), 1u);
    EXPECT_EQ(r->log[0].at, 0);
  }
}

TEST(Simulation, FixedDelayDeliversAtExactlyDelta) {
  Simulation sim({.n = 2, .delta = 100, .seed = 1}, std::make_unique<FixedDelay>(100));
  auto a = std::make_unique<Recorder>();
  a->on_start = [](Env& env) { env.send(1, make_msg(7)); };
  auto b = std::make_unique<Recorder>();
  Recorder* b_raw = b.get();
  sim.add_party(std::move(a));
  sim.add_party(std::move(b));
  sim.run();
  ASSERT_EQ(b_raw->log.size(), 2u);  // start + message
  EXPECT_EQ(b_raw->log[1].at, 100);
  EXPECT_EQ(b_raw->log[1].from, 0u);
  EXPECT_EQ(b_raw->log[1].tag, 7u);
}

TEST(Simulation, SelfMessagesDeliverImmediatelyButNotReentrantly) {
  Simulation sim({.n = 1, .delta = 100, .seed = 1}, std::make_unique<FixedDelay>(100));
  auto a = std::make_unique<Recorder>();
  Recorder* a_raw = a.get();
  bool inside_start = true;
  a->on_start = [&](Env& env) {
    env.send(0, make_msg(1));
    inside_start = false;  // set after send returns: delivery must come later
  };
  bool was_reentrant = true;
  a->on_msg = [&](Env&, PartyId, const Message&) { was_reentrant = inside_start; };
  sim.add_party(std::move(a));
  sim.run();
  ASSERT_EQ(a_raw->log.size(), 2u);
  EXPECT_EQ(a_raw->log[1].at, 0);    // same virtual time
  EXPECT_FALSE(was_reentrant);       // but after the handler returned
}

TEST(Simulation, BroadcastReachesEveryoneIncludingSelf) {
  Simulation sim({.n = 4, .delta = 50, .seed = 1}, std::make_unique<FixedDelay>(50));
  std::vector<Recorder*> recs;
  for (int i = 0; i < 4; ++i) {
    auto r = std::make_unique<Recorder>();
    if (i == 2) {
      r->on_start = [](Env& env) { env.broadcast(make_msg(9)); };
    }
    recs.push_back(r.get());
    sim.add_party(std::move(r));
  }
  const auto stats = sim.run();
  for (auto* r : recs) {
    ASSERT_EQ(r->log.size(), 2u);
    EXPECT_EQ(r->log[1].from, 2u);
  }
  // Wire traffic only: the self-delivery never touches the network, so a
  // broadcast to n = 4 parties counts n - 1 = 3 messages.
  EXPECT_EQ(stats.messages, 3u);
}

TEST(Simulation, TimersFireAtRequestedTime) {
  Simulation sim({.n = 1, .delta = 10, .seed = 1}, std::make_unique<FixedDelay>(10));
  auto a = std::make_unique<Recorder>();
  Recorder* a_raw = a.get();
  a->on_start = [](Env& env) {
    env.set_timer(500, 1);
    env.set_timer(200, 2);
    env.set_timer(200, 3);
  };
  sim.add_party(std::move(a));
  sim.run();
  ASSERT_EQ(a_raw->log.size(), 4u);
  // Timers at equal times preserve submission order.
  EXPECT_EQ(a_raw->log[1].at, 200);
  EXPECT_EQ(a_raw->log[1].tag, 2u);
  EXPECT_EQ(a_raw->log[2].at, 200);
  EXPECT_EQ(a_raw->log[2].tag, 3u);
  EXPECT_EQ(a_raw->log[3].at, 500);
  EXPECT_EQ(a_raw->log[3].tag, 1u);
}

TEST(Simulation, PastDeadlineTimerFiresImmediately) {
  Simulation sim({.n = 1, .delta = 10, .seed = 1}, std::make_unique<FixedDelay>(10));
  auto a = std::make_unique<Recorder>();
  Recorder* a_raw = a.get();
  a->on_start = [](Env& env) { env.set_timer(100, 1); };
  a->on_tmr = [](Env& env, std::uint64_t id) {
    if (id == 1) env.set_timer(5, 2);  // deadline already past (now = 100)
  };
  sim.add_party(std::move(a));
  sim.run();
  ASSERT_EQ(a_raw->log.size(), 3u);
  EXPECT_EQ(a_raw->log[2].at, 100);  // clamped to now
}

TEST(Simulation, DeterministicAcrossRuns) {
  auto run_once = [] {
    Simulation sim({.n = 5, .delta = 100, .seed = 42},
                   std::make_unique<UniformDelay>(10, 100));
    std::vector<Recorder*> recs;
    for (int i = 0; i < 5; ++i) {
      auto r = std::make_unique<Recorder>();
      r->on_start = [](Env& env) { env.broadcast(make_msg(1)); };
      r->on_msg = [](Env& env, PartyId from, const Message& msg) {
        // One ping-back per received broadcast, bounded by tag value.
        if (msg.key.tag < 3) {
          auto m = msg;
          m.key.tag += 1;
          env.send(from, m);
        }
      };
      recs.push_back(r.get());
      sim.add_party(std::move(r));
    }
    const auto stats = sim.run();
    std::vector<std::tuple<Time, PartyId, std::uint64_t>> flat;
    for (auto* r : recs) {
      for (const auto& e : r->log) flat.emplace_back(e.at, e.from, e.tag);
    }
    return std::pair{stats, flat};
  };
  const auto [s1, l1] = run_once();
  const auto [s2, l2] = run_once();
  EXPECT_EQ(s1.messages, s2.messages);
  EXPECT_EQ(s1.bytes, s2.bytes);
  EXPECT_EQ(s1.end_time, s2.end_time);
  EXPECT_EQ(l1, l2);
}

TEST(Simulation, UniformDelayStaysInBounds) {
  Rng rng(7);
  UniformDelay model(10, 100);
  Message msg = make_msg(0);
  for (int i = 0; i < 1000; ++i) {
    const auto d = model.delay(0, 1, 0, msg, rng);
    EXPECT_GE(d, 10);
    EXPECT_LE(d, 100);
  }
}

TEST(Simulation, ExponentialDelayRespectsCapAndMin) {
  Rng rng(7);
  ExponentialDelay model(500.0, 2000);
  Message msg = make_msg(0);
  bool saw_above_delta = false;
  for (int i = 0; i < 2000; ++i) {
    const auto d = model.delay(0, 1, 0, msg, rng);
    EXPECT_GE(d, 1);
    EXPECT_LE(d, 2000);
    if (d > 1000) saw_above_delta = true;
  }
  EXPECT_TRUE(saw_above_delta);  // async model violates any Delta = 1000 bound
}

TEST(Simulation, StatsCountBytes) {
  Simulation sim({.n = 2, .delta = 10, .seed = 1}, std::make_unique<FixedDelay>(10));
  auto a = std::make_unique<Recorder>();
  a->on_start = [](Env& env) { env.send(1, make_msg(1, Bytes(100, 0xAA))); };
  sim.add_party(std::move(a));
  sim.add_party(std::make_unique<Recorder>());
  const auto stats = sim.run();
  EXPECT_EQ(stats.messages, 1u);
  EXPECT_EQ(stats.bytes, 100u + 17u);
}

TEST(Simulation, MaxTimeStopsRunawayRun) {
  Simulation sim({.n = 1, .delta = 10, .seed = 1, .max_time = 1000},
                 std::make_unique<FixedDelay>(10));
  auto a = std::make_unique<Recorder>();
  a->on_start = [](Env& env) { env.set_timer(env.now() + 100, 1); };
  a->on_tmr = [](Env& env, std::uint64_t) { env.set_timer(env.now() + 100, 1); };
  sim.add_party(std::move(a));
  const auto stats = sim.run();
  EXPECT_TRUE(stats.hit_limit);
  EXPECT_LE(stats.end_time, 1000);
}

TEST(Simulation, ScheduleHookRunsAtRequestedTime) {
  Simulation sim({.n = 1, .delta = 10, .seed = 1}, std::make_unique<FixedDelay>(10));
  sim.add_party(std::make_unique<Recorder>());
  Time fired_at = -1;
  sim.schedule(333, [&] { fired_at = sim.now(); });
  sim.run();
  EXPECT_EQ(fired_at, 333);
}

TEST(Simulation, HandlerMayScheduleIntoItsOwnRecycledSlot) {
  // A delivery's slot is free again while its handler runs: the handler's
  // first send reuses it and later sends grow (and move) the slab. The
  // message being handled must stay intact throughout.
  Simulation sim({.n = 2, .delta = 10, .seed = 1}, std::make_unique<FixedDelay>(10));
  auto a = std::make_unique<Recorder>();
  auto b = std::make_unique<Recorder>();
  Recorder* b_raw = b.get();
  a->on_start = [](Env& env) { env.send(1, make_msg(7, Bytes(32, 0xAB))); };
  bool intact = true;
  std::vector<Bytes> echoed;
  b->on_msg = [&](Env& env, PartyId, const Message& msg) {
    if (msg.key.tag != 7) {
      echoed.push_back(msg.payload);
      return;
    }
    const Bytes before = msg.payload;
    for (std::uint8_t i = 0; i < 64; ++i) env.send(1, make_msg(8, Bytes(4, i)));
    env.set_timer(env.now() + 5, 9);
    intact = intact && msg.payload == before && msg.key.tag == 7;
  };
  sim.add_party(std::move(a));
  sim.add_party(std::move(b));
  const auto stats = sim.run();
  EXPECT_TRUE(intact);
  ASSERT_EQ(echoed.size(), 64u);
  for (std::uint8_t i = 0; i < 64; ++i) EXPECT_EQ(echoed[i], Bytes(4, i));
  EXPECT_EQ(b_raw->log.back().tag, 9u);  // the timer, after the self-sends
  EXPECT_EQ(stats.events, 2u + 1u + 64u + 1u);

  // The schedule() hook recycles slots the same way.
  Simulation hook({.n = 1, .delta = 10, .seed = 1}, std::make_unique<FixedDelay>(10));
  hook.add_party(std::make_unique<Recorder>());
  std::vector<Time> fired;
  std::function<void()> chain = [&] {
    fired.push_back(hook.now());
    if (fired.size() < 5) hook.schedule(hook.now() + 10, chain);
  };
  hook.schedule(10, chain);
  hook.run();
  EXPECT_EQ(fired, (std::vector<Time>{10, 20, 30, 40, 50}));
}

TEST(Simulation, DuplicatedMessagesKeepSubmissionOrder) {
  // dup(p=1) under synchrony with a fixed delay of Delta clamps every copy
  // to the primary's tick, so only sequence numbers order them: each
  // primary is followed by its own copy before the next send.
  auto plan = faults::parse_fault_plan("dup(p=1)");
  ASSERT_TRUE(plan.has_value());
  faults::FaultInjector injector(*plan, {.seed = 3, .synchronous = true, .delta = 100});
  Simulation sim({.n = 2, .delta = 100, .seed = 1}, std::make_unique<FixedDelay>(100));
  sim.set_fault_injector(&injector);
  auto a = std::make_unique<Recorder>();
  auto b = std::make_unique<Recorder>();
  Recorder* b_raw = b.get();
  a->on_start = [](Env& env) {
    for (std::uint32_t tag = 1; tag <= 3; ++tag) {
      env.send(1, make_msg(tag, Bytes(8, static_cast<std::uint8_t>(tag))));
    }
  };
  std::vector<Bytes> payloads;
  b->on_msg = [&](Env&, PartyId, const Message& msg) { payloads.push_back(msg.payload); };
  sim.add_party(std::move(a));
  sim.add_party(std::move(b));
  sim.run();
  ASSERT_EQ(b_raw->log.size(), 7u);  // start + 3 x 2 copies
  const std::vector<std::uint64_t> expected{1, 1, 2, 2, 3, 3};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(b_raw->log[i + 1].at, 100);
    EXPECT_EQ(b_raw->log[i + 1].from, 0u);
    EXPECT_EQ(b_raw->log[i + 1].tag, expected[i]);
    EXPECT_EQ(payloads[i], Bytes(8, static_cast<std::uint8_t>(expected[i])));
  }
}

TEST(Simulation, SameTickMessagesRunBeforeTimers) {
  // Party 0 arms its timer (and the hook its callback) before party 1's
  // message to it is even sent, so both have lower sequence numbers; the
  // message phase still runs first at tick 100.
  Simulation sim({.n = 2, .delta = 100, .seed = 1}, std::make_unique<FixedDelay>(100));
  auto a = std::make_unique<Recorder>();
  auto b = std::make_unique<Recorder>();
  Recorder* a_raw = a.get();
  a->on_start = [](Env& env) { env.set_timer(100, 5); };
  b->on_start = [](Env& env) { env.send(0, make_msg(6)); };
  std::size_t log_at_hook = 0;
  sim.schedule(100, [&] { log_at_hook = a_raw->log.size(); });
  sim.add_party(std::move(a));
  sim.add_party(std::move(b));
  sim.run();
  ASSERT_EQ(a_raw->log.size(), 3u);
  EXPECT_EQ(a_raw->log[1].at, 100);
  EXPECT_EQ(a_raw->log[1].from, 1u);  // the message ...
  EXPECT_EQ(a_raw->log[1].tag, 6u);
  EXPECT_EQ(a_raw->log[2].at, 100);
  EXPECT_EQ(a_raw->log[2].from, kInvalidParty);  // ... then the timer
  EXPECT_EQ(a_raw->log[2].tag, 5u);
  EXPECT_EQ(log_at_hook, 2u);  // the hook ran after the message, before the timer
}

}  // namespace
}  // namespace hydra::sim
