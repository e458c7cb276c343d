// Deterministic discrete-event simulator.
//
// A single priority queue of (time, sequence) events drives n parties. One
// master seed fully determines the run: delay draws, adversary choices and
// event ordering are all derived from it. Ties in virtual time break by
// submission order, which is itself deterministic.
//
// Events carry no closures. The heap holds plain {at, phase, seq, slot}
// entries; `slot` indexes a slab of pending events (kind, endpoints, timer
// or send id, message) whose slots are recycled through a free list, so
// a message or timer costs no allocation beyond its payload. Only the
// schedule() test hook stores a std::function.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/egress.hpp"
#include "net/wire_stats.hpp"
#include "sim/delay.hpp"
#include "sim/env.hpp"
#include "sim/message.hpp"

namespace hydra::faults {
class FaultInjector;
}

namespace hydra::sim {

struct SimConfig {
  std::size_t n = 4;
  Duration delta = 1000;          ///< the public bound Delta, in ticks
  std::uint64_t seed = 1;
  Time max_time = 500'000'000;    ///< hard stop (liveness-failure detector)
  std::uint64_t max_events = 50'000'000;
};

/// Wire accounting (messages/bytes/per-party/per-round) lives in the shared
/// net::WireStats base — both backends fill it through net::EgressPipeline.
/// The fields below are simulator-specific diagnostics.
struct SimStats : net::WireStats {
  std::uint64_t events = 0;
  Time end_time = 0;
  bool hit_limit = false;  ///< stopped by max_time/max_events, not quiescence
  /// Stopped early because a strict-mode invariant monitor requested it
  /// (obs/monitor.hpp); the queue was not drained.
  bool monitor_aborted = false;
};

class Simulation {
 public:
  Simulation(SimConfig config, std::unique_ptr<DelayModel> delay_model);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Parties must be added in id order before run(); party i gets id i.
  void add_party(std::unique_ptr<IParty> party);

  /// Runs until the event queue drains or a limit is hit.
  SimStats run();

  [[nodiscard]] Time now() const noexcept { return now_; }
  [[nodiscard]] const SimConfig& config() const noexcept { return config_; }
  /// Wire totals are folded in from the egress pipeline when run() returns;
  /// mid-run the WireStats base is all zeros.
  [[nodiscard]] const SimStats& stats() const noexcept { return stats_; }

  /// Test hook: schedule an arbitrary callback at absolute time `at` (runs
  /// in the timer phase, i.e. after same-tick message deliveries).
  void schedule(Time at, std::function<void()> fn);

  /// Installs a fault injector (src/faults/) consulted on every message.
  /// Borrowed: the injector must outlive run(). nullptr (the default) keeps
  /// the fault-free fast path — a single branch per deliver().
  void set_fault_injector(faults::FaultInjector* injector) noexcept {
    injector_ = injector;
  }

 private:
  class PartyEnv;

  /// Same-tick ordering: all message deliveries at time T happen before any
  /// timer at time T. This realizes the paper's synchronous semantics, where
  /// "delivered within Delta" is inclusive and a guard evaluated at time
  /// tau_start + c * Delta observes every message sent c rounds earlier.
  enum class Phase : std::uint8_t { kMessage = 0, kTimer = 1 };

  /// What a pending event does when it fires.
  enum class EventKind : std::uint8_t {
    kStart,          ///< IParty::start of `to`
    kMessage,        ///< lean delivery of `msg` from `from` to `to`
    kTracedMessage,  ///< delivery through net::DeliveryGate, cause `id`
    kTimer,          ///< IParty::on_timer of `to` with timer id `id`
    kCallback,       ///< the schedule() test hook's `fn`
  };
  struct PendingEvent {
    EventKind kind = EventKind::kCallback;
    PartyId from = 0;
    PartyId to = 0;
    std::uint64_t id = 0;  ///< timer id (kTimer) or send id (kTracedMessage)
    Message msg;
    std::function<void()> fn;
  };

  /// Queues `ev` at (at, phase) with the next sequence number.
  void push(Time at, Phase phase, PendingEvent ev);
  /// Runs the event in `slot`, after moving it out and recycling the slot
  /// (a handler may schedule into it).
  void fire(std::uint32_t slot);
  /// A kTracedMessage delivery through net::DeliveryGate. Out of line so the
  /// trace and monitor code does not bloat fire() on the lean path.
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((noinline, cold))
#endif
  void fire_traced(const PendingEvent& ev);

  /// Drain loop for unobserved runs. Its own function so the queue's pop()
  /// inlines into it as it does in the overhead bench's replica.
  void drain();

  /// Drain loop for observed runs (monitors and/or profiler active). Kept
  /// out of run() — and out of the hot text sections — so the lean loop the
  /// overhead bench gates shares no cache lines with monitor checks or
  /// profiler scopes.
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((noinline, cold))
#endif
  void drain_observed(obs::MonitorHost* mon);

  /// Runs the posted message through the shared net::EgressPipeline
  /// (accounting, fault injection, ids, obs emission) and schedules the
  /// surviving copies. The simulator itself contains no egress logic.
  void deliver(PartyId from, PartyId to, Message msg);

  SimConfig config_;
  std::unique_ptr<DelayModel> delay_model_;
  Rng rng_;
  faults::FaultInjector* injector_ = nullptr;
  /// Set by run(): no fault injector and observability off, both fixed for
  /// the run, so deliver() skips the rest of the egress pipeline after its
  /// wire accounting (the disabled path bench_obs_overhead gates).
  bool lean_ = false;

  struct Entry {
    Time at;
    Phase phase;
    std::uint64_t seq;
    std::uint32_t slot;  ///< index into slab_
  };
  struct EntryOrder {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      if (a.phase != b.phase) return a.phase > b.phase;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, EntryOrder> queue_;
  std::uint64_t next_seq_ = 0;
  std::vector<PendingEvent> slab_;
  std::vector<std::uint32_t> free_slots_;
  /// The shared send-side path (plain counters — single-threaded). Lazy id
  /// mode: trace send ids are allocated only while obs is enabled, so the
  /// disabled path is untouched and same-seed traces stay identical.
  net::EgressPipeline pipeline_;

  std::vector<std::unique_ptr<IParty>> parties_;
  std::vector<std::unique_ptr<PartyEnv>> envs_;

  Time now_ = 0;
  SimStats stats_;
};

}  // namespace hydra::sim
