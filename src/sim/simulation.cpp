#include "sim/simulation.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "faults/faults.hpp"
#include "net/delivery.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "obs/prof.hpp"

namespace hydra::sim {

/// Per-party view of the simulation; implements the Env the protocol sees.
class Simulation::PartyEnv final : public Env {
 public:
  PartyEnv(Simulation* sim, PartyId id) : sim_(sim), id_(id) {}

  void send(PartyId to, Message msg) override {
    HYDRA_ASSERT(to < sim_->parties_.size());
    sim_->deliver(id_, to, std::move(msg));
  }

  void broadcast(const Message& msg) override {
    for (PartyId to = 0; to < sim_->parties_.size(); ++to) {
      sim_->deliver(id_, to, msg);
    }
  }

  void set_timer(Time at, std::uint64_t timer_id) override {
    sim_->push(std::max(at, sim_->now_), Phase::kTimer,
               PendingEvent{.kind = EventKind::kTimer, .to = id_, .id = timer_id});
  }

  [[nodiscard]] Time now() const override { return sim_->now_; }
  [[nodiscard]] PartyId self() const override { return id_; }
  [[nodiscard]] std::size_t n() const override { return sim_->parties_.size(); }

 private:
  Simulation* sim_;
  PartyId id_;
};

Simulation::Simulation(SimConfig config, std::unique_ptr<DelayModel> delay_model)
    : config_(config),
      delay_model_(std::move(delay_model)),
      rng_(config.seed),
      pipeline_(net::EgressConfig{.n = config.n,
                                  .delta = config.delta,
                                  .per_round = true,
                                  .eager_ids = false,
                                  .messages_counter = "sim.messages",
                                  .bytes_counter = "sim.bytes",
                                  .delay_histogram = "sim.delay_delta"}) {
  HYDRA_ASSERT(delay_model_ != nullptr);
  HYDRA_ASSERT(config_.n >= 1);
}

Simulation::~Simulation() = default;

void Simulation::add_party(std::unique_ptr<IParty> party) {
  HYDRA_ASSERT_MSG(parties_.size() < config_.n, "more parties than config.n");
  const auto id = static_cast<PartyId>(parties_.size());
  parties_.push_back(std::move(party));
  envs_.push_back(std::make_unique<PartyEnv>(this, id));
}

void Simulation::schedule(Time at, std::function<void()> fn) {
  push(at, Phase::kTimer, PendingEvent{.kind = EventKind::kCallback, .fn = std::move(fn)});
}

void Simulation::push(Time at, Phase phase, PendingEvent ev) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(std::move(ev));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[slot] = std::move(ev);
  }
  queue_.push(Entry{at, phase, next_seq_++, slot});
}

void Simulation::fire(std::uint32_t slot) {
  // Moved out first: the handler may schedule into this very slot, and any
  // push may reallocate the slab.
  PendingEvent ev = std::move(slab_[slot]);
  free_slots_.push_back(slot);
  // The lean delivery is nearly every event: tested ahead of the switch,
  // whose five cases would otherwise compile to an indirect jump.
  if (ev.kind == EventKind::kMessage) {
    parties_[ev.to]->on_message(*envs_[ev.to], ev.from, ev.msg);
    return;
  }
  switch (ev.kind) {
    case EventKind::kStart:
      parties_[ev.to]->start(*envs_[ev.to]);
      break;
    case EventKind::kMessage:
      break;
    case EventKind::kTracedMessage:
      fire_traced(ev);
      break;
    case EventKind::kTimer:
      parties_[ev.to]->on_timer(*envs_[ev.to], ev.id);
      break;
    case EventKind::kCallback:
      ev.fn();
      break;
  }
}

void Simulation::fire_traced(const PendingEvent& ev) {
  net::DeliveryGate::dispatch(now_, ev.from, ev.to, ev.msg, ev.id, [&] {
    parties_[ev.to]->on_message(*envs_[ev.to], ev.from, ev.msg);
  });
}

void Simulation::deliver(PartyId from, PartyId to, Message msg) {
  const bool self = from == to;
  // Self-delivery is local computation, not network traffic: zero delay (but
  // still queued, so handlers never re-enter); the pipeline exempts it from
  // all message accounting — only wire traffic counts against the paper's
  // bounds. All other egress policy (fault outcomes, ids, obs emission)
  // lives in net::EgressPipeline, shared with the thread transport.
  const Duration base = self ? 0 : delay_model_->delay(from, to, now_, msg, rng_);
  if (lean_) {
    // No injector and observability off for the whole run: wire accounting
    // is all the pipeline would do, and the one copy goes out at `base`.
    // This is the disabled path bench_obs_overhead holds to < 2% over an
    // uninstrumented loop.
    HYDRA_ASSERT(self || base >= 1);
    pipeline_.account(from, to, msg);
    push(now_ + base, Phase::kMessage,
         PendingEvent{.kind = EventKind::kMessage, .from = from, .to = to,
                      .msg = std::move(msg)});
    return;
  }
  const auto egress = pipeline_.on_send(from, to, msg, now_, base, injector_);
  if (egress.copies == 0) return;  // crashed endpoint dropped it

  // Observability was on for this send when it got an id (lazy id mode
  // allocates ids only then, and the obs state cannot change while run()
  // executes): deliver through the DeliveryGate. A duplicate shares the
  // original's send id — one send event, two delivers with the same cause.
  const EventKind kind =
      egress.send_id != 0 ? EventKind::kTracedMessage : EventKind::kMessage;
  // A duplicate's first copy takes delay[0] and the earlier sequence number;
  // the moved original takes delay[1].
  if (egress.copies == 2) {
    push(now_ + egress.delay[0], Phase::kMessage,
         PendingEvent{.kind = kind, .from = from, .to = to, .id = egress.send_id,
                      .msg = msg});
  }
  push(now_ + egress.delay[egress.copies - 1], Phase::kMessage,
       PendingEvent{.kind = kind, .from = from, .to = to, .id = egress.send_id,
                    .msg = std::move(msg)});
}

SimStats Simulation::run() {
  HYDRA_ASSERT_MSG(parties_.size() == config_.n, "add exactly n parties before run()");
  // All parties start simultaneously at local time 0.
  for (PartyId id = 0; id < parties_.size(); ++id) {
    push(0, Phase::kMessage, PendingEvent{.kind = EventKind::kStart, .to = id});
  }

  // Hoisted: the context (and with it the monitor host and profiler) cannot
  // change while run() executes on this thread. The drain loop is duplicated
  // so the monitors-off, profiler-off path carries no per-event check
  // (bench_obs_overhead).
  obs::MonitorHost* mon = obs::enabled() ? obs::monitors() : nullptr;
  lean_ = injector_ == nullptr && !obs::enabled();

  if (mon == nullptr && !obs::prof_enabled()) {
    drain();
  } else {
    drain_observed(mon);
  }

  stats_.end_time = now_;
  pipeline_.export_stats(stats_);
  if (obs::enabled()) {
    obs::registry().counter("sim.events").inc(stats_.events);
  }
  return stats_;
}

void Simulation::drain() {
  while (!queue_.empty()) {
    if (stats_.events >= config_.max_events || queue_.top().at > config_.max_time) {
      stats_.hit_limit = true;
      break;
    }
    const Entry top = queue_.top();
    queue_.pop();
    HYDRA_ASSERT(top.at >= now_);
    now_ = top.at;
    stats_.events += 1;
    fire(top.slot);
  }
}

void Simulation::drain_observed(obs::MonitorHost* mon) {
  HYDRA_PROF_SCOPE("sim.run");
  while (!queue_.empty()) {
    if (stats_.events >= config_.max_events || queue_.top().at > config_.max_time) {
      stats_.hit_limit = true;
      break;
    }
    if (mon != nullptr && mon->abort_requested()) {
      stats_.monitor_aborted = true;
      break;
    }
    const Entry top = queue_.top();
    queue_.pop();
    HYDRA_ASSERT(top.at >= now_);
    now_ = top.at;
    stats_.events += 1;
    {
      // Per-event phase: everything a handler does (net.deliver, aa.*,
      // geo.*) nests under sim.event, so self-time here is pure event-loop
      // bookkeeping.
      HYDRA_PROF_SCOPE("sim.event");
      fire(top.slot);
    }
  }
}

}  // namespace hydra::sim
