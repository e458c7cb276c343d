#include "obs_baseline_sim.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace hydra::benchobs {

/// Per-party view; mirrors sim::Simulation::PartyEnv minus instrumentation.
class BaselineSim::PartyEnv final : public sim::Env {
 public:
  PartyEnv(BaselineSim* sim, PartyId id) : sim_(sim), id_(id) {}

  void send(PartyId to, sim::Message msg) override {
    HYDRA_ASSERT(to < sim_->parties_.size());
    sim_->deliver(id_, to, std::move(msg));
  }

  void broadcast(const sim::Message& msg) override {
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
  BaselineSim* sim_;
  PartyId id_;
};

BaselineSim::BaselineSim(sim::SimConfig config, std::unique_ptr<sim::DelayModel> delay_model)
    : config_(config), delay_model_(std::move(delay_model)), rng_(config.seed) {
  stats_sent_.assign(config_.n, 0);
}

BaselineSim::~BaselineSim() = default;

void BaselineSim::add_party(std::unique_ptr<sim::IParty> party) {
  const auto id = static_cast<PartyId>(parties_.size());
  parties_.push_back(std::move(party));
  envs_.push_back(std::make_unique<PartyEnv>(this, id));
}

void BaselineSim::push(Time at, Phase phase, PendingEvent ev) {
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

void BaselineSim::fire(std::uint32_t slot) {
  PendingEvent ev = std::move(slab_[slot]);
  free_slots_.push_back(slot);
  switch (ev.kind) {
    case EventKind::kStart:
      parties_[ev.to]->start(*envs_[ev.to]);
      break;
    case EventKind::kMessage:
      parties_[ev.to]->on_message(*envs_[ev.to], ev.from, ev.msg);
      break;
    case EventKind::kTimer:
      parties_[ev.to]->on_timer(*envs_[ev.to], ev.id);
      break;
  }
}

void BaselineSim::deliver(PartyId from, PartyId to, sim::Message msg) {
  if (from != to) {
    messages_ += 1;
    bytes_ += msg.wire_size();
    stats_sent_[from] += 1;
  }
  const Duration d =
      from == to ? 0 : delay_model_->delay(from, to, now_, msg, rng_);
  HYDRA_ASSERT(from == to || d >= 1);
  push(now_ + d, Phase::kMessage,
       PendingEvent{.kind = EventKind::kMessage, .from = from, .to = to,
                    .msg = std::move(msg)});
}

std::uint64_t BaselineSim::run() {
  for (PartyId id = 0; id < parties_.size(); ++id) {
    push(0, Phase::kMessage, PendingEvent{.kind = EventKind::kStart, .to = id});
  }
  while (!queue_.empty()) {
    if (events_ >= config_.max_events || queue_.top().at > config_.max_time) break;
    const Entry top = queue_.top();
    queue_.pop();
    HYDRA_ASSERT(top.at >= now_);
    now_ = top.at;
    events_ += 1;
    fire(top.slot);
  }
  return events_;
}

}  // namespace hydra::benchobs
