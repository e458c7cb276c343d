#include "serve/instance_mux.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace hydra::serve {

/// The Env handed to an instance's inner party. Stamps the instance id into
/// outgoing tags, rewrites timer ids, and keeps the per-instance wire
/// accounting (self-deliveries exempt, matching net::EgressPipeline). The
/// outer Env pointer is only valid during a dispatch — the backend owns it.
class InstanceMux::InstanceEnv final : public sim::Env {
 public:
  InstanceEnv(std::uint32_t instance, InstanceRecord* record)
      : instance_(instance), record_(record) {}

  void begin(sim::Env* outer) noexcept { outer_ = outer; }
  void end() noexcept { outer_ = nullptr; }

  void send(PartyId to, sim::Message msg) override {
    stamp(msg);
    if (to != outer_->self()) {
      record_->messages += 1;
      record_->bytes += msg.wire_size();
    }
    outer_->send(to, std::move(msg));
  }

  void broadcast(const sim::Message& msg) override {
    // Unicast loop in party order — the same fan-out order every backend Env
    // uses, so an instance's projected send sequence matches a solo run.
    for (PartyId to = 0; to < outer_->n(); ++to) {
      sim::Message copy = msg;
      send(to, std::move(copy));
    }
  }

  void set_timer(Time at, std::uint64_t timer_id) override {
    HYDRA_ASSERT_MSG(timer_id < (1ull << 32),
                     "instance mux: inner timer id must fit 32 bits");
    outer_->set_timer(at, (std::uint64_t{instance_} << 32) | timer_id);
  }

  [[nodiscard]] Time now() const override { return outer_->now(); }
  [[nodiscard]] PartyId self() const override { return outer_->self(); }
  [[nodiscard]] std::size_t n() const override { return outer_->n(); }

 private:
  void stamp(sim::Message& msg) const {
    HYDRA_ASSERT_MSG(msg.key.tag <= kInstanceTagMask,
                     "instance mux: inner protocol tag collides with the "
                     "instance-id bits");
    msg.key.tag |= instance_ << kInstanceTagShift;
  }

  sim::Env* outer_ = nullptr;
  std::uint32_t instance_;
  InstanceRecord* record_;
};

InstanceMux::InstanceMux(Config config) : config_(std::move(config)) {
  HYDRA_ASSERT(config_.directory != nullptr);
  HYDRA_ASSERT(config_.make_party != nullptr);
  HYDRA_ASSERT(config_.decided != nullptr);
  HYDRA_ASSERT_MSG(config_.instances >= 1 && config_.instances <= kMaxInstances,
                   "instance mux: instance count out of the tag-bit range");
  HYDRA_ASSERT(config_.interarrival >= 0 && config_.linger >= 0);
  if (config_.gc_retry <= 0) config_.gc_retry = 1;
  slot_of_.assign(config_.instances, -1);
  status_.assign(config_.instances, Status::kPending);
  records_.assign(config_.instances, InstanceRecord{});
}

InstanceMux::~InstanceMux() = default;

void InstanceMux::start(sim::Env& env) {
  // Open-loop admission plan: every instance gets its arrival timer up
  // front. The backlog is one queue entry per instance — cheap, and it keeps
  // admission ticks identical across parties and backends.
  for (std::uint32_t k = 0; k < config_.instances; ++k) {
    env.set_timer(Time{k} * config_.interarrival, kAdmitBit | k);
  }
}

void InstanceMux::on_message(sim::Env& env, PartyId from, const sim::Message& msg) {
  const std::uint32_t instance = msg.key.tag >> kInstanceTagShift;
  if (instance >= config_.instances) {
    ++unknown_dropped_;  // not an id of this run: count, drop, keep serving
    return;
  }
  if (status_[instance] == Status::kPending) {
    // A peer admitted this instance before we did; keep the message until
    // our own admission timer starts the inner party.
    held_[instance].emplace_back(from, msg);
    return;
  }
  if (status_[instance] == Status::kRetired) {
    ++late_dropped_;
    ++records_[instance].late_dropped;
    return;
  }
  const auto slot_index = static_cast<std::uint32_t>(slot_of_[instance]);
  sim::Message inner = msg;
  inner.key.tag &= kInstanceTagMask;
  dispatch(env, slot_index, [&](Slot& slot) {
    slot.party->on_message(*slot.env, from, inner);
  });
}

void InstanceMux::on_timer(sim::Env& env, std::uint64_t timer_id) {
  if ((timer_id & kAdmitBit) != 0) {
    admit(env, static_cast<std::uint32_t>(timer_id & ~kAdmitBit));
    return;
  }
  if ((timer_id & kGcBit) != 0) {
    gc(env, static_cast<std::uint32_t>(timer_id & ~kGcBit));
    return;
  }
  const auto instance = static_cast<std::uint32_t>(timer_id >> 32);
  const auto inner_id = timer_id & 0xffffffffull;
  HYDRA_ASSERT(instance < config_.instances);
  if (status_[instance] != Status::kLive) {
    // A timer the inner party armed before it was retired: dropped like a
    // late message (pending is impossible — only live instances set timers).
    ++late_dropped_;
    ++records_[instance].late_dropped;
    return;
  }
  const auto slot_index = static_cast<std::uint32_t>(slot_of_[instance]);
  dispatch(env, slot_index,
           [&](Slot& slot) { slot.party->on_timer(*slot.env, inner_id); });
}

void InstanceMux::admit(sim::Env& env, std::uint32_t instance) {
  HYDRA_ASSERT(status_[instance] == Status::kPending);
  std::uint32_t slot_index;
  if (!free_slots_.empty()) {
    slot_index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot_index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[slot_index];
  slot.instance = instance;
  slot.in_use = true;
  InstanceRecord& rec = records_[instance];
  rec.admitted = true;
  rec.admitted_at = env.now();
  slot.env = std::make_unique<InstanceEnv>(instance, &rec);
  slot.party = config_.make_party(instance);
  slot_of_[instance] = static_cast<std::int32_t>(slot_index);
  status_[instance] = Status::kLive;
  ++live_count_;
  live_peak_ = std::max(live_peak_, live_count_);
  dispatch(env, slot_index, [&](Slot& s) { s.party->start(*s.env); });
  if (const auto it = held_.find(instance); it != held_.end()) {
    const auto held = std::move(it->second);
    held_.erase(it);
    for (const auto& [from, msg] : held) on_message(env, from, msg);
  }
}

void InstanceMux::gc(sim::Env& env, std::uint32_t instance) {
  if (status_[instance] != Status::kLive) return;
  if (config_.directory->all_decided(instance)) {
    retire(instance);
    return;
  }
  // A sibling is still deciding: keep the slot warm and look again later.
  // Every party decides in finite time (that is what the directory counts),
  // so the retry chain terminates and the simulator still drains.
  env.set_timer(env.now() + config_.gc_retry, kGcBit | instance);
}

void InstanceMux::retire(std::uint32_t instance) {
  const auto slot_index = static_cast<std::uint32_t>(slot_of_[instance]);
  Slot& slot = slots_[slot_index];
  slot.party.reset();
  slot.env.reset();
  slot.in_use = false;
  slot_of_[instance] = -1;
  status_[instance] = Status::kRetired;
  free_slots_.push_back(slot_index);
  --live_count_;
}

template <typename Fn>
void InstanceMux::dispatch(sim::Env& env, std::uint32_t slot_index, Fn&& fn) {
  Slot& slot = slots_[slot_index];
  slot.env->begin(&env);
  obs::Context* ctx = config_.instance_context != nullptr
                          ? config_.instance_context(slot.instance)
                          : nullptr;
  if (ctx != nullptr) {
    const obs::ScopedContext scope(ctx);
    fn(slot);
  } else {
    fn(slot);
  }
  slot.env->end();
  after_dispatch(env, slot_index);
}

void InstanceMux::after_dispatch(sim::Env& env, std::uint32_t slot_index) {
  Slot& slot = slots_[slot_index];
  const std::uint32_t instance = slot.instance;
  InstanceRecord& rec = records_[instance];
  if (rec.decided || !config_.decided(*slot.party, instance)) return;
  rec.decided = true;
  rec.decided_at = env.now();
  if (config_.snapshot != nullptr) config_.snapshot(instance, *slot.party, rec);
  ++decided_count_;
  config_.directory->mark_decided(instance);
  env.set_timer(env.now() + config_.linger, kGcBit | instance);
}

}  // namespace hydra::serve
