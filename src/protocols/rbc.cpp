#include "protocols/rbc.hpp"

#include <string_view>
#include <utility>

#include "common/assert.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "obs/trace.hpp"

namespace hydra::protocols {
namespace {

/// Trace/metrics hook for RBC state transitions; `counter` is the full
/// counter name ("rbc.send", "rbc.echo", ...), whose suffix names the state.
void note_transition(const Env& env, const InstanceKey& key, std::string_view counter) {
  if (!obs::enabled()) return;
  obs::registry().counter(counter).inc();
  if (auto* tr = obs::trace()) {
    tr->state(env.now(), env.self(), "rbc", counter.substr(sizeof("rbc.") - 1), key.a,
              key.b);
  }
}

}  // namespace

void RbcInstance::broadcast(Env& env, Bytes payload) {
  HYDRA_ASSERT_MSG(key_.a == env.self(), "only the designated sender may broadcast");
  note_transition(env, key_, "rbc.send");
  Message msg{key_, kRbcSend, std::move(payload)};
  env.broadcast(msg);
}

void RbcInstance::send_echo(Env& env, const Bytes& payload) {
  sent_echo_ = true;
  note_transition(env, key_, "rbc.echo");
  env.broadcast(Message{key_, kRbcEcho, payload});
}

void RbcInstance::send_ready(Env& env, const Bytes& payload) {
  sent_ready_ = true;
  note_transition(env, key_, "rbc.ready");
  env.broadcast(Message{key_, kRbcReady, payload});
}

bool RbcInstance::on_message(Env& env, PartyId from, const Message& msg) {
  const std::size_t n = params_.n;
  const std::size_t t = params_.ts;

  switch (msg.kind) {
    case kRbcSend: {
      // Only the designated sender's initial send counts; an authenticated
      // channel means `from` cannot be forged.
      if (from != key_.a) return false;
      if (!sent_echo_) send_echo(env, msg.payload);
      return false;
    }
    case kRbcEcho: {
      // Delivery needs n-t >= t+1 readies, so a delivered instance has sent
      // its own ready: later echoes and readies cannot change anything.
      if (delivered_) return false;
      // First echo per voter is binding; equivocating echoes are dropped.
      if (!echo_voters_.insert(from)) return false;
      if (vote(echoes_, msg.payload) >= n - t && !sent_ready_) {
        send_ready(env, msg.payload);
      }
      return false;
    }
    case kRbcReady: {
      if (delivered_) return false;
      if (!ready_voters_.insert(from)) return false;
      const std::size_t votes = vote(readies_, msg.payload);
      if (votes >= t + 1 && !sent_ready_) send_ready(env, msg.payload);
      if (votes >= n - t) {
        delivered_ = true;
        output_ = msg.payload;
        echoes_ = {};
        readies_ = {};
        note_transition(env, key_, "rbc.deliver");
        if (obs::enabled()) {
          if (auto* mon = obs::monitors()) {
            mon->on_rbc_deliver(env.now(), env.self(), key_.tag, key_.a, key_.b,
                                msg.payload);
          }
        }
        return true;
      }
      return false;
    }
    default:
      return false;
  }
}

std::size_t RbcInstance::vote(std::vector<Tally>& tallies, const Bytes& payload) {
  for (auto& tally : tallies) {
    if (tally.payload == payload) return ++tally.votes;
  }
  tallies.push_back(Tally{payload, 1});
  return 1;
}

void RbcMux::broadcast(Env& env, InstanceKey key, Bytes payload) {
  instance(key).broadcast(env, std::move(payload));
}

bool RbcMux::handle(Env& env, PartyId from, const Message& msg) {
  if (msg.kind > kRbcReady) return false;
  auto& inst = instance(msg.key);
  if (inst.on_message(env, from, msg)) {
    on_deliver_(env, inst.key(), inst.output());
  }
  return true;
}

const RbcInstance* RbcMux::find(const InstanceKey& key) const {
  const auto it = instances_.find(key);
  return it == instances_.end() ? nullptr : &it->second;
}

RbcInstance& RbcMux::instance(const InstanceKey& key) {
  auto it = instances_.find(key);
  if (it == instances_.end()) {
    it = instances_.emplace(key, RbcInstance(params_, key)).first;
  }
  return it->second;
}

}  // namespace hydra::protocols
