#include "transport/socket_net.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <sstream>
#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "faults/faults.hpp"
#include "net/delivery.hpp"
#include "obs/context.hpp"
#include "obs/monitor.hpp"
#include "obs/prof.hpp"
#include "obs/stats.hpp"
#include "transport/socket_wire.hpp"

namespace hydra::transport {
namespace {

using Clock = std::chrono::steady_clock;

/// Full write with EINTR handling. MSG_NOSIGNAL: a peer that died mid-run
/// must surface as a failed write, not a process-killing SIGPIPE.
bool write_all(int fd, const std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Full read. Returns 1 on success, 0 on clean EOF before the first byte
/// (orderly connection end at a frame boundary), -1 on error or truncation.
int read_exact(int fd, std::uint8_t* data, std::size_t len) {
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd, data + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (n == 0) return got == 0 ? 0 : -1;
    got += static_cast<std::size_t>(n);
  }
  return 1;
}

enum class ReadFrame { kOk, kEof, kBad };

/// Reads one length-prefixed frame body. The length prefix is validated
/// BEFORE any allocation: zero or above wire::kMaxFrameBytes is a framing
/// attack (or stream corruption) and poisons the connection.
ReadFrame read_frame(int fd, Bytes& body) {
  std::uint8_t prefix[4];
  switch (read_exact(fd, prefix, sizeof prefix)) {
    case 0: return ReadFrame::kEof;
    case -1: return ReadFrame::kBad;
    default: break;
  }
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len |= std::uint32_t{prefix[i]} << (8 * i);
  if (len == 0 || len > wire::kMaxFrameBytes) return ReadFrame::kBad;
  body.resize(len);
  return read_exact(fd, body.data(), len) == 1 ? ReadFrame::kOk : ReadFrame::kBad;
}

/// One frame = one buffer = one send(): prefix + body, serialized per link
/// by `mutex` (the party's writer thread and the watchdog's FIN share fds).
bool write_frame(int fd, std::mutex& mutex, const Bytes& body) {
  Bytes frame;
  frame.reserve(4 + body.size());
  const auto len = static_cast<std::uint32_t>(body.size());
  for (int i = 0; i < 4; ++i) frame.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
  frame.insert(frame.end(), body.begin(), body.end());
  const std::lock_guard lock(mutex);
  return write_all(fd, frame.data(), frame.size());
}

void set_nodelay(int fd, bool uds) {
  if (uds) return;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

void set_recv_timeout(int fd, long seconds) {
  timeval tv{};
  tv.tv_sec = seconds;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

/// "host:port" with a numeric IPv4 host (the socket backend does not
/// resolve names — deployment docs say to pass addresses).
std::optional<sockaddr_in> parse_tcp(const std::string& endpoint) {
  const auto colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0) return std::nullopt;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  const std::string host = endpoint.substr(0, colon);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return std::nullopt;
  const long port = std::strtol(endpoint.c_str() + colon + 1, nullptr, 10);
  if (port < 0 || port > 65535) return std::nullopt;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  return addr;
}

std::optional<sockaddr_un> parse_uds(const std::string& endpoint) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (endpoint.empty() || endpoint.size() >= sizeof addr.sun_path) return std::nullopt;
  std::memcpy(addr.sun_path, endpoint.c_str(), endpoint.size() + 1);
  return addr;
}

/// Binds + listens on `endpoint`; for tcp port 0 the endpoint string is
/// rewritten with the kernel-assigned port. Returns -1 on failure.
int listen_on(std::string& endpoint, bool uds) {
  if (uds) {
    const auto addr = parse_uds(endpoint);
    if (!addr) return -1;
    ::unlink(endpoint.c_str());
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&*addr), sizeof *addr) != 0 ||
        ::listen(fd, 64) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }
  auto addr = parse_tcp(endpoint);
  if (!addr) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&*addr), sizeof *addr) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    return -1;
  }
  if (addr->sin_port == 0) {
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      ::close(fd);
      return -1;
    }
    char host[INET_ADDRSTRLEN] = {};
    ::inet_ntop(AF_INET, &bound.sin_addr, host, sizeof host);
    endpoint = std::string(host) + ":" + std::to_string(ntohs(bound.sin_port));
  }
  return fd;
}

/// Connects to `endpoint`, retrying until `deadline` — in multi-process mode
/// peers come up at their own pace. Returns -1 once the deadline passes.
/// Every dial (including retries) bumps `attempts`, so the health report
/// shows how long peers kept each other waiting.
int connect_retry(const std::string& endpoint, bool uds, Clock::time_point deadline,
                  std::atomic<std::uint64_t>& attempts) {
  for (;;) {
    attempts.fetch_add(1, std::memory_order_relaxed);
    int fd = -1;
    if (uds) {
      if (const auto addr = parse_uds(endpoint)) {
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd >= 0 &&
            ::connect(fd, reinterpret_cast<const sockaddr*>(&*addr), sizeof *addr) == 0) {
          return fd;
        }
      }
    } else {
      if (const auto addr = parse_tcp(endpoint)) {
        fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd >= 0 &&
            ::connect(fd, reinterpret_cast<const sockaddr*>(&*addr), sizeof *addr) == 0) {
          set_nodelay(fd, uds);
          return fd;
        }
      }
    }
    if (fd >= 0) ::close(fd);
    if (Clock::now() >= deadline) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

}  // namespace

std::string validate_uds_endpoint(const std::string& endpoint) {
  if (endpoint.empty()) return "uds endpoint is empty";
  const std::size_t limit = sizeof(sockaddr_un{}.sun_path);
  if (endpoint.size() >= limit) {
    return "uds endpoint \"" + endpoint + "\" is " +
           std::to_string(endpoint.size()) +
           " bytes, but AF_UNIX socket paths are limited to " +
           std::to_string(limit - 1) +
           " bytes (sockaddr_un::sun_path); use a shorter path, e.g. under "
           "/tmp";
  }
  return "";
}

/// The per-party Env implementation; used only from the party's own worker
/// thread (same contract as ThreadNetwork::ThreadEnv).
class SocketNetwork::SocketEnv final : public sim::Env {
 public:
  SocketEnv(SocketNetwork* net, PartyId id) : net_(net), id_(id) {}

  void send(PartyId to, sim::Message msg) override { net_->post(id_, to, std::move(msg)); }

  void broadcast(const sim::Message& msg) override {
    for (PartyId to = 0; to < net_->config_.n; ++to) net_->post(id_, to, msg);
  }

  void set_timer(Time at, std::uint64_t timer_id) override {
    timers_.emplace(at, timer_id);
  }

  [[nodiscard]] Time now() const override { return net_->now_ticks(); }
  [[nodiscard]] PartyId self() const override { return id_; }
  [[nodiscard]] std::size_t n() const override { return net_->config_.n; }

  [[nodiscard]] Time next_timer() const {
    return timers_.empty() ? kTimeInfinity : timers_.top().first;
  }

  std::optional<std::uint64_t> pop_due_timer(Time now) {
    if (timers_.empty() || timers_.top().first > now) return std::nullopt;
    const auto id = timers_.top().second;
    timers_.pop();
    return id;
  }

 private:
  using TimerEntry = std::pair<Time, std::uint64_t>;
  SocketNetwork* net_;
  PartyId id_;
  std::priority_queue<TimerEntry, std::vector<TimerEntry>, std::greater<>> timers_;
};

SocketNetwork::SocketNetwork(SocketNetConfig config,
                             std::unique_ptr<sim::DelayModel> delay_model)
    : config_(std::move(config)),
      delay_model_(std::move(delay_model)),
      delay_rng_(config_.seed),
      local_mask_(config_.n, false),
      fin_received_(config_.n),
      pipeline_(net::EgressConfig{.n = config_.n,
                                  .delta = config_.delta,
                                  .per_round = false,
                                  .eager_ids = true,
                                  .messages_counter = "net.messages",
                                  .bytes_counter = "net.bytes",
                                  .delay_histogram = "net.delay_delta"}) {
  HYDRA_ASSERT(delay_model_ != nullptr);
  HYDRA_ASSERT(config_.n >= 1);
  HYDRA_ASSERT(config_.us_per_tick > 0.0);
  if (config_.local.empty()) {
    local_mask_.assign(config_.n, true);
  } else {
    for (const PartyId id : config_.local) {
      HYDRA_ASSERT_MSG(id < config_.n, "socket transport: local party id >= n");
      local_mask_[id] = true;
    }
  }
  mailboxes_.reserve(config_.n);
  out_queues_.reserve(config_.n);
  for (std::size_t i = 0; i < config_.n; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
    out_queues_.push_back(std::make_unique<Mailbox>());
    fin_received_[i].store(false, std::memory_order_relaxed);
  }
  out_fds_.assign(config_.n * config_.n, -1);
}

SocketNetwork::~SocketNetwork() = default;

Time SocketNetwork::now_ticks() const {
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - epoch_)
          .count();
  return static_cast<Time>(static_cast<double>(us) / config_.us_per_tick);
}

Clock::time_point SocketNetwork::tick_deadline(Time at) const {
  return epoch_ + std::chrono::microseconds(
                      static_cast<std::int64_t>(static_cast<double>(at) *
                                                config_.us_per_tick) +
                      1);
}

void SocketNetwork::post(PartyId from, PartyId to, sim::Message msg) {
  HYDRA_ASSERT(to < config_.n);
  const bool self = from == to;
  const Time now = now_ticks();
  Duration base = 0;
  if (!self) {
    const std::lock_guard lock(delay_mutex_);
    base = delay_model_->delay(from, to, now, msg, delay_rng_);
  }
  // All egress policy lives in the shared net::EgressPipeline — the fault
  // injector acts here, at socket egress, so drop/dup/reorder/partition
  // plans shape the frame stream exactly as they shape the other backends'
  // queues. This function only schedules the surviving copies.
  const auto egress = pipeline_.on_send(from, to, msg, now, base, injector_);
  if (egress.copies == 0) return;  // crashed endpoint dropped it
  // Self-deliveries bypass the socket (local computation, same as both
  // in-process transports); everything else is queued for the party's
  // writer, which serializes the frame when its delay elapses. Item
  // convention on writer queues: `from` holds the DESTINATION.
  auto push_copy = [&](std::uint32_t idx, sim::Message&& m) {
    Mailbox::Item item{now + egress.delay[idx],
                       arrival_seq_.fetch_add(1, std::memory_order_relaxed),
                       egress.send_id, self ? from : to, std::move(m)};
    Mailbox& box = self ? *mailboxes_[to] : *out_queues_[from];
    box.push(std::move(item));
    HealthAtomics::raise(self ? health_.mailbox_hwm : health_.egress_hwm,
                         box.size());
  };
  if (egress.copies == 2) {
    sim::Message copy = msg;
    push_copy(0, std::move(msg));
    push_copy(1, std::move(copy));
    return;
  }
  push_copy(0, std::move(msg));
}

bool SocketNetwork::send_frame(int fd, std::mutex& mutex, const Bytes& body) {
  health_.frame_bytes_buckets[net::TransportHealth::bucket_of(body.size())]
      .fetch_add(1, std::memory_order_relaxed);
  // Flush latency is lock wait + kernel send() — under backpressure (full
  // socket buffers) this is where the stall shows up, which is exactly what
  // the histogram is for.
  const auto t0 = Clock::now();
  const bool ok = write_frame(fd, mutex, body);
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
  health_.flush_ns_buckets[net::TransportHealth::bucket_of(ns)].fetch_add(
      1, std::memory_order_relaxed);
  if (ok) health_.frames_sent.fetch_add(1, std::memory_order_relaxed);
  return ok;
}

bool SocketNetwork::flush_link(int fd, std::mutex& mutex, const Bytes& buffer,
                               std::uint32_t frames) {
  const auto t0 = Clock::now();
  bool ok;
  {
    const std::lock_guard lock(mutex);
    ok = write_all(fd, buffer.data(), buffer.size());
  }
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
  health_.flush_ns_buckets[net::TransportHealth::bucket_of(ns)].fetch_add(
      1, std::memory_order_relaxed);
  health_.flushes.fetch_add(1, std::memory_order_relaxed);
  if (ok) health_.frames_sent.fetch_add(frames, std::memory_order_relaxed);
  return ok;
}

net::TransportHealth SocketNetwork::snapshot_health() const {
  net::TransportHealth out;
  out.connect_attempts = health_.connect_attempts.load(std::memory_order_relaxed);
  out.connects = health_.connects.load(std::memory_order_relaxed);
  out.accepts = health_.accepts.load(std::memory_order_relaxed);
  out.frames_sent = health_.frames_sent.load(std::memory_order_relaxed);
  out.flushes = health_.flushes.load(std::memory_order_relaxed);
  out.frames_received = health_.frames_received.load(std::memory_order_relaxed);
  out.egress_hwm = health_.egress_hwm.load(std::memory_order_relaxed);
  out.mailbox_hwm = health_.mailbox_hwm.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < net::TransportHealth::kBuckets; ++i) {
    out.flush_ns_buckets[i] =
        health_.flush_ns_buckets[i].load(std::memory_order_relaxed);
    out.frame_bytes_buckets[i] =
        health_.frame_bytes_buckets[i].load(std::memory_order_relaxed);
  }
  return out;
}

void SocketNetwork::writer_loop(PartyId from) {
  const std::size_t n = config_.n;
  // Per-destination coalescing buffers, reused across flush windows: every
  // frame due in a window is appended length-prefixed to its link's buffer,
  // then each touched link gets ONE kernel send — under multi-instance load
  // thousands of tiny frames share a syscall instead of paying one each.
  std::vector<Bytes> buffers(n);
  std::vector<std::uint32_t> frames(n, 0);
  std::vector<PartyId> touched;
  for (;;) {
    auto item = out_queues_[from]->pop_due([this] { return now_ticks(); },
                                           [this](Time at) { return tick_deadline(at); },
                                           kTimeInfinity);
    if (!item) return;  // queue closed: shutdown
    const Time now = now_ticks();
    for (;;) {
      const PartyId to = item->from;  // destination, by writer-queue convention
      if (out_fds_[from * n + to] >= 0) {
        const Bytes body = wire::encode_msg(from, to, item->cause, item->msg);
        // Per-frame size accounting happens at append; the flush-latency
        // histogram covers the whole coalesced write (flush_link).
        health_.frame_bytes_buckets[net::TransportHealth::bucket_of(body.size())]
            .fetch_add(1, std::memory_order_relaxed);
        Bytes& buffer = buffers[to];
        const auto len = static_cast<std::uint32_t>(body.size());
        for (int i = 0; i < 4; ++i) {
          buffer.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
        }
        buffer.insert(buffer.end(), body.begin(), body.end());
        if (frames[to]++ == 0) touched.push_back(to);
      }
      // Drain every sibling already due so it rides the same flush. The
      // non-blocking probe keeps delay semantics exact: a frame whose
      // deadline is still in the future waits for its own window.
      auto next = out_queues_[from]->try_pop_due(now);
      if (!next) break;
      item = std::move(next);
    }
    for (const PartyId to : touched) {
      // A peer that already sent its FIN may have finished and closed its
      // socket: a failed write to it is the normal end of a run, not an
      // error worth reporting.
      if (!flush_link(out_fds_[from * n + to], *link_mutexes_[from * n + to],
                      buffers[to], frames[to]) &&
          !stop_.load(std::memory_order_acquire) &&
          !fin_received_[to].load(std::memory_order_acquire)) {
        HYDRA_LOG_ERROR("socket_net: write to party %u failed (%s)", to,
                        std::strerror(errno));
      }
      buffers[to].clear();
      frames[to] = 0;
    }
    touched.clear();
  }
}

void SocketNetwork::reader_loop(int fd, PartyId bound_from, PartyId local_to) {
  const std::size_t n = config_.n;
  Bytes body;
  while (!stop_.load(std::memory_order_acquire)) {
    switch (read_frame(fd, body)) {
      case ReadFrame::kEof:
        return;  // orderly close at a frame boundary
      case ReadFrame::kBad:
        // Framing error — the stream is desynchronized; nothing after this
        // point can be trusted, so the connection is poisoned and closed.
        decode_dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
      case ReadFrame::kOk:
        break;
    }
    auto frame = wire::decode_frame(body);
    if (!frame) {
      decode_dropped_.fetch_add(1, std::memory_order_relaxed);
      return;  // parse failure: also a poisoned stream
    }
    health_.frames_received.fetch_add(1, std::memory_order_relaxed);
    switch (frame->type) {
      case wire::FrameType::kMsg: {
        // Authenticated-sender enforcement: the connection speaks for
        // exactly the PartyId it bound at handshake. A frame claiming any
        // other identity is dropped and counted — the connection survives
        // (one forged frame must not censor the honest traffic behind it).
        if (const char* why =
                wire::validate_msg(frame->msg, bound_from, local_to, n,
                                   config_.instance_tag_limit)) {
          (std::strcmp(why, "auth") == 0 ? auth_dropped_ : decode_dropped_)
              .fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        sim::Message msg{frame->msg.key, frame->msg.kind,
                         std::move(frame->msg.payload)};
        mailboxes_[local_to]->push(
            Mailbox::Item{now_ticks(),
                          arrival_seq_.fetch_add(1, std::memory_order_relaxed),
                          frame->msg.seq, bound_from, std::move(msg)});
        HealthAtomics::raise(health_.mailbox_hwm, mailboxes_[local_to]->size());
        break;
      }
      case wire::FrameType::kFin:
        if (frame->fin.from == bound_from) {
          fin_received_[bound_from].store(true, std::memory_order_release);
        } else {
          auth_dropped_.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      case wire::FrameType::kHello:
        // A second handshake mid-stream is protocol misuse, not fatal.
        decode_dropped_.fetch_add(1, std::memory_order_relaxed);
        break;
    }
  }
}

SocketNetStats SocketNetwork::run(
    std::vector<std::unique_ptr<sim::IParty>>& parties,
    const std::function<bool(const sim::IParty&, PartyId)>& finished) {
  HYDRA_ASSERT(parties.size() == config_.n);
  const std::size_t n = config_.n;
  const std::uint64_t run_id = config_.seed;
  const bool all_local =
      std::all_of(local_mask_.begin(), local_mask_.end(), [](bool b) { return b; });

  // ---------------------------------------------------------- endpoints
  endpoints_ = config_.endpoints;
  if (endpoints_.empty()) {
    HYDRA_ASSERT_MSG(all_local,
                     "socket transport: self-assigned endpoints require every "
                     "party local (pass endpoints for serve/join mode)");
    if (config_.uds) {
      char tmpl[] = "/tmp/hydra-uds-XXXXXX";
      HYDRA_ASSERT_MSG(::mkdtemp(tmpl) != nullptr,
                       "socket transport: mkdtemp failed for uds endpoints");
      auto_tmpdir_ = tmpl;
      for (std::size_t i = 0; i < n; ++i) {
        endpoints_.push_back(auto_tmpdir_ + "/p" + std::to_string(i) + ".sock");
      }
    } else {
      endpoints_.assign(n, "127.0.0.1:0");
    }
  }
  HYDRA_ASSERT_MSG(endpoints_.size() == n,
                   "socket transport: endpoints must name every party");
  if (config_.uds) {
    // Last-resort check — the CLI validates user-supplied paths at parse
    // time; this catches programmatic callers before an inscrutable
    // bind/connect failure.
    for (const auto& endpoint : endpoints_) {
      const std::string error = validate_uds_endpoint(endpoint);
      HYDRA_ASSERT_MSG(error.empty(), error.c_str());
    }
  }
  link_mutexes_.clear();
  for (std::size_t i = 0; i < n * n; ++i) {
    link_mutexes_.push_back(std::make_unique<std::mutex>());
  }

  // ---------------------------------------------------------- listeners
  listen_fds_.assign(n, -1);
  for (PartyId id = 0; id < n; ++id) {
    if (!is_local(id)) continue;
    listen_fds_[id] = listen_on(endpoints_[id], config_.uds);
    HYDRA_ASSERT_MSG(listen_fds_[id] >= 0,
                     "socket transport: cannot listen on party endpoint");
  }

  // ----------------------------------------------------------- connects
  // Outbound links first: every connection sits in the peer's accept
  // backlog until its acceptor runs, so ordering is deadlock-free even when
  // every process does this sequentially. Multi-process peers may still be
  // starting up — hence the retry window.
  const auto setup_deadline =
      Clock::now() + std::chrono::milliseconds(std::max<std::int64_t>(
                         1000, config_.timeout_ms));
  for (PartyId from = 0; from < n; ++from) {
    if (!is_local(from)) continue;
    for (PartyId to = 0; to < n; ++to) {
      if (to == from) continue;
      const int fd = connect_retry(endpoints_[to], config_.uds, setup_deadline,
                                   health_.connect_attempts);
      HYDRA_ASSERT_MSG(fd >= 0, "socket transport: cannot connect to peer");
      health_.connects.fetch_add(1, std::memory_order_relaxed);
      const Bytes hello = wire::encode_hello(
          {.run_id = run_id, .from = from, .n = static_cast<std::uint32_t>(n)});
      HYDRA_ASSERT_MSG(send_frame(fd, *link_mutexes_[from * n + to], hello),
                       "socket transport: handshake write failed");
      out_fds_[from * n + to] = fd;
    }
  }

  // The protocol clock starts here: ticks elapsed during connection setup
  // would otherwise offset every timer and delay deadline.
  epoch_ = Clock::now();

  // ----------------------------------------------------------- acceptors
  // One acceptor per local listener; each accepted connection gets its own
  // thread that performs the HELLO handshake (under a receive timeout, so a
  // silent client cannot pin it) and then becomes the connection's reader,
  // bound to the claimed PartyId.
  auto handle_connection = [this, run_id, n](int fd, PartyId local_to) {
    set_recv_timeout(fd, 5);
    Bytes body;
    std::optional<wire::Frame> frame;
    if (read_frame(fd, body) == ReadFrame::kOk) frame = wire::decode_frame(body);
    // Wire-version mismatch gets its own actionable rejection: decode_frame
    // deliberately parses ANY version's HELLO (docs/DEPLOYMENT.md wire
    // contract) so this layer can tell the operator which side to upgrade
    // instead of silently dropping the peer.
    if (frame && frame->type == wire::FrameType::kHello &&
        frame->hello.version != wire::kVersion) {
      HYDRA_LOG_ERROR(
          "socket_net: peer party %u speaks wire version %u, this build "
          "speaks %u — upgrade the older side (mixed-version runs are not "
          "supported); rejecting connection",
          frame->hello.from, frame->hello.version, wire::kVersion);
      decode_dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (!frame || frame->type != wire::FrameType::kHello ||
        frame->hello.run_id != run_id || frame->hello.n != n ||
        frame->hello.from >= n) {
      decode_dropped_.fetch_add(1, std::memory_order_relaxed);
      return;  // never bound: no identity, no frames accepted
    }
    set_recv_timeout(fd, 0);
    health_.accepts.fetch_add(1, std::memory_order_relaxed);
    // The bound HELLO counts as received here; reader_loop counts the rest
    // (keeps frames_sent/frames_received symmetric on a healthy mesh).
    health_.frames_received.fetch_add(1, std::memory_order_relaxed);
    reader_loop(fd, frame->hello.from, local_to);
  };

  std::vector<std::thread> acceptors;
  for (PartyId id = 0; id < n; ++id) {
    if (!is_local(id)) continue;
    acceptors.emplace_back([this, id, &handle_connection] {
      for (;;) {
        const int fd = ::accept(listen_fds_[id], nullptr, nullptr);
        if (stop_.load(std::memory_order_acquire)) {
          if (fd >= 0) ::close(fd);
          return;
        }
        if (fd < 0) {
          if (errno == EINTR) continue;
          return;  // listener shut down
        }
        set_nodelay(fd, config_.uds);
        const std::lock_guard lock(conn_mutex_);
        conn_fds_.push_back(fd);
        conn_threads_.emplace_back(
            [fd, id, &handle_connection] { handle_connection(fd, id); });
      }
    });
  }

  // ------------------------------------------------------------- workers
  // Watchdog state and the worker loop mirror the thread transport
  // (transport/thread_net.cpp) — same progress accounting, same
  // crash-excusal, same timeout_detail format — per the backend-parity
  // contract for PartyProgress/timeout reporting.
  std::vector<std::atomic<bool>> done(n);
  std::vector<std::atomic<std::uint64_t>> handled(n);
  std::vector<std::atomic<Time>> last_progress(n);
  for (std::size_t i = 0; i < n; ++i) {
    done[i].store(false, std::memory_order_relaxed);
    handled[i].store(0, std::memory_order_relaxed);
    last_progress[i].store(0, std::memory_order_relaxed);
  }

  obs::Context* obs_ctx = obs::current_context();
  auto worker = [&, obs_ctx](PartyId id) {
    const obs::ScopedContext obs_scope(obs_ctx);
    HYDRA_PROF_SCOPE("transport.worker");
    SocketEnv env(this, id);
    sim::IParty& party = *parties[id];
    party.start(env);
    if (finished(party, id)) done[id].store(true, std::memory_order_release);

    while (!stop_.load(std::memory_order_acquire)) {
      const Time timer_at = env.next_timer();
      auto item = mailboxes_[id]->pop_due([this] { return now_ticks(); },
                                          [this](Time at) { return tick_deadline(at); },
                                          timer_at);
      if (stop_.load(std::memory_order_acquire)) break;
      bool progressed = false;
      if (item) {
        if (obs::enabled()) {
          net::DeliveryGate::dispatch(now_ticks(), item->from, id, item->msg,
                                      item->cause, [&] {
            party.on_message(env, item->from, item->msg);
          });
        } else {
          party.on_message(env, item->from, item->msg);
        }
        progressed = true;
      }
      const Time now = now_ticks();
      while (auto timer_id = env.pop_due_timer(now)) {
        HYDRA_PROF_SCOPE("transport.timer");
        party.on_timer(env, *timer_id);
        progressed = true;
      }
      if (progressed) {
        handled[id].fetch_add(1, std::memory_order_relaxed);
        last_progress[id].store(now_ticks(), std::memory_order_relaxed);
        if (!done[id].load(std::memory_order_relaxed) && finished(party, id)) {
          done[id].store(true, std::memory_order_release);
        }
      }
      // A finished party keeps relaying (ΠrBC echoes) until shutdown.
    }
  };

  std::vector<std::thread> workers;
  std::vector<std::thread> writers;
  for (PartyId id = 0; id < n; ++id) {
    if (!is_local(id)) continue;
    workers.emplace_back(worker, id);
    writers.emplace_back([this, id] { writer_loop(id); });
  }

  // ------------------------------------------------------------ watchdog
  auto crash_excused = [&](PartyId id) {
    if (injector_ == nullptr) return false;
    for (const auto& c : injector_->plan().crashes) {
      if (c.party == id && now_ticks() >= c.at) return true;
    }
    return false;
  };
  auto satisfied = [&](PartyId id) {
    return done[id].load(std::memory_order_acquire) || crash_excused(id);
  };

  obs::MonitorHost* mon = obs::enabled() ? obs::monitors() : nullptr;

  // Live telemetry: looked up once (context-scoped, obs/stats.hpp), then the
  // sampling thread pulls snapshots from live transport state. The provider
  // captures run()-local watchdog arrays by reference — it is removed below,
  // before any of that state dies.
  obs::StatsPublisher* stats_pub = obs::stats();
  if (stats_pub != nullptr) {
    stats_pub->set_provider([&, n](obs::StatsSnapshot& s) {
      s.messages = pipeline_.messages();
      s.bytes = pipeline_.bytes();
      s.auth_dropped = auth_dropped_.load(std::memory_order_relaxed);
      s.decode_dropped = decode_dropped_.load(std::memory_order_relaxed);
      for (PartyId id = 0; id < n; ++id) {
        if (!is_local(id)) continue;
        s.egress_depth += out_queues_[id]->size();
        s.mailbox_depth += mailboxes_[id]->size();
        obs::StatsSnapshot::Party p;
        p.id = id;
        p.finished = done[id].load(std::memory_order_acquire);
        p.events = handled[id].load(std::memory_order_relaxed);
        p.round = config_.delta > 0
                      ? static_cast<std::uint64_t>(
                            last_progress[id].load(std::memory_order_relaxed) /
                            config_.delta)
                      : 0;
        if (p.finished) ++s.decided;
        s.round = std::max(s.round, p.round);
        s.parties.push_back(p);
      }
    });
  }

  // Multi-process shutdown handshake: announce each local party's finish to
  // every remote party with a FIN frame (written directly, serialized with
  // the writer by the link mutex), and wait for the remotes' FINs before
  // stopping — a crash-windowed remote is excused, it can never FIN.
  std::vector<bool> fin_sent(n, false);
  auto announce_finished = [&] {
    if (all_local) return;
    for (PartyId id = 0; id < n; ++id) {
      if (!is_local(id) || fin_sent[id] || !done[id].load(std::memory_order_acquire)) {
        continue;
      }
      fin_sent[id] = true;
      const Bytes fin = wire::encode_fin(id);
      for (PartyId to = 0; to < n; ++to) {
        if (to == id || is_local(to)) continue;
        const int fd = out_fds_[id * n + to];
        if (fd >= 0) send_frame(fd, *link_mutexes_[id * n + to], fin);
      }
    }
  };

  const auto deadline = Clock::now() + std::chrono::milliseconds(config_.timeout_ms);
  bool timed_out = false;
  bool monitor_aborted = false;
  for (;;) {
    announce_finished();
    std::size_t ok = 0;
    std::size_t expected = 0;
    for (PartyId id = 0; id < n; ++id) {
      ++expected;
      if (is_local(id)) {
        ok += satisfied(id) ? 1 : 0;
      } else {
        ok += (fin_received_[id].load(std::memory_order_acquire) ||
               crash_excused(id))
                  ? 1
                  : 0;
      }
    }
    if (ok == expected) break;
    if (mon != nullptr && mon->abort_requested()) {
      monitor_aborted = true;
      break;
    }
    if (Clock::now() >= deadline) {
      timed_out = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The final heartbeat ("final":1) must sample the provider while the
  // watchdog state it captures is still alive, so the publisher stops HERE;
  // the harness's own stop() at run teardown is then an idempotent no-op.
  if (stats_pub != nullptr) {
    stats_pub->stop();
    stats_pub->set_provider(nullptr);
  }

  // ------------------------------------------------------------ shutdown
  stop_.store(true, std::memory_order_release);
  for (PartyId id = 0; id < n; ++id) {
    if (!is_local(id)) continue;
    mailboxes_[id]->close();
    out_queues_[id]->close();
  }
  // Order matters: silence the listeners and join the acceptors first, so
  // no connection can register after the wake-up sweep below.
  for (const int fd : listen_fds_) {
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
  for (auto& t : acceptors) t.join();
  {
    const std::lock_guard lock(conn_mutex_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  for (const int fd : out_fds_) {
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
  for (auto& t : workers) t.join();
  for (auto& t : writers) t.join();
  for (auto& t : conn_threads_) t.join();
  conn_threads_.clear();
  for (int& fd : conn_fds_) ::close(fd);
  conn_fds_.clear();
  for (int& fd : out_fds_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  for (PartyId id = 0; id < n; ++id) {
    if (listen_fds_[id] < 0) continue;
    ::close(listen_fds_[id]);
    if (config_.uds) ::unlink(endpoints_[id].c_str());
  }
  listen_fds_.clear();
  if (!auto_tmpdir_.empty()) {
    ::rmdir(auto_tmpdir_.c_str());
    auto_tmpdir_.clear();
  }

  // --------------------------------------------------------------- stats
  SocketNetStats stats;
  pipeline_.export_stats(stats);  // after join: relaxed counters are settled
  stats.timed_out = timed_out;
  stats.monitor_aborted = monitor_aborted;
  stats.wall_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - epoch_)
          .count();
  stats.frames_auth_dropped = auth_dropped_.load(std::memory_order_relaxed);
  stats.frames_decode_dropped = decode_dropped_.load(std::memory_order_relaxed);
  stats.health = snapshot_health();
  stats.progress.resize(n);
  for (PartyId id = 0; id < n; ++id) {
    auto& p = stats.progress[id];
    p.finished = is_local(id) ? done[id].load()
                              : fin_received_[id].load(std::memory_order_acquire);
    p.events = handled[id].load();
    p.last_progress = last_progress[id].load();
    p.crash_stopped =
        injector_ != nullptr && injector_->plan().crash_stop_at(id).has_value();
  }
  if (timed_out) {
    // Same who-stalled-and-why format as the thread transport, so timeout
    // triage reads identically across backends; remote parties that never
    // announced FIN get their own phrasing (their host reports the detail).
    std::ostringstream detail;
    const char* sep = "";
    for (PartyId id = 0; id < n; ++id) {
      const auto& p = stats.progress[id];
      if (crash_excused(id)) continue;
      if (is_local(id)) {
        if (p.finished) continue;
        detail << sep << "party " << id << ": unfinished after " << p.events
               << " events, last progress at tick " << p.last_progress;
      } else {
        if (p.finished) continue;
        detail << sep << "party " << id << ": remote, no FIN received";
      }
      sep = "; ";
    }
    stats.timeout_detail = detail.str();
    HYDRA_LOG_ERROR("socket_net: timeout — %s", stats.timeout_detail.c_str());
  }
  return stats;
}

}  // namespace hydra::transport
