#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/epoll.h>
#endif

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace net {

using coop::Status;
using SteadyClock = std::chrono::steady_clock;

namespace {

/// obs handles, resolved once (registration is idempotent by name).
struct NetMetrics {
  obs::Counter accepted;
  obs::Counter frames_in;
  obs::Counter frames_out;
  obs::Counter malformed;
  obs::Counter deadline_expired;
  obs::Counter quota_shed;
  obs::Counter batches;
  obs::Counter mutates;
  obs::Counter compactions;
  obs::Counter snapshot_chunks;
  obs::Counter draining_refused;
  obs::Counter errors_sent;
  obs::Counter idle_closed;
  obs::Counter stall_closed;
  obs::Gauge open_connections;
  obs::Gauge draining;
  obs::Histogram request_ns;

  static NetMetrics& get() {
    static NetMetrics m = [] {
      auto& r = obs::Registry::global();
      NetMetrics n;
      n.accepted = r.counter("net_server_connections_accepted_total",
                             "Connections accepted by the listener");
      n.frames_in = r.counter("net_server_frames_in_total",
                              "Complete frames received and decoded");
      n.frames_out = r.counter("net_server_frames_out_total",
                               "Response frames fully flushed to peers");
      n.malformed = r.counter(
          "net_server_malformed_frames_total",
          "Frames rejected by the decoder (truncated, length lie, CRC, "
          "bad magic/version); the connection is closed after a typed "
          "error");
      n.deadline_expired = r.counter(
          "net_server_deadline_expired_total",
          "Requests answered with a typed DEADLINE_EXCEEDED error "
          "(expired before dispatch or completed too late)");
      n.quota_shed = r.counter(
          "net_server_quota_shed_total",
          "Requests shed by per-tenant token buckets "
          "(RESOURCE_EXHAUSTED)");
      n.batches = r.counter("net_server_batches_served_total",
                            "Path/point batches answered successfully");
      n.mutates = r.counter(
          "net_server_mutates_applied_total",
          "MUTATE write batches applied and acked against dynamic "
          "collections");
      n.compactions = r.counter(
          "net_server_compactions_total",
          "COMPACT requests that ran a synchronous compaction cycle");
      n.snapshot_chunks = r.counter(
          "net_server_snapshot_chunks_total",
          "FETCH_SNAPSHOT chunks served from pinned snapshot mappings");
      n.draining_refused = r.counter(
          "net_server_draining_refused_total",
          "Batch/admin frames refused with UNAVAILABLE during drain");
      n.errors_sent = r.counter("net_server_errors_sent_total",
                                "Typed ERROR responses sent (all causes)");
      n.idle_closed = r.counter("net_server_idle_closed_total",
                                "Connections reaped by the idle timeout");
      n.stall_closed = r.counter(
          "net_server_stall_closed_total",
          "Connections reaped because the peer stopped reading "
          "responses (write stall)");
      n.open_connections = r.gauge("net_server_open_connections",
                                   "Currently open connections");
      n.draining = r.gauge("net_server_draining",
                           "1 while the server is in lame-duck drain");
      n.request_ns = r.histogram("net_server_request_ns",
                                 obs::latency_bounds_ns(),
                                 "Dispatch-to-response latency per frame");
      return n;
    }();
    return m;
  }
};

bool is_batch(MsgType t) {
  return t == MsgType::kPathBatch || t == MsgType::kPointBatch ||
         t == MsgType::kDynPathBatch;
}

/// Verbs honoured only inside the admin trust boundary.
bool is_admin(MsgType t) {
  return t == MsgType::kLoad || t == MsgType::kSwap ||
         t == MsgType::kUnload || t == MsgType::kDrain ||
         t == MsgType::kMutate || t == MsgType::kCompact;
}

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  (void)fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// The listener's poller token; connections are numbered from 1.
constexpr std::uint64_t kListenerToken = 0;
/// How long a serving thread waits before housekeeping on its own.
constexpr int kTickMs = 100;

/// Readiness with one-shot arming, shared by every serving thread: epoll
/// (EPOLLONESHOT) where available, poll() everywhere (and on Linux too
/// when COOPNET_FORCE_POLL=1, which the TSan CI job uses to cover the
/// fallback).  The wait that reports a registration disarms it, so one
/// thread owns that fd until it calls arm() again.  Each registration
/// carries a token that comes back with its events.  The wake pipe is
/// never disarmed: wake() interrupts one wait, and after stop() every
/// wait returns at once.
class Poller {
 public:
  struct Event {
    std::uint64_t token = 0;
    bool readable = false;
    bool writable = false;
    bool broken = false;  ///< HUP / ERR
  };

  ~Poller() {
    for (const int fd : {epfd_, wake_r_, wake_w_}) {
      if (fd >= 0) {
        ::close(fd);
      }
    }
  }

  [[nodiscard]] Status open() {
    int pipefd[2];
    if (::pipe(pipefd) != 0) {
      return Status::internal(std::string("pipe(): ") +
                              std::strerror(errno));
    }
    wake_r_ = pipefd[0];
    wake_w_ = pipefd[1];
    set_nonblocking(wake_r_);
    set_nonblocking(wake_w_);
#ifdef __linux__
    const char* force = std::getenv("COOPNET_FORCE_POLL");
    if (force == nullptr || force[0] == '\0' || force[0] == '0') {
      epfd_ = epoll_create1(EPOLL_CLOEXEC);
      epoll_event ev{};
      ev.events = EPOLLIN;  // level-triggered, never disarmed
      ev.data.u64 = kWakeToken;
      (void)epoll_ctl(epfd_, EPOLL_CTL_ADD, wake_r_, &ev);
    }
#endif
    return coop::OkStatus();
  }

  /// Arm `fd` for one event (registering it first when `add`).
  void arm(int fd, std::uint64_t token, bool want_write, bool add = false) {
#ifdef __linux__
    if (epfd_ >= 0) {
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLONESHOT | (want_write ? EPOLLOUT : 0u);
      ev.data.u64 = token;
      (void)epoll_ctl(epfd_, add ? EPOLL_CTL_ADD : EPOLL_CTL_MOD, fd, &ev);
      return;
    }
#endif
    std::lock_guard<std::mutex> lock(mu_);
    regs_[fd] = Reg{token, want_write, true};
    if (polling_) {
      wake();  // the leader's poll set predates this fd: make it re-poll
    }
  }

  void remove(int fd) {
#ifdef __linux__
    if (epfd_ >= 0) {
      (void)epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
      return;
    }
#endif
    std::lock_guard<std::mutex> lock(mu_);
    regs_.erase(fd);
  }

  /// One ready registration, now disarmed; false on a timeout, a wake or
  /// a stop.
  bool wait(Event& out, int timeout_ms) {
#ifdef __linux__
    if (epfd_ >= 0) {
      epoll_event ev{};
      if (epoll_wait(epfd_, &ev, 1, timeout_ms) != 1) {
        return false;
      }
      if (ev.data.u64 == kWakeToken) {
        drain_wake();
        return false;
      }
      out = Event{ev.data.u64, (ev.events & EPOLLIN) != 0,
                  (ev.events & EPOLLOUT) != 0,
                  (ev.events & (EPOLLERR | EPOLLHUP)) != 0};
      return true;
    }
#endif
    return wait_poll(out, timeout_ms);
  }

  void wake() {
    const char b = 1;
    (void)::write(wake_w_, &b, 1);
  }

  void stop() {
    stopped_.store(true, std::memory_order_release);
    wake();
    std::lock_guard<std::mutex> lock(mu_);
    cv_.notify_all();
  }

  [[nodiscard]] bool stopped() const {
    return stopped_.load(std::memory_order_acquire);
  }

 private:
  static constexpr std::uint64_t kWakeToken = ~std::uint64_t{0};

  void drain_wake() {
    std::uint8_t sink[256];
    while (::read(wake_r_, sink, sizeof(sink)) > 0) {
    }
    if (stopped()) {
      wake();  // the byte was the stop signal: pass it on to every waiter
    }
  }

  /// Leader/followers over poll(): one thread at a time polls the armed
  /// fds and takes the first ready one; the rest stay armed for the next
  /// leader.
  bool wait_poll(Event& out, int timeout_ms) {
    const std::chrono::milliseconds timeout(timeout_ms);
    std::unique_lock<std::mutex> lock(mu_);
    while (polling_ || stopped()) {
      if (stopped() ||
          cv_.wait_for(lock, timeout) == std::cv_status::timeout) {
        return false;
      }
    }
    std::vector<pollfd> pfds{pollfd{wake_r_, POLLIN, 0}};
    std::vector<std::uint64_t> tokens{kWakeToken};
    for (const auto& [fd, reg] : regs_) {
      if (reg.armed) {
        pfds.push_back(pollfd{
            fd, static_cast<short>(POLLIN | (reg.want_write ? POLLOUT : 0)),
            0});
        tokens.push_back(reg.token);
      }
    }
    polling_ = true;
    lock.unlock();
    const int n = ::poll(pfds.data(), pfds.size(), timeout_ms);
    lock.lock();
    polling_ = false;
    cv_.notify_one();
    bool found = false;
    for (std::size_t i = 1; n > 0 && !found && i < pfds.size(); ++i) {
      const auto it = regs_.find(pfds[i].fd);
      const short re = pfds[i].revents;
      // A registration removed (and its fd perhaps reused) mid-poll
      // shows up under a different token, or not at all: skip it.
      if (re == 0 || it == regs_.end() || !it->second.armed ||
          it->second.token != tokens[i]) {
        continue;
      }
      it->second.armed = false;
      out = Event{tokens[i], (re & POLLIN) != 0, (re & POLLOUT) != 0,
                  (re & (POLLERR | POLLHUP | POLLNVAL)) != 0};
      found = true;
    }
    if (n > 0 && pfds[0].revents != 0) {
      drain_wake();
    }
    return found;
  }

  int epfd_ = -1;
  int wake_r_ = -1;
  int wake_w_ = -1;
  std::atomic<bool> stopped_{false};

  // poll() fallback only.
  struct Reg {
    std::uint64_t token = 0;
    bool want_write = false;
    bool armed = false;
  };
  std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<int, Reg> regs_;
  bool polling_ = false;  ///< a leader is inside poll()
};

std::uint64_t steady_ns(SteadyClock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
}

}  // namespace

struct Server::Impl {
  Server* self = nullptr;
  ServerOptions opts;
  /// Decided once at bind time: loopback bind or explicit opt-in.
  bool admin_allowed = false;

  Poller poller;
  std::vector<std::thread> threads;

  /// A connection belongs to at most one serving thread at a time: the
  /// one whose wait reported it, until release() re-arms it.  The owner
  /// touches its fields unlocked; everyone else reads them under
  /// conns_mu, and only while the connection is not busy.
  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    std::vector<std::uint8_t> inbuf;
    std::deque<std::vector<std::uint8_t>> outq;
    std::size_t out_off = 0;
    SteadyClock::time_point last_activity{};
    SteadyClock::time_point stall_since{};
    bool busy = false;  ///< owned by a serving thread
    bool dead = false;  ///< peer gone or socket error: destroyed on release
    bool close_after_flush = false;
  };
  /// conns_mu guards the three below.  Connections are addressed by a
  /// monotonic id, not by fd: an event that raced a close must never
  /// land on a recycled fd of a different peer.
  std::mutex conns_mu;
  std::unordered_map<std::uint64_t, Conn> conns;
  std::uint64_t next_conn_id = 1;
  int listen_fd = -1;
  std::atomic<std::uint64_t> next_reap_ns{0};  ///< steady ns of next reap

  /// A frame cut from a connection's stream, stamped with its arrival;
  /// `response` holds its read-time refusal, or is empty until served.
  struct Cut {
    Frame frame;
    SteadyClock::time_point arrival{};
    std::vector<std::uint8_t> response;
  };

  std::mutex drain_mu;
  std::condition_variable drain_cv;
  bool drained = false;

  mutable std::mutex stats_mu;
  ServerStats stats;

  /// Count one event in stats() and, when given, in its obs counter.
  void bump(std::uint64_t ServerStats::* field,
            obs::Counter NetMetrics::* metric = nullptr) {
    if (metric != nullptr) {
      (NetMetrics::get().*metric).inc();
    }
    std::lock_guard<std::mutex> lock(stats_mu);
    ++(stats.*field);
  }

  // ---- response plumbing -------------------------------------------

  static std::vector<std::uint8_t> make_response(
      const FrameHeader& req, MsgType type,
      std::span<const std::uint8_t> payload) {
    FrameHeader h;
    h.type = static_cast<std::uint16_t>(static_cast<std::uint16_t>(type) |
                                        kResponseBit);
    h.request_id = req.request_id;
    h.tenant = req.tenant;
    return encode_frame(h, payload);
  }

  std::vector<std::uint8_t> error_frame(const FrameHeader& req,
                                        const Status& s) {
    bump(&ServerStats::errors_sent, &NetMetrics::errors_sent);
    if (s.code() == coop::StatusCode::kDeadlineExceeded) {
      bump(&ServerStats::deadline_expired, &NetMetrics::deadline_expired);
    }
    const std::vector<std::uint8_t> payload = encode(to_wire_error(s));
    return make_response(req, MsgType::kError, payload);
  }

  // ---- serving -----------------------------------------------------

  /// One of the `opts.workers` identical serving threads.
  void serve_loop() {
    Poller::Event ev;
    while (!poller.stopped()) {
      if (poller.wait(ev, kTickMs)) {
        if (ev.token == kListenerToken) {
          accept_ready();
        } else {
          serve_conn(ev);
        }
      }
      tick();
    }
  }

  /// Own the reported connection: read everything available, cut and
  /// admit its frames, answer them in order, flush, then hand it back.
  void serve_conn(const Poller::Event& ev) {
    Conn* conn = nullptr;
    {
      std::lock_guard<std::mutex> lock(conns_mu);
      const auto it = conns.find(ev.token);
      if (it == conns.end()) {
        return;  // reaped after its event fired
      }
      conn = &it->second;
      conn->busy = true;
    }
    if (ev.broken && !ev.readable) {
      conn->dead = true;
    } else if (ev.readable) {
      read_ready(*conn);
    }
    for (Cut& cut : cut_frames(*conn)) {
      if (conn->dead) {
        break;  // nobody left to answer
      }
      if (cut.response.empty()) {
        const SteadyClock::time_point t0 = SteadyClock::now();
        cut.response = process(cut);
        NetMetrics::get().request_ns.record(
            steady_ns(SteadyClock::now()) - steady_ns(t0));
      }
      queue_response(*conn, std::move(cut.response));
    }
    flush(*conn);
    release(*conn);
  }

  /// Give up ownership: destroy a dead or finished connection, or re-arm
  /// it (for writing too while responses are queued).
  void release(Conn& conn) {
    std::lock_guard<std::mutex> lock(conns_mu);
    conn.busy = false;
    if (conn.dead || (conn.close_after_flush && conn.outq.empty())) {
      destroy_locked(conn.id);
    } else {
      poller.arm(conn.fd, conn.id, !conn.outq.empty());
    }
  }

  /// The absolute deadline of a request, derived once from its arrival
  /// time.  `deadline_ns` is an attacker-controlled u64: values near
  /// INT64_MAX would wrap the signed chrono rep negative and the addition
  /// would overflow (UB).  Anything above an hour is effectively
  /// unbounded, so saturate there.
  static std::optional<SteadyClock::time_point> deadline_of(const Cut& cut) {
    const std::uint64_t ns = cut.frame.header.deadline_ns;
    if (ns == 0) {
      return std::nullopt;
    }
    constexpr std::uint64_t kMaxDeadlineNs = 3'600'000'000'000ULL;  // 1 h
    return cut.arrival + std::chrono::nanoseconds(static_cast<std::int64_t>(
                             std::min(ns, kMaxDeadlineNs)));
  }

  /// Answer one frame: the server's own verbs here, everything else
  /// through the backend, bracketed by the deadline checks — an expired
  /// request gets a typed kDeadlineExceeded, never a late answer.
  std::vector<std::uint8_t> process(const Cut& cut) {
    const FrameHeader& h = cut.frame.header;
    const auto type = static_cast<MsgType>(h.type);
    switch (type) {
      case MsgType::kHealth: {
        HealthResponse resp;
        resp.draining = self->draining() ? 1 : 0;
        resp.collections = self->backend_->health();
        return make_response(h, type, encode(resp));
      }
      case MsgType::kMetrics: {
        const std::string text =
            obs::to_prometheus(obs::Registry::global().scrape());
        return make_response(
            h, type,
            std::span<const std::uint8_t>(
                reinterpret_cast<const std::uint8_t*>(text.data()),
                text.size()));
      }
      case MsgType::kError:
        return error_frame(h, Status::invalid_argument(
                                  "ERROR is a response type, not a "
                                  "request"));
      default:
        break;
    }
    if (is_admin(type) && !admin_allowed) {
      // Writes and compactions share the admin trust boundary: the wire
      // carries no authentication, and every one of these verbs loads
      // server-side paths or mutates served state.
      return error_frame(
          h, Status::permission_denied(
                 "admin frames are disabled on non-loopback binds; "
                 "restart with enable_remote_admin to accept "
                 "LOAD/SWAP/UNLOAD/DRAIN/MUTATE/COMPACT from remote "
                 "peers"));
    }
    if (type == MsgType::kDrain) {
      if (auto req = decode_admin_request(cut.frame.payload, opts.limits);
          !req.ok()) {
        return error_frame(h, req.status());
      }
      self->begin_drain();
      return make_response(h, type, encode(AdminResponse{}));
    }
    const Request req{h, cut.frame.payload, opts.limits, deadline_of(cut)};
    const bool batch = is_batch(type);
    if (req.deadline && (batch || type == MsgType::kMutate) &&
        SteadyClock::now() >= *req.deadline) {
      return error_frame(h, expired(req, "before dispatch"));
    }
    auto reply = self->backend_->serve(req);
    if (!reply.ok()) {
      return error_frame(h, reply.status());
    }
    if (batch && req.deadline && SteadyClock::now() >= *req.deadline) {
      return error_frame(
          h, expired(req, "during serving (late answer suppressed)"));
    }
    count_served(type);
    return make_response(h, type, *reply);
  }

  void count_served(MsgType type) {
    switch (type) {
      case MsgType::kPathBatch:
      case MsgType::kPointBatch:
      case MsgType::kDynPathBatch:
        bump(&ServerStats::batches_served, &NetMetrics::batches);
        break;
      case MsgType::kMutate:
        bump(&ServerStats::mutates_applied, &NetMetrics::mutates);
        break;
      case MsgType::kCompact:
        bump(&ServerStats::compactions, &NetMetrics::compactions);
        break;
      case MsgType::kFetchSnapshot:
        bump(&ServerStats::snapshot_chunks_served, &NetMetrics::snapshot_chunks);
        break;
      default:
        break;
    }
  }

  /// Queue a response and opportunistically flush it (most responses fit
  /// the socket buffer).
  void queue_response(Conn& conn, std::vector<std::uint8_t> bytes) {
    if (conn.outq.empty()) {
      conn.stall_since = SteadyClock::now();
    }
    conn.outq.push_back(std::move(bytes));
    flush(conn);
  }

  /// Push queued bytes until the socket is full; a send error marks the
  /// connection dead.
  void flush(Conn& conn) {
    while (!conn.outq.empty()) {
      const std::vector<std::uint8_t>& front = conn.outq.front();
      const ssize_t n = ::send(conn.fd, front.data() + conn.out_off,
                               front.size() - conn.out_off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK) {
          conn.dead = true;
        }
        return;
      }
      if (n == 0) {
        return;  // send() contract says this cannot happen; don't spin
      }
      conn.out_off += static_cast<std::size_t>(n);
      // Any byte progress resets the stall clock: a slow-but-draining
      // reader of one large response must not be reaped as stalled.
      conn.stall_since = SteadyClock::now();
      if (conn.out_off == front.size()) {
        conn.outq.pop_front();
        conn.out_off = 0;
        bump(&ServerStats::frames_out, &NetMetrics::frames_out);
      }
    }
  }

  /// Close and forget connection `id`; the caller holds conns_mu.
  void destroy_locked(std::uint64_t id) {
    const auto it = conns.find(id);
    if (it == conns.end()) {
      return;
    }
    poller.remove(it->second.fd);
    ::close(it->second.fd);
    conns.erase(it);
    NetMetrics::get().open_connections.add(-1);
  }

  void accept_ready() {
    std::lock_guard<std::mutex> lock(conns_mu);
    if (listen_fd < 0) {
      return;  // closed by the drain since its event fired
    }
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        break;  // EAGAIN or transient error: try again next round
      }
      if (conns.size() >= opts.max_connections || self->draining()) {
        // Over budget (or lame duck): refuse at the door.  No frame has
        // been read, so there is nothing to answer — the close itself is
        // the signal.
        ::close(fd);
        bump(&ServerStats::rejected_overflow);
        continue;
      }
      set_nonblocking(fd);
      const int one = 1;
      (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      const std::uint64_t id = next_conn_id++;
      Conn& conn = conns[id];
      conn.fd = fd;
      conn.id = id;
      conn.last_activity = SteadyClock::now();
      poller.arm(fd, id, false, /*add=*/true);
      bump(&ServerStats::accepted, &NetMetrics::accepted);
      NetMetrics::get().open_connections.add(1);
    }
    poller.arm(listen_fd, kListenerToken, false);
  }

  /// Read everything available; a closed or failed socket marks the
  /// connection dead (ECONNRESET mid-batch included — never a crash).
  void read_ready(Conn& conn) {
    std::uint8_t buf[64 * 1024];
    ssize_t n = 0;
    while ((n = ::recv(conn.fd, buf, sizeof(buf), 0)) > 0) {
      conn.inbuf.insert(conn.inbuf.end(), buf, buf + n);
      conn.last_activity = SteadyClock::now();
      if (static_cast<std::size_t>(n) < sizeof(buf)) {
        return;
      }
    }
    conn.dead = n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
  }

  /// Cut every complete frame out of the reassembly buffer, stamping its
  /// arrival and running the read-time checks: drain and quota refusals
  /// are answered here, so admission and the deadline clock run at read
  /// time even for a pipelined burst served after it.  One malformed
  /// frame forfeits the stream.
  std::vector<Cut> cut_frames(Conn& conn) {
    std::vector<Cut> cuts;
    std::size_t off = 0;
    while (!conn.dead && !conn.close_after_flush &&
           conn.inbuf.size() - off >= sizeof(std::uint32_t)) {
      std::uint32_t prefix = 0;
      std::memcpy(&prefix, conn.inbuf.data() + off, sizeof(prefix));
      const std::size_t total = sizeof(prefix) + std::size_t{prefix};
      if (std::size_t{prefix} <
              sizeof(FrameHeader) + sizeof(std::uint32_t) ||
          total > opts.limits.max_frame_bytes) {
        cuts.push_back(reject_malformed(
            conn,
            Status::corrupted(
                "frame length prefix " + std::to_string(prefix) +
                " outside [" +
                std::to_string(sizeof(FrameHeader) + sizeof(std::uint32_t)) +
                ", " + std::to_string(opts.limits.max_frame_bytes) + ")")));
        break;
      }
      if (conn.inbuf.size() - off < total) {
        break;  // wait for the rest
      }
      auto frame = decode_frame(
          std::span<const std::uint8_t>(conn.inbuf.data() + off, total),
          opts.limits);
      off += total;
      if (!frame.ok()) {
        cuts.push_back(reject_malformed(conn, frame.status()));
        break;
      }
      bump(&ServerStats::frames_in, &NetMetrics::frames_in);
      cuts.push_back(admit(std::move(frame.value())));
    }
    if (conn.close_after_flush) {
      conn.inbuf.clear();  // stream condemned
    } else {
      conn.inbuf.erase(conn.inbuf.begin(),
                       conn.inbuf.begin() + static_cast<std::ptrdiff_t>(off));
    }
    return cuts;
  }

  Cut reject_malformed(Conn& conn, const Status& s) {
    bump(&ServerStats::malformed, &NetMetrics::malformed);
    conn.close_after_flush = true;
    FrameHeader anon;  // the offending header is untrusted: respond id 0
    return Cut{Frame{}, {}, error_frame(anon, s)};
  }

  /// Stamp a decoded frame's arrival, and refuse it (drain/quota) with a
  /// typed error or leave it to be served.
  Cut admit(Frame frame) {
    Cut cut{std::move(frame), SteadyClock::now(), {}};
    const FrameHeader& h = cut.frame.header;
    const auto type = static_cast<MsgType>(h.type);
    // MUTATE is admin-gated like LOAD/SWAP but also quota-charged like a
    // batch: a hot writer drains the same per-tenant bucket its reads
    // would, so a write storm sheds before the engine sees it.
    const bool charged = is_batch(type) || type == MsgType::kMutate;
    if (self->draining() &&
        (charged || (is_admin(type) && type != MsgType::kDrain))) {
      bump(&ServerStats::draining_refused, &NetMetrics::draining_refused);
      cut.response = error_frame(
          h, Status::unavailable(
                 "server is draining; no new batches accepted"));
    } else if (charged) {
      if (Status s = self->quotas_->admit(h.tenant, steady_ns(cut.arrival));
          !s.ok()) {
        bump(&ServerStats::quota_shed, &NetMetrics::quota_shed);
        cut.response = error_frame(h, s);
      }
    }
    return cut;
  }

  // ---- housekeeping ------------------------------------------------

  /// Run by every serving thread after each wait: under drain, close the
  /// listener and check whether the last response flushed; once per
  /// tick, on whichever thread gets there first, reap idle and stalled
  /// connections.
  void tick() {
    if (self->draining()) {
      {
        std::lock_guard<std::mutex> lock(conns_mu);
        if (listen_fd >= 0) {
          poller.remove(listen_fd);
          ::close(listen_fd);
          listen_fd = -1;
          NetMetrics::get().draining.set(1);
        }
      }
      check_drained();
    }
    const std::uint64_t now = steady_ns(SteadyClock::now());
    std::uint64_t due = next_reap_ns.load(std::memory_order_relaxed);
    if (now >= due &&
        next_reap_ns.compare_exchange_strong(
            due, now + std::uint64_t{kTickMs} * 1'000'000)) {
      reap_timers();
    }
  }

  void reap_timers() {
    const auto now = SteadyClock::now();
    std::lock_guard<std::mutex> lock(conns_mu);
    std::vector<std::uint64_t> doomed;
    for (const auto& [id, conn] : conns) {
      if (conn.busy) {
        continue;
      }
      if (conn.outq.empty() && now - conn.last_activity > opts.idle_timeout) {
        bump(&ServerStats::idle_closed, &NetMetrics::idle_closed);
        doomed.push_back(id);
      } else if (!conn.outq.empty() &&
                 now - conn.stall_since > opts.write_stall_timeout) {
        bump(&ServerStats::stall_closed, &NetMetrics::stall_closed);
        doomed.push_back(id);
      }
    }
    for (const std::uint64_t id : doomed) {
      destroy_locked(id);
    }
  }

  /// Drained: no connection is being served and every response flushed.
  void check_drained() {
    {
      std::lock_guard<std::mutex> lock(conns_mu);
      for (const auto& [id, conn] : conns) {
        if (conn.busy || !conn.outq.empty()) {
          return;
        }
      }
    }
    {
      std::lock_guard<std::mutex> lock(drain_mu);
      drained = true;
    }
    drain_cv.notify_all();
  }
};

coop::Expected<std::unique_ptr<Server>> Server::start(ServerOptions opts) {
  auto backend = std::make_shared<CollectionBackend>(opts.engine_threads,
                                                     opts.frontend);
  CollectionBackend* collections = backend.get();
  auto server = start(std::move(opts), std::move(backend));
  if (server.ok()) {
    server.value()->collection_backend_ = collections;
  }
  return server;
}

coop::Expected<std::unique_ptr<Server>> Server::start(
    ServerOptions opts, std::shared_ptr<Backend> backend) {
  std::unique_ptr<Server> server(new Server());
  server->backend_ = std::move(backend);
  server->quotas_ = std::make_unique<TenantQuotas>(opts.quota);
  auto impl = std::make_unique<Impl>();
  impl->self = server.get();
  impl->opts = opts;

  impl->listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (impl->listen_fd < 0) {
    return Status::internal(std::string("socket(): ") +
                            std::strerror(errno));
  }
  const int one = 1;
  (void)setsockopt(impl->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one,
                   sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts.port);
  if (inet_pton(AF_INET, opts.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(impl->listen_fd);
    return Status::invalid_argument("bad bind address '" +
                                    opts.bind_address + "'");
  }
  // Admin verbs are unauthenticated, so only a 127/8 bind (where every
  // peer is already on the box) honours them without the explicit opt-in.
  impl->admin_allowed =
      opts.enable_remote_admin ||
      (ntohl(addr.sin_addr.s_addr) >> 24) == 127u;
  if (::bind(impl->listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const Status s = Status::internal(std::string("bind(): ") +
                                      std::strerror(errno));
    ::close(impl->listen_fd);
    return s;
  }
  if (::listen(impl->listen_fd, 128) != 0) {
    const Status s = Status::internal(std::string("listen(): ") +
                                      std::strerror(errno));
    ::close(impl->listen_fd);
    return s;
  }
  socklen_t len = sizeof(addr);
  (void)getsockname(impl->listen_fd, reinterpret_cast<sockaddr*>(&addr),
                    &len);
  server->port_ = ntohs(addr.sin_port);
  set_nonblocking(impl->listen_fd);

  if (Status s = impl->poller.open(); !s.ok()) {
    ::close(impl->listen_fd);
    return s;
  }
  impl->poller.arm(impl->listen_fd, kListenerToken, false, /*add=*/true);

  const std::size_t nthreads = std::max<std::size_t>(1, opts.workers);
  impl->threads.reserve(nthreads);
  for (std::size_t i = 0; i < nthreads; ++i) {
    impl->threads.emplace_back([impl = impl.get()] { impl->serve_loop(); });
  }

  server->impl_ = std::move(impl);
  return server;
}

Server::~Server() { stop(); }

void Server::begin_drain() {
  if (draining_.exchange(true, std::memory_order_acq_rel)) {
    return;  // idempotent
  }
  if (impl_ != nullptr) {
    impl_->poller.wake();
  }
}

bool Server::wait_drained(std::chrono::nanoseconds timeout) {
  if (impl_ == nullptr) {
    return true;
  }
  std::unique_lock<std::mutex> lock(impl_->drain_mu);
  return impl_->drain_cv.wait_for(lock, timeout,
                                  [&] { return impl_->drained; });
}

void Server::stop() {
  if (impl_ == nullptr) {
    return;
  }
  impl_->poller.stop();
  for (std::thread& t : impl_->threads) {
    t.join();
  }
  // Hard stop, with every serving thread gone: close everything still
  // open.
  if (impl_->listen_fd >= 0) {
    ::close(impl_->listen_fd);
  }
  while (!impl_->conns.empty()) {
    impl_->destroy_locked(impl_->conns.begin()->first);
  }
  impl_.reset();
}

ServerStats Server::stats() const {
  if (impl_ == nullptr) {
    return {};
  }
  std::lock_guard<std::mutex> lock(impl_->stats_mu);
  return impl_->stats;
}

}  // namespace net
