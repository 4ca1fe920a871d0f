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

/// Readiness abstraction: epoll where available, poll() everywhere (and
/// on Linux too when COOPNET_FORCE_POLL=1, which CI uses to cover the
/// fallback).  The fd set is tiny (hundreds), so the poll fallback's
/// O(n) rebuild per wait is fine.
class Poller {
 public:
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    bool broken = false;  ///< HUP / ERR
  };

  Poller() {
#ifdef __linux__
    const char* force = std::getenv("COOPNET_FORCE_POLL");
    if (force == nullptr || force[0] == '\0' || force[0] == '0') {
      epfd_ = epoll_create1(EPOLL_CLOEXEC);
    }
#endif
  }
  ~Poller() {
#ifdef __linux__
    if (epfd_ >= 0) {
      ::close(epfd_);
    }
#endif
  }

  void add(int fd, bool want_write) {
    want_write_[fd] = want_write;
#ifdef __linux__
    if (epfd_ >= 0) {
      epoll_event ev = make_event(fd, want_write);
      (void)epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev);
    }
#endif
  }

  void update(int fd, bool want_write) {
    want_write_[fd] = want_write;
#ifdef __linux__
    if (epfd_ >= 0) {
      epoll_event ev = make_event(fd, want_write);
      (void)epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev);
    }
#endif
  }

  void remove(int fd) {
    want_write_.erase(fd);
#ifdef __linux__
    if (epfd_ >= 0) {
      (void)epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
    }
#endif
  }

  void wait(std::vector<Event>& out, int timeout_ms) {
    out.clear();
#ifdef __linux__
    if (epfd_ >= 0) {
      epoll_event evs[64];
      const int n = epoll_wait(epfd_, evs, 64, timeout_ms);
      for (int i = 0; i < n; ++i) {
        Event e;
        e.fd = static_cast<int>(evs[i].data.fd);
        e.readable = (evs[i].events & EPOLLIN) != 0;
        e.writable = (evs[i].events & EPOLLOUT) != 0;
        e.broken = (evs[i].events & (EPOLLERR | EPOLLHUP)) != 0;
        out.push_back(e);
      }
      return;
    }
#endif
    std::vector<pollfd> pfds;
    pfds.reserve(want_write_.size());
    for (const auto& [fd, ww] : want_write_) {
      pollfd p{};
      p.fd = fd;
      p.events = static_cast<short>(POLLIN | (ww ? POLLOUT : 0));
      pfds.push_back(p);
    }
    const int n = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (n <= 0) {
      return;
    }
    for (const pollfd& p : pfds) {
      if (p.revents == 0) {
        continue;
      }
      Event e;
      e.fd = p.fd;
      e.readable = (p.revents & POLLIN) != 0;
      e.writable = (p.revents & POLLOUT) != 0;
      e.broken = (p.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
      out.push_back(e);
    }
  }

 private:
#ifdef __linux__
  static epoll_event make_event(int fd, bool want_write) {
    epoll_event ev{};
    ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    return ev;
  }
  int epfd_ = -1;
#endif
  std::unordered_map<int, bool> want_write_;
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

  int listen_fd = -1;
  int wake_r = -1;
  int wake_w = -1;
  Poller poller;
  std::thread io_thread;
  std::vector<std::thread> worker_threads;

  /// Connections are addressed by a monotonic id, not by fd: a worker's
  /// response must never land on a recycled fd of a different peer.
  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    std::vector<std::uint8_t> inbuf;
    std::deque<std::vector<std::uint8_t>> outq;
    std::size_t out_off = 0;
    SteadyClock::time_point last_activity{};
    SteadyClock::time_point stall_since{};
    std::size_t inflight = 0;  ///< dispatched frames awaiting a response
    bool close_after_flush = false;
    bool want_write = false;
  };
  // IO-thread-only state.
  std::unordered_map<std::uint64_t, Conn> conns;
  std::unordered_map<int, std::uint64_t> fd_to_id;
  std::uint64_t next_conn_id = 1;

  struct Task {
    std::uint64_t conn_id = 0;
    Frame frame;
    SteadyClock::time_point arrival{};
  };
  std::mutex task_mu;
  std::condition_variable task_cv;
  std::deque<Task> tasks;
  std::size_t active_tasks = 0;  ///< popped, still being processed
  bool shutdown_workers = false;

  /// Worker -> IO thread: finished responses, routed by connection id.
  std::mutex out_mu;
  std::deque<std::pair<std::uint64_t, std::vector<std::uint8_t>>> outbox;

  std::mutex drain_mu;
  std::condition_variable drain_cv;
  bool drained = false;

  std::atomic<bool> stop_flag{false};

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

  void wake() {
    const char b = 1;
    (void)::write(wake_w, &b, 1);
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

  // ---- worker side -------------------------------------------------

  void worker_loop() {
    for (;;) {
      Task task;
      {
        std::unique_lock<std::mutex> lock(task_mu);
        task_cv.wait(lock,
                     [&] { return shutdown_workers || !tasks.empty(); });
        if (tasks.empty()) {
          return;  // shutdown with nothing left
        }
        task = std::move(tasks.front());
        tasks.pop_front();
        ++active_tasks;
      }
      const SteadyClock::time_point t0 = SteadyClock::now();
      std::vector<std::uint8_t> response = process(task);
      NetMetrics::get().request_ns.record(
          steady_ns(SteadyClock::now()) - steady_ns(t0));
      {
        std::lock_guard<std::mutex> lock(out_mu);
        outbox.emplace_back(task.conn_id, std::move(response));
      }
      {
        std::lock_guard<std::mutex> lock(task_mu);
        --active_tasks;
      }
      wake();
    }
  }

  /// The absolute deadline of a request, derived once from its arrival
  /// time.  `deadline_ns` is an attacker-controlled u64: values near
  /// INT64_MAX would wrap the signed chrono rep negative and the addition
  /// would overflow (UB).  Anything above an hour is effectively
  /// unbounded, so saturate there.
  static std::optional<SteadyClock::time_point> deadline_of(
      const Task& task) {
    const std::uint64_t ns = task.frame.header.deadline_ns;
    if (ns == 0) {
      return std::nullopt;
    }
    constexpr std::uint64_t kMaxDeadlineNs = 3'600'000'000'000ULL;  // 1 h
    return task.arrival + std::chrono::nanoseconds(static_cast<std::int64_t>(
                              std::min(ns, kMaxDeadlineNs)));
  }

  /// Answer one frame: the server's own verbs here, everything else
  /// through the backend, bracketed by the deadline checks — an expired
  /// request gets a typed kDeadlineExceeded, never a late answer.
  std::vector<std::uint8_t> process(const Task& task) {
    const FrameHeader& h = task.frame.header;
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
      if (auto req = decode_admin_request(task.frame.payload, opts.limits);
          !req.ok()) {
        return error_frame(h, req.status());
      }
      self->begin_drain();
      return make_response(h, type, encode(AdminResponse{}));
    }
    const Request req{h, task.frame.payload, opts.limits, deadline_of(task)};
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

  // ---- IO-thread side ----------------------------------------------

  /// Queue a response and opportunistically flush it (most responses fit
  /// the socket buffer).  Returns false when the flush destroyed the
  /// connection (peer RST etc.) — `conn` is dangling then and the caller
  /// must stop touching it.
  [[nodiscard]] bool queue_response(Conn& conn,
                                    std::vector<std::uint8_t> bytes) {
    if (conn.outq.empty()) {
      conn.stall_since = SteadyClock::now();
    }
    conn.outq.push_back(std::move(bytes));
    return flush(conn);
  }

  /// Try to push queued bytes; arms EPOLLOUT when the socket is full.
  /// Returns false when the connection died.
  bool flush(Conn& conn) {
    while (!conn.outq.empty()) {
      const std::vector<std::uint8_t>& front = conn.outq.front();
      const ssize_t n = ::send(conn.fd, front.data() + conn.out_off,
                               front.size() - conn.out_off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          break;
        }
        destroy(conn.id);
        return false;
      }
      if (n == 0) {
        break;  // send() contract says this cannot happen; don't spin
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
    const bool want = !conn.outq.empty();
    if (want != conn.want_write) {
      conn.want_write = want;
      poller.update(conn.fd, want);
    }
    if (conn.outq.empty() && conn.close_after_flush && conn.inflight == 0) {
      destroy(conn.id);
      return false;
    }
    return true;
  }

  void destroy(std::uint64_t id) {
    const auto it = conns.find(id);
    if (it == conns.end()) {
      return;
    }
    poller.remove(it->second.fd);
    ::close(it->second.fd);
    fd_to_id.erase(it->second.fd);
    conns.erase(it);
    NetMetrics::get().open_connections.add(-1);
  }

  void accept_ready() {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        return;  // EAGAIN or transient error: try again next round
      }
      if (conns.size() >= opts.max_connections ||
          self->draining()) {
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
      Conn conn;
      conn.fd = fd;
      conn.id = next_conn_id++;
      conn.last_activity = SteadyClock::now();
      fd_to_id[fd] = conn.id;
      poller.add(fd, false);
      conns.emplace(conn.id, std::move(conn));
      bump(&ServerStats::accepted, &NetMetrics::accepted);
      NetMetrics::get().open_connections.add(1);
    }
  }

  /// Read everything available; false when the connection died.
  bool read_ready(Conn& conn) {
    std::uint8_t buf[64 * 1024];
    for (;;) {
      const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        conn.inbuf.insert(conn.inbuf.end(), buf, buf + n);
        conn.last_activity = SteadyClock::now();
        if (static_cast<std::size_t>(n) < sizeof(buf)) {
          break;
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      }
      // 0 = orderly close; other errors (ECONNRESET mid-batch included)
      // tear the connection down.  In-flight work finishes and its
      // response is dropped at routing time — never a crash.
      destroy(conn.id);
      return false;
    }
    return parse_frames(conn);
  }

  /// Cut complete frames out of the reassembly buffer; false when the
  /// connection died.  One malformed frame forfeits the stream.
  bool parse_frames(Conn& conn) {
    for (;;) {
      if (conn.close_after_flush) {
        conn.inbuf.clear();  // stream already condemned
        return true;
      }
      if (conn.inbuf.size() < sizeof(std::uint32_t)) {
        return true;
      }
      std::uint32_t prefix = 0;
      std::memcpy(&prefix, conn.inbuf.data(), sizeof(prefix));
      const std::size_t total = sizeof(prefix) + std::size_t{prefix};
      if (std::size_t{prefix} <
              sizeof(FrameHeader) + sizeof(std::uint32_t) ||
          total > opts.limits.max_frame_bytes) {
        return reject_malformed(
            conn, Status::corrupted(
                      "frame length prefix " + std::to_string(prefix) +
                      " outside [" +
                      std::to_string(sizeof(FrameHeader) +
                                     sizeof(std::uint32_t)) +
                      ", " + std::to_string(opts.limits.max_frame_bytes) +
                      ")"));
      }
      if (conn.inbuf.size() < total) {
        return true;  // wait for the rest
      }
      auto frame = decode_frame(
          std::span<const std::uint8_t>(conn.inbuf.data(), total),
          opts.limits);
      conn.inbuf.erase(conn.inbuf.begin(),
                       conn.inbuf.begin() +
                           static_cast<std::ptrdiff_t>(total));
      if (!frame.ok()) {
        return reject_malformed(conn, frame.status());
      }
      bump(&ServerStats::frames_in, &NetMetrics::frames_in);
      if (!dispatch(conn, std::move(frame.value()))) {
        return false;  // refusal flush hit a dead peer; conn is gone
      }
    }
  }

  bool reject_malformed(Conn& conn, const Status& s) {
    bump(&ServerStats::malformed, &NetMetrics::malformed);
    conn.inbuf.clear();
    conn.close_after_flush = true;
    FrameHeader anon;  // the offending header is untrusted: respond id 0
    return queue_response(conn, error_frame(anon, s));
  }

  /// Route a decoded frame: refuse (drain/quota) with a typed error, or
  /// hand it to the worker pool.  Returns false when the refusal's flush
  /// destroyed the connection — `conn` is dangling then and parse_frames
  /// must stop iterating on it.
  [[nodiscard]] bool dispatch(Conn& conn, Frame frame) {
    const auto now = SteadyClock::now();
    const auto type = static_cast<MsgType>(frame.header.type);
    // MUTATE is admin-gated like LOAD/SWAP but also quota-charged like a
    // batch: a hot writer drains the same per-tenant bucket its reads
    // would, so a write storm sheds before the engine sees it.
    const bool charged = is_batch(type) || type == MsgType::kMutate;
    if (self->draining() &&
        (charged || (is_admin(type) && type != MsgType::kDrain))) {
      bump(&ServerStats::draining_refused, &NetMetrics::draining_refused);
      return queue_response(conn,
                            error_frame(frame.header,
                                        Status::unavailable(
                                            "server is draining; no new "
                                            "batches accepted")));
    }
    if (charged) {
      if (Status s = self->quotas_->admit(frame.header.tenant,
                                          steady_ns(now));
          !s.ok()) {
        bump(&ServerStats::quota_shed, &NetMetrics::quota_shed);
        return queue_response(conn, error_frame(frame.header, s));
      }
    }
    ++conn.inflight;
    {
      std::lock_guard<std::mutex> lock(task_mu);
      tasks.push_back(Task{conn.id, std::move(frame), now});
    }
    task_cv.notify_one();
    return true;
  }

  void drain_outbox() {
    std::deque<std::pair<std::uint64_t, std::vector<std::uint8_t>>> batch;
    {
      std::lock_guard<std::mutex> lock(out_mu);
      batch.swap(outbox);
    }
    for (auto& [id, bytes] : batch) {
      const auto it = conns.find(id);
      if (it == conns.end()) {
        continue;  // peer died mid-batch; drop the orphaned response
      }
      if (it->second.inflight > 0) {
        --it->second.inflight;
      }
      // A false return destroyed (and erased) the connection; `it` is
      // invalid either way after this call and is re-found next round.
      (void)queue_response(it->second, std::move(bytes));
    }
  }

  void reap_timers() {
    const auto now = SteadyClock::now();
    std::vector<std::uint64_t> doomed;
    for (auto& [id, conn] : conns) {
      if (conn.inflight == 0 && conn.outq.empty() &&
          now - conn.last_activity > opts.idle_timeout) {
        bump(&ServerStats::idle_closed, &NetMetrics::idle_closed);
        doomed.push_back(id);
      } else if (!conn.outq.empty() &&
                 now - conn.stall_since > opts.write_stall_timeout) {
        bump(&ServerStats::stall_closed, &NetMetrics::stall_closed);
        doomed.push_back(id);
      }
    }
    for (const std::uint64_t id : doomed) {
      destroy(id);
    }
  }

  void check_drained() {
    if (!self->draining()) {
      return;
    }
    bool queues_empty;
    {
      std::lock_guard<std::mutex> lock(task_mu);
      queues_empty = tasks.empty() && active_tasks == 0;
    }
    if (queues_empty) {
      std::lock_guard<std::mutex> lock(out_mu);
      queues_empty = outbox.empty();
    }
    if (!queues_empty) {
      return;
    }
    for (const auto& [id, conn] : conns) {
      if (conn.inflight != 0 || !conn.outq.empty()) {
        return;
      }
    }
    {
      std::lock_guard<std::mutex> lock(drain_mu);
      drained = true;
    }
    drain_cv.notify_all();
  }

  void io_loop() {
    std::vector<Poller::Event> events;
    bool listening = true;
    while (!stop_flag.load(std::memory_order_acquire)) {
      if (listening && self->draining()) {
        poller.remove(listen_fd);
        ::close(listen_fd);
        listen_fd = -1;
        listening = false;
        NetMetrics::get().draining.set(1);
      }
      drain_outbox();
      poller.wait(events, 100);
      for (const Poller::Event& e : events) {
        if (e.fd == wake_r) {
          std::uint8_t sink[256];
          while (::read(wake_r, sink, sizeof(sink)) > 0) {
          }
          continue;
        }
        if (listening && e.fd == listen_fd) {
          accept_ready();
          continue;
        }
        const auto fid = fd_to_id.find(e.fd);
        if (fid == fd_to_id.end()) {
          continue;
        }
        const std::uint64_t id = fid->second;
        Conn& conn = conns.at(id);
        if (e.broken && !e.readable) {
          destroy(id);
          continue;
        }
        if (e.readable && !read_ready(conn)) {
          continue;  // destroyed
        }
        if (e.writable) {
          const auto again = conns.find(id);
          if (again != conns.end()) {
            (void)flush(again->second);
          }
        }
      }
      reap_timers();
      check_drained();
    }
    // Hard stop: close everything still open.
    std::vector<std::uint64_t> ids;
    ids.reserve(conns.size());
    for (const auto& [id, conn] : conns) {
      ids.push_back(id);
    }
    for (const std::uint64_t id : ids) {
      destroy(id);
    }
    if (listening && listen_fd >= 0) {
      ::close(listen_fd);
      listen_fd = -1;
    }
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

  int pipefd[2];
  if (::pipe(pipefd) != 0) {
    ::close(impl->listen_fd);
    return Status::internal(std::string("pipe(): ") +
                            std::strerror(errno));
  }
  impl->wake_r = pipefd[0];
  impl->wake_w = pipefd[1];
  set_nonblocking(impl->wake_r);
  set_nonblocking(impl->wake_w);
  impl->poller.add(impl->wake_r, false);
  impl->poller.add(impl->listen_fd, false);

  const std::size_t nworkers = std::max<std::size_t>(1, opts.workers);
  impl->worker_threads.reserve(nworkers);
  for (std::size_t i = 0; i < nworkers; ++i) {
    impl->worker_threads.emplace_back(
        [impl = impl.get()] { impl->worker_loop(); });
  }
  impl->io_thread = std::thread([impl = impl.get()] { impl->io_loop(); });

  server->impl_ = std::move(impl);
  return server;
}

Server::~Server() { stop(); }

void Server::begin_drain() {
  if (draining_.exchange(true, std::memory_order_acq_rel)) {
    return;  // idempotent
  }
  if (impl_ != nullptr) {
    impl_->wake();
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
  impl_->stop_flag.store(true, std::memory_order_release);
  impl_->wake();
  if (impl_->io_thread.joinable()) {
    impl_->io_thread.join();
  }
  {
    std::lock_guard<std::mutex> lock(impl_->task_mu);
    impl_->shutdown_workers = true;
  }
  impl_->task_cv.notify_all();
  for (std::thread& t : impl_->worker_threads) {
    if (t.joinable()) {
      t.join();
    }
  }
  if (impl_->wake_r >= 0) {
    ::close(impl_->wake_r);
    ::close(impl_->wake_w);
    impl_->wake_r = impl_->wake_w = -1;
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
