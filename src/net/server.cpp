#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
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

/// Readiness with one-shot arming (EPOLLONESHOT), shared by every
/// serving thread.  The wait that reports a registration disarms it, so
/// one thread owns that fd until it calls arm() again.  Each registration
/// carries a token that comes back with its events.  The wake pipe is
/// level-triggered and never disarmed: wake() interrupts one wait, and
/// after stop() every wait returns at once.
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
    epfd_ = epoll_create1(EPOLL_CLOEXEC);
    if (epfd_ < 0) {
      return Status::internal(std::string("epoll_create1(): ") +
                              std::strerror(errno));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeToken;
    (void)epoll_ctl(epfd_, EPOLL_CTL_ADD, wake_r_, &ev);
    return coop::OkStatus();
  }

  /// Arm `fd` for one event (registering it first when `add`).
  void arm(int fd, std::uint64_t token, bool want_write, bool add = false) {
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLONESHOT | (want_write ? EPOLLOUT : 0u);
    ev.data.u64 = token;
    (void)epoll_ctl(epfd_, add ? EPOLL_CTL_ADD : EPOLL_CTL_MOD, fd, &ev);
  }

  void remove(int fd) { (void)epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr); }

  /// One ready registration, now disarmed; false on a timeout, a wake or
  /// a stop.
  bool wait(Event& out, int timeout_ms) {
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

  void wake() {
    const char b = 1;
    (void)::write(wake_w_, &b, 1);
  }

  void stop() {
    stopped_.store(true, std::memory_order_release);
    wake();
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

  int epfd_ = -1;
  int wake_r_ = -1;
  int wake_w_ = -1;
  std::atomic<bool> stopped_{false};
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
    /// Received bytes; requests are checked and served where they lie.
    std::vector<std::uint8_t> inbuf;
    /// Responses framed in place, sent from out_off on.  Frames before
    /// out_done are wholly sent; flush() gives them back once they fill
    /// half the buffer, so it holds at most about twice the unsent bytes.
    /// Cleared (its capacity kept) once everything in it is sent.
    std::vector<std::uint8_t> outbuf;
    std::size_t out_off = 0;
    std::size_t out_done = 0;
    SteadyClock::time_point last_activity{};
    SteadyClock::time_point stall_since{};
    bool busy = false;  ///< owned by a serving thread
    bool dead = false;  ///< peer gone or socket error: destroyed on release
    bool close_after_flush = false;

    [[nodiscard]] bool sending() const { return !outbuf.empty(); }
  };
  /// conns_mu guards the three below.  Connections are addressed by a
  /// monotonic id, not by fd: an event that raced a close must never
  /// land on a recycled fd of a different peer.
  std::mutex conns_mu;
  std::unordered_map<std::uint64_t, Conn> conns;
  std::uint64_t next_conn_id = 1;
  int listen_fd = -1;
  std::atomic<std::uint64_t> next_reap_ns{0};  ///< steady ns of next reap

  /// A checked frame of a connection's read buffer: where it lies, its
  /// header, its arrival, and its read-time refusal (OK until served).
  struct Cut {
    FrameHeader header;
    std::span<const std::uint8_t> payload;  ///< in the read buffer
    SteadyClock::time_point arrival{};
    Status refusal;
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
  //
  // A response is framed in place at the end of the connection's output
  // buffer: its prefix and header are reserved, the payload is written
  // after them, and seal() stamps both and appends the CRC trailer.

  /// Reserve the prefix and header of a response starting at `start`.
  static void begin(std::vector<std::uint8_t>& out, std::size_t start) {
    out.resize(start + kFrameHead);
  }

  /// Frame the payload written after begin(out, start) as the response
  /// of type `type` to `req`.
  static void seal(std::vector<std::uint8_t>& out, std::size_t start,
                   const FrameHeader& req, MsgType type) {
    FrameHeader h;
    h.type = static_cast<std::uint16_t>(static_cast<std::uint16_t>(type) |
                                        kResponseBit);
    h.request_id = req.request_id;
    h.tenant = req.tenant;
    seal_frame(h, out, start);
  }

  /// The response of type `type` to `req` carrying `payload`, at `start`.
  static void put_response(std::vector<std::uint8_t>& out, std::size_t start,
                           const FrameHeader& req, MsgType type,
                           std::span<const std::uint8_t> payload) {
    begin(out, start);
    out.insert(out.end(), payload.begin(), payload.end());
    seal(out, start, req, type);
  }

  /// A typed ERROR response to `req` at `start`, replacing anything
  /// written there.
  void error_frame(std::vector<std::uint8_t>& out, std::size_t start,
                   const FrameHeader& req, const Status& s) {
    bump(&ServerStats::errors_sent, &NetMetrics::errors_sent);
    if (s.code() == coop::StatusCode::kDeadlineExceeded) {
      bump(&ServerStats::deadline_expired, &NetMetrics::deadline_expired);
    }
    put_response(out, start, req, MsgType::kError, encode(to_wire_error(s)));
  }

  // ---- serving -----------------------------------------------------

  /// One of the `opts.workers` identical serving threads.
  void serve_loop() {
    Poller::Event ev;
    std::vector<Cut> cuts;  // reused across wakeups
    while (!poller.stopped()) {
      if (poller.wait(ev, kTickMs)) {
        if (ev.token == kListenerToken) {
          accept_ready();
        } else {
          serve_conn(ev, cuts);
        }
      }
      tick();
    }
  }

  /// Own the reported connection: read everything available, check and
  /// admit its frames, answer them in order from the read buffer, flush,
  /// then hand it back.
  void serve_conn(const Poller::Event& ev, std::vector<Cut>& cuts) {
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
    const std::size_t consumed = cut_frames(*conn, cuts);
    for (const Cut& cut : cuts) {
      if (conn->dead) {
        break;  // nobody left to answer
      }
      respond(*conn, cut);
    }
    if (conn->close_after_flush) {
      conn->inbuf.clear();  // stream condemned
    } else {
      conn->inbuf.erase(
          conn->inbuf.begin(),
          conn->inbuf.begin() + static_cast<std::ptrdiff_t>(consumed));
    }
    flush(*conn);
    release(*conn);
  }

  /// Append the response to `cut` to the connection's output buffer and
  /// opportunistically flush it (most responses fit the socket buffer).
  void respond(Conn& conn, const Cut& cut) {
    std::vector<std::uint8_t>& out = conn.outbuf;
    const std::size_t start = out.size();
    if (start == 0) {
      conn.stall_since = SteadyClock::now();
    }
    if (!cut.refusal.ok()) {
      error_frame(out, start, cut.header, cut.refusal);
    } else {
      const SteadyClock::time_point t0 = SteadyClock::now();
      process(cut, out);
      NetMetrics::get().request_ns.record(steady_ns(SteadyClock::now()) -
                                          steady_ns(t0));
    }
    flush(conn);
  }

  /// Give up ownership: destroy a dead or finished connection, or re-arm
  /// it (for writing too while responses are queued).
  void release(Conn& conn) {
    std::lock_guard<std::mutex> lock(conns_mu);
    conn.busy = false;
    if (conn.dead || (conn.close_after_flush && !conn.sending())) {
      destroy_locked(conn.id);
    } else {
      poller.arm(conn.fd, conn.id, conn.sending());
    }
  }

  /// The absolute deadline of a request, derived once from its arrival
  /// time.  `deadline_ns` is an attacker-controlled u64: values near
  /// INT64_MAX would wrap the signed chrono rep negative and the addition
  /// would overflow (UB).  Anything above an hour is effectively
  /// unbounded, so saturate there.
  static std::optional<SteadyClock::time_point> deadline_of(const Cut& cut) {
    const std::uint64_t ns = cut.header.deadline_ns;
    if (ns == 0) {
      return std::nullopt;
    }
    constexpr std::uint64_t kMaxDeadlineNs = 3'600'000'000'000ULL;  // 1 h
    return cut.arrival + std::chrono::nanoseconds(static_cast<std::int64_t>(
                             std::min(ns, kMaxDeadlineNs)));
  }

  /// Answer one frame, appending its response to `out`: the server's
  /// own verbs here, everything else through the backend, bracketed by
  /// the deadline checks — an expired request gets a typed
  /// kDeadlineExceeded, never a late answer.
  void process(const Cut& cut, std::vector<std::uint8_t>& out) {
    const std::size_t start = out.size();
    const FrameHeader& h = cut.header;
    const auto type = static_cast<MsgType>(h.type);
    switch (type) {
      case MsgType::kHealth: {
        HealthResponse resp;
        resp.draining = self->draining() ? 1 : 0;
        resp.collections = self->backend_->health();
        put_response(out, start, h, type, encode(resp));
        return;
      }
      case MsgType::kMetrics: {
        const std::string text =
            obs::to_prometheus(obs::Registry::global().scrape());
        put_response(out, start, h, type,
                     std::span<const std::uint8_t>(
                         reinterpret_cast<const std::uint8_t*>(text.data()),
                         text.size()));
        return;
      }
      case MsgType::kError:
        error_frame(out, start, h,
                    Status::invalid_argument("ERROR is a response type, not "
                                             "a request"));
        return;
      default:
        break;
    }
    if (is_admin(type) && !admin_allowed) {
      // Writes and compactions share the admin trust boundary: the wire
      // carries no authentication, and every one of these verbs loads
      // server-side paths or mutates served state.
      error_frame(out, start, h,
                  Status::permission_denied(
                      "admin frames are disabled on non-loopback binds; "
                      "restart with enable_remote_admin to accept "
                      "LOAD/SWAP/UNLOAD/DRAIN/MUTATE/COMPACT from remote "
                      "peers"));
      return;
    }
    if (type == MsgType::kDrain) {
      if (auto req = decode_admin_request(cut.payload, opts.limits);
          !req.ok()) {
        error_frame(out, start, h, req.status());
        return;
      }
      self->begin_drain();
      put_response(out, start, h, type, encode(AdminResponse{}));
      return;
    }
    const Request req{h, cut.payload, opts.limits, deadline_of(cut)};
    const bool batch = is_batch(type);
    if (req.deadline && (batch || type == MsgType::kMutate) &&
        SteadyClock::now() >= *req.deadline) {
      error_frame(out, start, h, expired(req, "before dispatch"));
      return;
    }
    begin(out, start);
    if (Status st = self->backend_->serve(req, out); !st.ok()) {
      error_frame(out, start, h, st);
      return;
    }
    if (batch && req.deadline && SteadyClock::now() >= *req.deadline) {
      error_frame(out, start, h,
                  expired(req, "during serving (late answer suppressed)"));
      return;
    }
    count_served(type);
    seal(out, start, h, type);
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

  /// Send buffered bytes until the socket is full, counting each frame
  /// once it is wholly sent; a send error marks the connection dead.
  void flush(Conn& conn) {
    send_some(conn);
    std::vector<std::uint8_t>& out = conn.outbuf;
    while (out.size() - conn.out_done >= sizeof(std::uint32_t)) {
      std::uint32_t prefix = 0;
      std::memcpy(&prefix, out.data() + conn.out_done, sizeof(prefix));
      const std::size_t end = conn.out_done + sizeof(prefix) + prefix;
      if (end > conn.out_off) {
        break;
      }
      conn.out_done = end;
      bump(&ServerStats::frames_out, &NetMetrics::frames_out);
    }
    if (conn.out_off == out.size()) {
      out.clear();
      conn.out_off = 0;
      conn.out_done = 0;
    } else if (conn.out_done * 2 >= out.size()) {
      // A peer that keeps a backlog never lets the buffer empty: give
      // the sent frames back, which costs at most the bytes sent since
      // the last time.
      out.erase(out.begin(),
                out.begin() + static_cast<std::ptrdiff_t>(conn.out_done));
      conn.out_off -= conn.out_done;
      conn.out_done = 0;
    }
  }

  void send_some(Conn& conn) {
    while (conn.out_off < conn.outbuf.size()) {
      const ssize_t n =
          ::send(conn.fd, conn.outbuf.data() + conn.out_off,
                 conn.outbuf.size() - conn.out_off, MSG_NOSIGNAL);
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

  /// Check every complete frame in the reassembly buffer where it lies
  /// into `cuts`, stamping its arrival and running the read-time checks:
  /// drain and quota refusals are decided here, so admission and the
  /// deadline clock run at read time even for a pipelined burst served
  /// after it.  One malformed frame forfeits the stream.  Returns the
  /// bytes the cuts cover; they stay in the buffer until served.
  std::size_t cut_frames(Conn& conn, std::vector<Cut>& cuts) {
    cuts.clear();
    const std::size_t cap =
        std::min<std::size_t>(opts.limits.max_frame_bytes, kAbsoluteMaxFrame);
    const std::vector<std::uint8_t>& in = conn.inbuf;
    std::size_t off = 0;
    while (!conn.dead && !conn.close_after_flush &&
           in.size() - off >= sizeof(std::uint32_t)) {
      std::uint32_t prefix = 0;
      std::memcpy(&prefix, in.data() + off, sizeof(prefix));
      const std::size_t total = sizeof(prefix) + std::size_t{prefix};
      if (std::size_t{prefix} <
              sizeof(FrameHeader) + sizeof(std::uint32_t) ||
          total > cap) {
        cuts.push_back(reject_malformed(
            conn,
            Status::corrupted(
                "frame length prefix " + std::to_string(prefix) +
                " outside [" +
                std::to_string(sizeof(FrameHeader) + sizeof(std::uint32_t)) +
                ", " + std::to_string(cap) + ")")));
        break;
      }
      if (in.size() - off < total) {
        break;  // wait for the rest
      }
      Cut cut;
      const std::uint8_t* frame = in.data() + off;
      std::memcpy(&cut.header, frame + sizeof(prefix), sizeof(cut.header));
      cut.payload = {frame + kFrameHead, total - kFrameOverhead};
      std::uint32_t trailer = 0;
      std::memcpy(&trailer, frame + total - sizeof(trailer), sizeof(trailer));
      off += total;
      if (Status st = check_frame(prefix, cut.header, cut.payload, trailer);
          !st.ok()) {
        cuts.push_back(reject_malformed(conn, st));
        break;
      }
      bump(&ServerStats::frames_in, &NetMetrics::frames_in);
      admit(cut);
      cuts.push_back(std::move(cut));
    }
    return off;
  }

  Cut reject_malformed(Conn& conn, const Status& s) {
    bump(&ServerStats::malformed, &NetMetrics::malformed);
    conn.close_after_flush = true;
    Cut cut;  // the offending header is untrusted: respond id 0
    cut.refusal = s;
    return cut;
  }

  /// Stamp a checked frame's arrival, and refuse it (drain/quota) with a
  /// typed error or leave it to be served.
  void admit(Cut& cut) {
    cut.arrival = SteadyClock::now();
    const FrameHeader& h = cut.header;
    const auto type = static_cast<MsgType>(h.type);
    // MUTATE is admin-gated like LOAD/SWAP but also quota-charged like a
    // batch: a hot writer drains the same per-tenant bucket its reads
    // would, so a write storm sheds before the engine sees it.
    const bool charged = is_batch(type) || type == MsgType::kMutate;
    if (self->draining() &&
        (charged || (is_admin(type) && type != MsgType::kDrain))) {
      bump(&ServerStats::draining_refused, &NetMetrics::draining_refused);
      cut.refusal =
          Status::unavailable("server is draining; no new batches accepted");
    } else if (charged) {
      if (Status s = self->quotas_->admit(h.tenant, steady_ns(cut.arrival));
          !s.ok()) {
        bump(&ServerStats::quota_shed, &NetMetrics::quota_shed);
        cut.refusal = std::move(s);
      }
    }
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
      if (!conn.sending() && now - conn.last_activity > opts.idle_timeout) {
        bump(&ServerStats::idle_closed, &NetMetrics::idle_closed);
        doomed.push_back(id);
      } else if (conn.sending() &&
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
        if (conn.busy || conn.sending()) {
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
