#pragma once

// Fault-tolerant framed-TCP serving plane (DESIGN.md §11).  `workers`
// identical serving threads share one epoll set over nonblocking
// sockets, each connection armed for one event at a time (EPOLLONESHOT).
// The thread that event wakes owns the connection: it reads, reassembles
// and admits the frames, answers them in order through a net::Backend
// (net/backend.hpp: the in-process collections by default, or the
// cluster router), and flushes the responses before re-arming it.
//
// Hygiene discipline — a hostile or broken peer can never take the
// process down, only its own connection:
//   malformed     any frame check_frame rejects gets a typed ERROR
//                 response, then the connection is closed after the
//                 flush (one bad frame forfeits the stream: framing is
//                 unrecoverable once bytes are untrusted).
//   oversize      a length prefix above max_frame_bytes is rejected
//                 before buffering the body (no allocation bombs).
//   slowloris     connections idle past idle_timeout are reaped; so are
//                 readers that let their response backlog stall past
//                 write_stall_timeout.
//   deadlines     a request's relative deadline_ns becomes an absolute
//                 deadline at arrival; it is checked before dispatch,
//                 propagated into the engine's batch watchdog, and
//                 re-checked after serving — an expired request gets a
//                 typed kDeadlineExceeded ERROR, never a late answer.
//   quotas        per-tenant token buckets shed hot tenants with
//                 kResourceExhausted before the global admission gate.
//   drain         begin_drain() stops accepting, refuses new batch and
//                 admin frames with kUnavailable (HEALTH and METRICS
//                 still answer), finishes everything in flight, and
//                 wait_drained() reports when the last byte flushed.
//   admin trust   LOAD/SWAP/UNLOAD name server-side filesystem paths and
//                 DRAIN stops the world, and the wire carries no
//                 authentication — so admin frames are honoured only on
//                 loopback binds, with kPermissionDenied elsewhere,
//                 unless enable_remote_admin explicitly opts in.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "net/backend.hpp"
#include "net/collections.hpp"
#include "net/quota.hpp"
#include "net/wire.hpp"
#include "robust/status.hpp"
#include "serve/frontend.hpp"

namespace net {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 picks an ephemeral port (see Server::port)
  std::size_t workers = 2;  ///< serving threads
  std::size_t max_connections = 256;
  DecodeLimits limits;
  std::chrono::nanoseconds idle_timeout{std::chrono::seconds(30)};
  std::chrono::nanoseconds write_stall_timeout{std::chrono::seconds(10)};
  QuotaOptions quota;
  /// Collection backend only: every collection's frontend options, and
  /// the threads of their shared QueryEngine (0 = hardware concurrency).
  serve::FrontendOptions frontend;
  std::size_t engine_threads = 0;
  /// Honour admin frames (LOAD/SWAP/UNLOAD/DRAIN) on non-loopback binds.
  /// Off by default: the protocol is unauthenticated, and admin verbs
  /// load arbitrary server-side snapshot paths — only enable behind a
  /// trusted network boundary.  Loopback binds always allow admin.
  bool enable_remote_admin = false;
};

struct ServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected_overflow = 0;  ///< over max_connections
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t malformed = 0;
  std::uint64_t idle_closed = 0;
  std::uint64_t stall_closed = 0;
  std::uint64_t batches_served = 0;
  std::uint64_t mutates_applied = 0;  ///< MUTATE batches acked
  std::uint64_t compactions = 0;      ///< COMPACT requests honoured
  std::uint64_t snapshot_chunks_served = 0;  ///< FETCH_SNAPSHOT chunks
  std::uint64_t deadline_expired = 0;  ///< typed kDeadlineExceeded sent
  std::uint64_t quota_shed = 0;
  std::uint64_t draining_refused = 0;
  std::uint64_t errors_sent = 0;  ///< total typed ERROR responses
};

class Server {
 public:
  /// Bind, listen, and spawn the serving threads, serving an empty
  /// CollectionBackend (fill it through collections()).  On kOk the
  /// server is accepting; port() reports the bound port (port 0 picks).
  [[nodiscard]] static coop::Expected<std::unique_ptr<Server>> start(
      ServerOptions opts);

  /// The same, serving `backend` instead (e.g. a cluster::Router); no
  /// QueryEngine or CollectionMap is built.
  [[nodiscard]] static coop::Expected<std::unique_ptr<Server>> start(
      ServerOptions opts, std::shared_ptr<Backend> backend);

  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  /// Only for servers started on the collection backend.
  [[nodiscard]] CollectionMap& collections() {
    return collection_backend_->collections();
  }
  [[nodiscard]] TenantQuotas& quotas() { return *quotas_; }
  [[nodiscard]] bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  /// Enter lame duck: stop accepting, refuse new batches with a typed
  /// kUnavailable, keep serving what is already in flight.  Idempotent.
  void begin_drain();

  /// Block until every dispatched batch finished AND every response byte
  /// flushed (or `timeout` elapsed).  True = fully drained.
  [[nodiscard]] bool wait_drained(std::chrono::nanoseconds timeout);

  /// Hard stop: close every socket, join every thread.  Called by the
  /// destructor; safe to call after (or without) a drain.
  void stop();

  [[nodiscard]] ServerStats stats() const;

 private:
  struct Impl;
  Server() = default;

  std::shared_ptr<Backend> backend_;
  CollectionBackend* collection_backend_ = nullptr;  ///< when backend_ is one
  std::unique_ptr<TenantQuotas> quotas_;
  std::unique_ptr<Impl> impl_;
  std::uint16_t port_ = 0;
  std::atomic<bool> draining_{false};
};

}  // namespace net
