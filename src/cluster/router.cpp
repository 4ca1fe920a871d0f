#include "cluster/router.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <utility>

#include "net/client.hpp"
#include "obs/metrics.hpp"
#include "robust/circuit_breaker.hpp"

namespace cluster {

using coop::Status;
using net::MsgType;
using SteadyClock = std::chrono::steady_clock;

std::uint64_t carve_shard_deadline_ns(std::uint64_t client_deadline_ns,
                                      std::uint64_t elapsed_ns,
                                      std::uint64_t margin_ns) {
  if (client_deadline_ns == 0 || elapsed_ns >= client_deadline_ns) {
    return 0;
  }
  const std::uint64_t remaining = client_deadline_ns - elapsed_ns;
  // Reserve the gather margin, but never starve the shard: it always
  // keeps at least half of whatever remains (so the result is >= 1).
  const std::uint64_t margin = std::min(margin_ns, remaining / 2);
  return remaining - margin;
}

namespace {

struct RouterMetrics {
  obs::Counter batches;
  obs::Counter sub_batches;
  obs::Counter hedges;
  obs::Counter sheds;
  obs::Counter breaker_trips;

  static RouterMetrics& get() {
    static RouterMetrics m = [] {
      auto& r = obs::Registry::global();
      RouterMetrics n;
      n.batches = r.counter("cluster_router_batches_total",
                            "Client batches answered through the router");
      n.sub_batches =
          r.counter("cluster_router_sub_batches_total",
                    "Per-shard sub-batch round trips attempted");
      n.hedges = r.counter("cluster_router_hedged_retries_total",
                           "Sub-batch attempts beyond the first (hedges "
                           "onto replica endpoints)");
      n.sheds = r.counter("cluster_router_sheds_total",
                          "Client batches shed with a typed error because "
                          "a shard was unreachable");
      n.breaker_trips = r.counter(
          "cluster_router_breaker_trips_total",
          "Backend endpoint circuit breakers tripped CLOSED -> OPEN");
      return n;
    }();
    return m;
  }
};

/// A failed shard round trip that says the endpoint (or the connection
/// to it) is broken, rather than that the shard refused the request:
/// these count against the breaker and move on to the next replica.
bool is_transport_failure(const Status& s) {
  return s.code() == coop::StatusCode::kUnavailable ||
         s.code() == coop::StatusCode::kCorrupted ||
         s.code() == coop::StatusCode::kInternal;
}

/// Backend connections for one serving thread, [shard][replica],
/// connected lazily and kept across batches.
using ConnSet = std::vector<std::vector<std::unique_ptr<net::Client>>>;

/// One shard's part of a routed batch: its sub-request out, and once
/// gathered, its checked reply.
struct Leg {
  net::SubBatch sub;
  net::PathReply reply;
  std::uint32_t next_replica = 0;  ///< first replica not yet tried
  std::uint32_t attempts = 0;
  std::uint32_t replica = 0;  ///< holds the outstanding request
  robust::CircuitBreaker::Pass pass = robust::CircuitBreaker::Pass::kNormal;
  bool pending = false;
  Status status = coop::OkStatus();
};

}  // namespace

struct Router::Impl final : net::PathRouter {
  RouterOptions opts;
  /// breakers[shard][replica], fixed at create().
  std::vector<std::vector<std::unique_ptr<robust::CircuitBreaker>>> breakers;
  /// Last served_version observed per shard (for HEALTH).
  std::vector<std::atomic<std::uint64_t>> shard_version;

  std::mutex pool_mu;
  std::vector<std::unique_ptr<ConnSet>> idle_conns;

  mutable std::mutex stats_mu;
  RouterStats stats;

  /// Count one event in stats() and, when given, in its obs counter.
  void bump(std::uint64_t RouterStats::* field,
            obs::Counter RouterMetrics::* metric = nullptr) {
    if (metric != nullptr) {
      (RouterMetrics::get().*metric).inc();
    }
    std::lock_guard<std::mutex> lock(stats_mu);
    ++(stats.*field);
  }

  // ---- persistent backend connections ------------------------------

  std::unique_ptr<ConnSet> lease_conns() {
    {
      std::lock_guard<std::mutex> lock(pool_mu);
      if (!idle_conns.empty()) {
        std::unique_ptr<ConnSet> set = std::move(idle_conns.back());
        idle_conns.pop_back();
        return set;
      }
    }
    auto set = std::make_unique<ConnSet>(opts.map.num_shards);
    for (std::uint32_t s = 0; s < opts.map.num_shards; ++s) {
      (*set)[s].resize(opts.shards[s].size());
    }
    return set;
  }

  void return_conns(std::unique_ptr<ConnSet> set) {
    std::lock_guard<std::mutex> lock(pool_mu);
    idle_conns.push_back(std::move(set));
  }

  // ---- scatter-then-gather -----------------------------------------

  void fail_attempt(Leg& leg, std::unique_ptr<net::Client>& conn,
                    const Status& s) {
    conn.reset();
    if (breakers[leg.sub.shard][leg.replica]->record(leg.pass, false).tripped) {
      bump(&RouterStats::breaker_trips, &RouterMetrics::breaker_trips);
    }
    bump(&RouterStats::shard_failures);
    leg.status = s;
  }

  /// Send `leg` its sub-batch on the first replica its breaker admits,
  /// re-carving the remaining deadline per attempt.  Leaves the leg
  /// pending, or settled with the failure that ended it.
  void send_leg(Leg& leg, const net::Request& req, ConnSet& conns) {
    const std::vector<Endpoint>& replicas = opts.shards[leg.sub.shard];
    const std::uint32_t max_attempts = std::min<std::uint32_t>(
        static_cast<std::uint32_t>(replicas.size()), 1 + opts.max_hedges);
    while (leg.next_replica < replicas.size() &&
           leg.attempts < max_attempts) {
      const std::uint32_t r = leg.next_replica++;
      std::uint64_t carved = 0;
      if (req.deadline) {
        const auto left = *req.deadline - SteadyClock::now();
        carved = carve_shard_deadline_ns(
            static_cast<std::uint64_t>(
                std::max<std::int64_t>(0, left.count())),
            0, static_cast<std::uint64_t>(opts.gather_margin.count()));
        if (carved == 0) {
          leg.status = Status::deadline_exceeded(
              "client deadline exhausted before shard " +
              std::to_string(leg.sub.shard) + " could be asked");
          return;
        }
      }
      leg.pass = breakers[leg.sub.shard][r]->admit();
      if (leg.pass == robust::CircuitBreaker::Pass::kRefused) {
        bump(&RouterStats::breaker_skips);
        continue;
      }
      leg.replica = r;
      if (++leg.attempts > 1) {
        bump(&RouterStats::hedged_retries, &RouterMetrics::hedges);
      }
      bump(&RouterStats::sub_batches_sent, &RouterMetrics::sub_batches);

      std::unique_ptr<net::Client>& conn = conns[leg.sub.shard][r];
      if (conn == nullptr || !conn->connected()) {
        net::ClientOptions copts;
        copts.connect_timeout = opts.connect_timeout;
        copts.limits = req.limits;
        auto c =
            net::Client::connect(replicas[r].host, replicas[r].port, copts);
        if (!c.ok()) {
          fail_attempt(leg, conn, c.status());
          continue;
        }
        conn = std::make_unique<net::Client>(c.take());
      }
      conn->options().deadline_ns = carved;
      // A dead-but-unclosed backend must not stall past the budget: the
      // io timeout shrinks to the carved deadline when one is set.
      conn->options().io_timeout =
          req.deadline ? std::min(opts.io_timeout,
                                  std::chrono::nanoseconds(
                                      static_cast<std::int64_t>(carved)))
                       : opts.io_timeout;
      if (Status s = conn->send_request(req.type(), leg.sub.payload); !s.ok()) {
        fail_attempt(leg, conn, s);
        continue;
      }
      leg.pending = true;
      return;
    }
    if (leg.status.ok()) {
      leg.status =
          Status::unavailable("shard " + std::to_string(leg.sub.shard) +
                              ": no endpoint admitted the request");
    }
  }

  /// Check one shard reply's layout and answer count and keep it in
  /// `leg`; a failure here is treated like a failed round trip.
  Status absorb(Leg& leg, const net::Request& req, net::Frame& frame) {
    auto reply =
        net::index_path_reply(req.type(), std::move(frame.payload),
                              req.limits);
    if (!reply.ok()) {
      return reply.status();
    }
    if (reply->answers() != leg.sub.count) {
      return Status::internal(
          "shard " + std::to_string(leg.sub.shard) + " answered " +
          std::to_string(reply->answers()) + " of " +
          std::to_string(leg.sub.count) + " queries");
    }
    shard_version[leg.sub.shard].store(reply->served_version,
                                       std::memory_order_relaxed);
    leg.reply = reply.take();
    return coop::OkStatus();
  }

  /// Read `leg`'s reply and absorb it, falling back to the next replica
  /// on a transport failure.
  void gather_leg(Leg& leg, const net::Request& req, ConnSet& conns) {
    while (leg.pending) {
      leg.pending = false;
      std::unique_ptr<net::Client>& conn = conns[leg.sub.shard][leg.replica];
      auto reply = conn->recv_response();
      Status s = reply.ok() ? absorb(leg, req, *reply) : reply.status();
      if (s.ok()) {
        breakers[leg.sub.shard][leg.replica]->record(leg.pass, true);
        leg.status = coop::OkStatus();
        return;
      }
      if (is_transport_failure(s)) {
        fail_attempt(leg, conn, s);
        send_leg(leg, req, conns);
        continue;
      }
      // The shard answered (a typed refusal or a timeout): the endpoint
      // is healthy, but the stream may hold a late reply, so reconnect.
      conn.reset();
      breakers[leg.sub.shard][leg.replica]->record(leg.pass, true);
      leg.status = s;
    }
  }

  /// Send every leg, then gather every reply (so no connection is left
  /// holding an unread answer).  Returns the first failure, preferring
  /// deadline expiry (the most actionable for the client).
  Status scatter_gather(std::vector<Leg>& legs, const net::Request& req) {
    std::unique_ptr<ConnSet> conns = lease_conns();
    for (Leg& leg : legs) {
      send_leg(leg, req, *conns);
    }
    for (Leg& leg : legs) {
      gather_leg(leg, req, *conns);
    }
    return_conns(std::move(conns));
    Status first = coop::OkStatus();
    for (const Leg& leg : legs) {
      if (leg.status.code() == coop::StatusCode::kDeadlineExceeded) {
        return leg.status;
      }
      if (first.ok()) {
        first = leg.status;
      }
    }
    return first;
  }

  // ---- routing -----------------------------------------------------

  std::uint32_t num_shards() const override { return opts.map.num_shards; }
  coop::Expected<std::uint32_t> route(
      std::span<std::uint32_t> path) const override {
    return opts.map.route(path);
  }

  /// Route one PATH_BATCH / DYN_PATH_BATCH at the byte level: split the
  /// request by the shard owning each path's last node, fan the
  /// sub-requests out, and splice the shards' answers back into the
  /// client's order, appended to `out`.
  Status route_batch(const net::Request& req, std::vector<std::uint8_t>& out) {
    auto scattered =
        net::scatter_path_request(req.type(), req.payload, *this, req.limits);
    if (!scattered.ok()) {
      return scattered.status();
    }
    if (scattered->collection != opts.collection) {
      return Status::invalid_argument("unknown collection '" +
                                      scattered->collection +
                                      "' (this router serves '" +
                                      opts.collection + "')");
    }
    if (!scattered->refused.ok()) {
      return scattered->refused;
    }
    std::vector<Leg> legs(scattered->subs.size());
    for (std::size_t i = 0; i < legs.size(); ++i) {
      legs[i].sub = std::move(scattered->subs[i]);
    }
    if (Status s = scatter_gather(legs, req); !s.ok()) {
      bump(&RouterStats::sheds, &RouterMetrics::sheds);
      return s;
    }
    std::vector<net::PathReply> replies(legs.size());
    for (std::size_t i = 0; i < legs.size(); ++i) {
      replies[i] = std::move(legs[i].reply);
    }
    bump(&RouterStats::batches_routed, &RouterMetrics::batches);
    net::splice_path_replies(req.type(), replies, scattered->slots, out);
    return coop::OkStatus();
  }
};

coop::Expected<std::shared_ptr<Router>> Router::create(RouterOptions opts) {
  if (opts.map.num_shards == 0) {
    return Status::invalid_argument("router needs a routing map");
  }
  if (Status s = opts.map.validate(); !s.ok()) {
    return s;
  }
  if (opts.shards.size() != opts.map.num_shards) {
    return Status::invalid_argument(
        "router has endpoints for " + std::to_string(opts.shards.size()) +
        " shards but the routing map names " +
        std::to_string(opts.map.num_shards));
  }
  for (std::size_t s = 0; s < opts.shards.size(); ++s) {
    if (opts.shards[s].empty()) {
      return Status::invalid_argument("shard " + std::to_string(s) +
                                      " has no endpoints");
    }
  }
  std::shared_ptr<Router> router(new Router());
  router->impl_ = std::make_unique<Impl>();
  Impl& impl = *router->impl_;
  impl.opts = std::move(opts);
  impl.breakers.resize(impl.opts.map.num_shards);
  for (std::uint32_t s = 0; s < impl.opts.map.num_shards; ++s) {
    for (std::size_t r = 0; r < impl.opts.shards[s].size(); ++r) {
      impl.breakers[s].push_back(std::make_unique<robust::CircuitBreaker>(
          impl.opts.breaker.failure_threshold, impl.opts.breaker.open_for));
    }
  }
  impl.shard_version =
      std::vector<std::atomic<std::uint64_t>>(impl.opts.map.num_shards);
  return router;
}

Router::~Router() = default;

Status Router::serve(const net::Request& req, std::vector<std::uint8_t>& out) {
  switch (req.type()) {
    case MsgType::kPathBatch:
    case MsgType::kDynPathBatch:
      return impl_->route_batch(req, out);
    default:
      return Status::invalid_argument(
          std::string("the router serves PATH_BATCH/DYN_PATH_BATCH/HEALTH/"
                      "METRICS only, not ") +
          net::to_string(req.type()));
  }
}

std::vector<net::CollectionHealth> Router::health() {
  std::vector<net::CollectionHealth> rows;
  for (std::uint32_t s = 0; s < impl_->opts.map.num_shards; ++s) {
    const auto& replicas = impl_->breakers[s];
    const auto tripped = static_cast<std::size_t>(std::count_if(
        replicas.begin(), replicas.end(), [](const auto& b) {
          return b->state() != robust::BreakerState::kClosed;
        }));
    net::CollectionHealth ch;
    ch.name = "shard" + std::to_string(s);
    ch.version = impl_->shard_version[s].load(std::memory_order_relaxed);
    // All endpoints reachable -> healthy; some tripped -> degraded;
    // every replica tripped -> lame duck (batches for this shard shed).
    ch.health = tripped == 0 ? 0 : (tripped < replicas.size() ? 1 : 2);
    rows.push_back(std::move(ch));
  }
  return rows;
}

RouterStats Router::stats() const {
  std::lock_guard<std::mutex> lock(impl_->stats_mu);
  return impl_->stats;
}

}  // namespace cluster
