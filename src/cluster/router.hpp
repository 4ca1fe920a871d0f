#pragma once

// Scatter-gather router (DESIGN.md §15): a net::Backend, so a
// net::Server serves it with the same connection plane, hygiene, quotas
// and drain as the collections.  It fans PATH_BATCH / DYN_PATH_BATCH
// sub-batches out to shard backends (queries grouped by the owner of
// their last path node, node ids remapped to shard-local), and merges
// the answers back into the client's order — answers are per-position
// indices/keys, so the merge is a pure un-permutation and the result is
// byte-identical to a single-process serve::Frontend over the
// unpartitioned structure.  Both steps work on the wire bytes through
// net::scatter_path_request / index_path_reply / splice_path_replies:
// the router builds no PathQuery or PathAnswer, and the payload layout
// stays known to net/wire.cpp alone.
//
// The fan-out runs on the serving thread without extra threads: every
// involved shard is sent its sub-batch over a persistent connection
// first, then each reply is read.  Failure containment per shard: a
// robust::CircuitBreaker per backend endpoint plus hedged retries onto
// replica endpoints, all bounded by the per-shard deadline carved from
// the client's wire deadline.  A dead shard sheds its batches with a
// typed error instead of wedging the connection.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/routing_map.hpp"
#include "net/backend.hpp"
#include "robust/status.hpp"

namespace cluster {

struct Endpoint {
  std::string host;
  std::uint16_t port = 0;
};

struct BreakerOptions {
  /// Consecutive failures that trip an endpoint CLOSED -> OPEN.
  std::uint32_t failure_threshold = 3;
  /// How long an OPEN endpoint is skipped before one probe is allowed.
  std::chrono::nanoseconds open_for{std::chrono::milliseconds(200)};
};

struct RouterOptions {
  /// The one collection name this router serves; shards must serve the
  /// same name.
  std::string collection = "main";
  RoutingMap map;
  /// Per shard: replica endpoints, preferred first.  Must have
  /// map.num_shards entries, each non-empty.
  std::vector<std::vector<Endpoint>> shards;
  std::chrono::nanoseconds connect_timeout{std::chrono::seconds(2)};
  std::chrono::nanoseconds io_timeout{std::chrono::seconds(10)};
  /// Extra replica attempts per sub-batch after the first failure.
  std::uint32_t max_hedges = 1;
  /// Reserved from the client's remaining budget for the gather + reply.
  std::chrono::nanoseconds gather_margin{std::chrono::milliseconds(2)};
  BreakerOptions breaker;
};

struct RouterStats {
  std::uint64_t batches_routed = 0;    ///< client batches answered OK
  std::uint64_t sub_batches_sent = 0;  ///< shard round trips attempted
  std::uint64_t hedged_retries = 0;    ///< attempts beyond a sub-batch's 1st
  std::uint64_t shard_failures = 0;    ///< failed shard round trips
  std::uint64_t sheds = 0;          ///< client batches shed (typed error)
  std::uint64_t breaker_trips = 0;  ///< endpoint CLOSED -> OPEN
  std::uint64_t breaker_skips = 0;  ///< attempts skipped on OPEN endpoints
};

/// The per-shard deadline budget (relative ns) carved from a client's
/// wire deadline: the remaining budget minus a gather margin, clamped so
/// a shard is never handed more than the client has left and never
/// starved to zero while budget remains.  Returns 0 when the client set
/// no deadline (`client_deadline_ns == 0`) or the budget is already
/// exhausted — callers distinguish by checking client_deadline_ns.
/// Pure function; the unit tests enumerate its contract.
[[nodiscard]] std::uint64_t carve_shard_deadline_ns(
    std::uint64_t client_deadline_ns, std::uint64_t elapsed_ns,
    std::uint64_t margin_ns);

class Router final : public net::Backend {
 public:
  /// Validate the options (the routing map must be validated too —
  /// load_routing_map / plan_partition both do).  Serve the result with
  /// net::Server::start(server_options, router).
  [[nodiscard]] static coop::Expected<std::shared_ptr<Router>> create(
      RouterOptions opts);

  ~Router() override;
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// PATH_BATCH and DYN_PATH_BATCH are routed; every other verb is a
  /// typed kInvalidArgument.
  [[nodiscard]] coop::Status serve(const net::Request& req,
                                   std::vector<std::uint8_t>& out) override;
  /// One row per shard, "shardK": healthy when every replica's breaker
  /// is CLOSED, degraded when some are not, lame duck when none is.
  [[nodiscard]] std::vector<net::CollectionHealth> health() override;

  [[nodiscard]] RouterStats stats() const;

 private:
  Router() = default;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace cluster
