// coopserve: the framed-TCP serving daemon (DESIGN.md §11).
//
//   coopserve [--bind ADDR] [--port N] [--port-file PATH] [--workers N]
//             [--engine-threads N] [--max-conns N]
//             [--quota-rate R] [--quota-burst B]
//             [--collection NAME=FILE.snap]...
//             [--dynamic-collection NAME=FILE.snap]...
//             [--compact-threshold N] [--compact-interval-ms N]
//             [--wal-dir DIR] [--fsync every-ack|interval|none]
//             [--fsync-interval-ms N] [--wal-segment-kb N]
//             [--metrics-dump] [--remote-admin]
//   coopserve --soak <duration-ms> <seed> [clients] [--json]
//   coopserve --router --routing-map FILE --shard K=HOST:PORT[,HOST:PORT..]
//             [--collection-name NAME] [--max-hedges N]
//             [--gather-margin-ms N] [server-plane flags]
//
// Router mode (DESIGN.md §15) serves the same framed-TCP batch API from
// the same server plane (so --bind, --port, --port-file, --workers,
// --max-conns, the quota flags and the SIGTERM drain all apply) but owns
// no data: PATH_BATCH / DYN_PATH_BATCH queries are scattered to the
// shard backends named by --shard (grouped by the owner of each query's
// last path node, per the routing map), answered with per-shard
// deadlines carved from the client's wire deadline, and merged back
// order-stably.  Extra HOST:PORT entries after the first are replica
// endpoints for hedged retries; a dead shard sheds its batches with
// typed errors behind a per-endpoint circuit breaker.
//
// Serve mode can additionally *follow* a leader (snapshot-shipping
// replication): --follow NAME=HOST:PORT polls the leader's HEALTH and
// pulls each newly published generation of collection NAME over
// FETCH_SNAPSHOT into --follow-dir, hot-swapping it into the local
// registry while stale reads keep serving.
//
// Trust model: the wire is unauthenticated, so LOAD/SWAP/UNLOAD/DRAIN
// — and the write verbs MUTATE/COMPACT — are only honoured on loopback
// binds.  --remote-admin opts into accepting them on other binds — only
// do that behind a trusted network boundary.
//
// --dynamic-collection loads a snapshot like --collection and then
// attaches the delta-log overlay (DESIGN.md §13) plus a background
// compactor, making the collection accept MUTATE / DYN_PATH_BATCH /
// COMPACT.  --compact-threshold sets the pending-mutation count that
// triggers a background compaction; --compact-interval-ms adds a
// periodic trigger (0 = threshold/explicit only).
//
// --wal-dir makes every dynamic collection durable (DESIGN.md §14):
// collection NAME logs to DIR/NAME, boots from the manifest's compacted
// base when one exists (the NAME=FILE.snap file is only the bootstrap
// for a virgin directory), and replays the log before serving — acked
// writes survive kill -9.  --fsync picks the ack durability point
// (every-ack = fsync before ack, the default; interval = background
// fsync every --fsync-interval-ms; none = OS page cache only), and
// --wal-segment-kb bounds segment size before rotation.
//
// Serve mode binds (port 0 picks an ephemeral port, reported on stderr
// and, with --port-file, written to a file so CI can find it), loads
// each named collection from its snapshot, and serves until SIGTERM or
// SIGINT — which begins a graceful drain: stop accepting, refuse new
// batches with typed UNAVAILABLE, finish everything in flight, then
// exit 0.  A wire DRAIN frame triggers the same sequence.
//
// Soak mode runs net::run_wire_soak (self-contained fixtures + loopback
// server + chaos fleet) and exits 0 only on an "OK" verdict; --json
// emits the outcome as one JSON document on stdout.

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/follower.hpp"
#include "cluster/router.hpp"
#include "cluster/routing_map.hpp"
#include "dyn/recovery.hpp"
#include "dyn/wal.hpp"
#include "flags.hpp"
#include "net/server.hpp"
#include "net/wire_soak.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "snapshot/snapshot.hpp"

namespace {

using flags::parse_u64;

volatile std::sig_atomic_t g_signal = 0;

void on_signal(int) { g_signal = 1; }

int usage() {
  std::fprintf(
      stderr,
      "usage: coopserve [--bind ADDR] [--port N] [--port-file PATH]\n"
      "                 [--workers N] [--engine-threads N] [--max-conns N]\n"
      "                 [--quota-rate R] [--quota-burst B]\n"
      "                 [--collection NAME=FILE.snap]...\n"
      "                 [--dynamic-collection NAME=FILE.snap]...\n"
      "                 [--compact-threshold N] [--compact-interval-ms N]\n"
      "                 [--wal-dir DIR] [--fsync every-ack|interval|none]\n"
      "                 [--fsync-interval-ms N] [--wal-segment-kb N]\n"
      "                 [--metrics-dump] [--remote-admin]\n"
      "       coopserve --soak <duration-ms> <seed> [clients] [--json]\n"
      "       coopserve --router --routing-map FILE\n"
      "                 --shard K=HOST:PORT[,HOST:PORT...]...\n"
      "                 [--collection-name NAME] [--max-hedges N]\n"
      "                 [--gather-margin-ms N] [server-plane flags above]\n"
      "follower flags (serve mode): [--follow NAME=HOST:PORT]\n"
      "                 [--follow-dir DIR] [--follow-interval-ms N]\n"
      "note: admin frames (LOAD/SWAP/UNLOAD/DRAIN) are refused with\n"
      "      PERMISSION_DENIED on non-loopback binds unless\n"
      "      --remote-admin is given.\n");
  return 2;
}

int run_soak(int argc, char** argv) {
  bool json = false;
  std::vector<char*> rest;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      rest.push_back(argv[i]);
    }
  }
  std::uint64_t duration_ms = 0, seed = 0, clients = 4;
  if (rest.size() < 2 || !parse_u64(rest[0], duration_ms) ||
      !parse_u64(rest[1], seed) || duration_ms == 0 ||
      (rest.size() > 2 && !parse_u64(rest[2], clients))) {
    return usage();
  }
  net::WireSoakOptions opts;
  opts.duration = std::chrono::milliseconds(duration_ms);
  opts.seed = seed;
  opts.clients = clients;
  opts.verbose = !json;
  auto out = net::run_wire_soak(opts);
  if (!out.ok()) {
    std::fprintf(stderr, "wire soak setup failed: %s\n",
                 out.status().to_string().c_str());
    return 1;
  }
  const net::WireSoakOutcome& o = out.value();
  if (json) {
    std::printf(
        "{\"soak\":\"wire\",\"batches\":%llu,\"answered\":%llu,"
        "\"wrong_answers\":%llu,\"failed\":%llu,\"deadline_errors\":%llu,"
        "\"quota_sheds\":%llu,\"drain_refusals\":%llu,"
        "\"malformed_injected\":%llu,\"malformed_rejected\":%llu,"
        "\"resets_injected\":%llu,\"slow_reads\":%llu,\"reconnects\":%llu,"
        "\"swaps\":%llu,\"load_unload_cycles\":%llu,"
        "\"drained_in_grace\":%s,\"goals_met\":%s}\n",
        static_cast<unsigned long long>(o.batches),
        static_cast<unsigned long long>(o.answered),
        static_cast<unsigned long long>(o.wrong_answers),
        static_cast<unsigned long long>(o.failed),
        static_cast<unsigned long long>(o.deadline_errors),
        static_cast<unsigned long long>(o.quota_sheds),
        static_cast<unsigned long long>(o.drain_refusals),
        static_cast<unsigned long long>(o.malformed_injected),
        static_cast<unsigned long long>(o.malformed_rejected),
        static_cast<unsigned long long>(o.resets_injected),
        static_cast<unsigned long long>(o.slow_reads),
        static_cast<unsigned long long>(o.reconnects),
        static_cast<unsigned long long>(o.swaps),
        static_cast<unsigned long long>(o.load_unload_cycles),
        o.drained_in_grace ? "true" : "false",
        o.goals_met ? "true" : "false");
  }
  std::fprintf(stderr, "%s\n", o.verdict.c_str());
  std::fprintf(stderr,
               "  batches=%llu answered=%llu deadline=%llu quota=%llu "
               "malformed=%llu/%llu resets=%llu slow=%llu swaps=%llu "
               "cycles=%llu drain_refusals=%llu reconnects=%llu\n",
               static_cast<unsigned long long>(o.batches),
               static_cast<unsigned long long>(o.answered),
               static_cast<unsigned long long>(o.deadline_errors),
               static_cast<unsigned long long>(o.quota_sheds),
               static_cast<unsigned long long>(o.malformed_rejected),
               static_cast<unsigned long long>(o.malformed_injected),
               static_cast<unsigned long long>(o.resets_injected),
               static_cast<unsigned long long>(o.slow_reads),
               static_cast<unsigned long long>(o.swaps),
               static_cast<unsigned long long>(o.load_unload_cycles),
               static_cast<unsigned long long>(o.drain_refusals),
               static_cast<unsigned long long>(o.reconnects));
  return o.verdict.rfind("OK", 0) == 0 ? 0 : 1;
}

bool parse_endpoint(const std::string& s, cluster::Endpoint& out) {
  const auto colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= s.size()) {
    return false;
  }
  std::uint64_t port = 0;
  if (!parse_u64(s.c_str() + colon + 1, port) || port == 0 || port > 65535) {
    return false;
  }
  out.host = s.substr(0, colon);
  out.port = static_cast<std::uint16_t>(port);
  return true;
}

/// Router mode's backend: the routing map plus --shard endpoints.
/// Prints why and returns null when they do not make a router.
std::shared_ptr<cluster::Router> make_router(
    cluster::RouterOptions opts, const std::string& map_path,
    std::vector<std::pair<std::uint32_t, std::vector<cluster::Endpoint>>>
        shard_args) {
  auto map = cluster::load_routing_map(map_path);
  if (!map.ok()) {
    std::fprintf(stderr, "coopserve: cannot load routing map %s: %s\n",
                 map_path.c_str(), map.status().to_string().c_str());
    return nullptr;
  }
  opts.map = map.take();
  opts.shards.resize(opts.map.num_shards);
  for (auto& [k, eps] : shard_args) {
    if (k >= opts.map.num_shards) {
      std::fprintf(stderr,
                   "error: --shard %u out of range (map has %llu shards)\n",
                   k, static_cast<unsigned long long>(opts.map.num_shards));
      return nullptr;
    }
    opts.shards[k] = std::move(eps);
  }
  auto router = cluster::Router::create(std::move(opts));
  if (!router.ok()) {
    std::fprintf(stderr, "coopserve: cannot start router: %s\n",
                 router.status().to_string().c_str());
    return nullptr;
  }
  return router.take();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--soak") == 0) {
    return run_soak(argc - 2, argv + 2);
  }

  net::ServerOptions opts;
  std::string port_file;
  bool metrics_dump = false;
  struct Named {
    std::string name;
    std::string path;
    bool dynamic = false;
  };
  std::vector<Named> collections;
  dyn::Compactor::Options compactor_opts;
  std::string wal_dir;
  dyn::WalOptions wal_opts;
  cluster::FollowerOptions follow_opts;
  bool follow = false;
  bool router_mode = false;
  cluster::RouterOptions router_opts;
  std::string map_path;
  std::vector<std::pair<std::uint32_t, std::vector<cluster::Endpoint>>>
      shard_args;
  /// NAME=REST, both non-empty.
  const auto split_eq = [](const char* a, std::string& name,
                           std::string& rest) {
    const char* eq = std::strchr(a, '=');
    if (eq == nullptr || eq == a || eq[1] == '\0') {
      return false;
    }
    name.assign(a, eq);
    rest = eq + 1;
    return true;
  };
  const auto collection = [&](bool dynamic) -> flags::Handler {
    return [&, dynamic](const char* a) {
      Named n{"", "", dynamic};
      if (!split_eq(a, n.name, n.path)) {
        return false;
      }
      collections.push_back(std::move(n));
      return true;
    };
  };
  std::uint64_t segment_kb = 0;
  const flags::Table table = {
      // Server plane (both modes).
      {"--bind", flags::text(opts.bind_address)},
      {"--port", flags::number(opts.port, 0, 65535)},
      {"--port-file", flags::text(port_file)},
      {"--workers", flags::number(opts.workers, 1, 256)},
      {"--engine-threads", flags::number(opts.engine_threads, 0, 256)},
      {"--max-conns", flags::number(opts.max_connections, 1)},
      {"--quota-rate", flags::number(opts.quota.tokens_per_sec)},
      {"--quota-burst", flags::number(opts.quota.burst, 1)},
      // Collections, dynamic serving and durability.
      {"--collection", collection(false)},
      {"--dynamic-collection", collection(true)},
      {"--compact-threshold",
       flags::number(compactor_opts.trigger_pending, 1)},
      {"--compact-interval-ms", flags::millis(compactor_opts.interval)},
      {"--wal-dir", flags::text(wal_dir)},
      {"--fsync",
       [&](const char* a) {
         return dyn::parse_fsync_policy(a, &wal_opts.fsync);
       }},
      {"--fsync-interval-ms", flags::millis(wal_opts.fsync_interval, 1)},
      {"--wal-segment-kb", flags::number(segment_kb, 1, UINT64_MAX >> 10)},
      // Following a leader.
      {"--follow",
       [&](const char* a) {
         std::string leader;
         cluster::Endpoint ep;
         if (!split_eq(a, follow_opts.collection, leader) ||
             !parse_endpoint(leader, ep)) {
           return false;
         }
         follow_opts.leader_host = ep.host;
         follow_opts.leader_port = ep.port;
         follow = true;
         return true;
       }},
      {"--follow-dir", flags::text(follow_opts.dir)},
      {"--follow-interval-ms", flags::millis(follow_opts.poll_interval, 1)},
      // Router mode.
      {"--routing-map", flags::text(map_path)},
      {"--shard",
       [&](const char* a) {
         std::string index, list;
         std::uint64_t k = 0;
         if (!split_eq(a, index, list) || !parse_u64(index.c_str(), k) ||
             k > 65535) {
           return false;
         }
         std::vector<cluster::Endpoint> eps;
         for (std::size_t at = 0; at <= list.size();) {
           const std::size_t comma = std::min(list.find(',', at), list.size());
           cluster::Endpoint ep;
           if (!parse_endpoint(list.substr(at, comma - at), ep)) {
             return false;
           }
           eps.push_back(ep);
           at = comma + 1;
         }
         shard_args.emplace_back(static_cast<std::uint32_t>(k),
                                 std::move(eps));
         return true;
       }},
      {"--collection-name", flags::text(router_opts.collection)},
      {"--max-hedges", flags::number(router_opts.max_hedges, 0, 16)},
      {"--gather-margin-ms", flags::millis(router_opts.gather_margin)},
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--router") == 0) {
      router_mode = true;
    } else if (std::strcmp(argv[i], "--remote-admin") == 0) {
      opts.enable_remote_admin = true;
    } else if (std::strcmp(argv[i], "--metrics-dump") == 0) {
      metrics_dump = true;
    } else if (!flags::take(table, argc, argv, i)) {
      return usage();
    }
  }
  if (segment_kb != 0) {
    wal_opts.segment_bytes = segment_kb << 10;
  }

  if (router_mode && (map_path.empty() || shard_args.empty())) {
    std::fprintf(stderr, "error: --router needs --routing-map and --shard\n");
    return usage();
  }
  if (router_mode ? !collections.empty() || follow
                  : !map_path.empty() || !shard_args.empty()) {
    std::fprintf(stderr,
                 "error: --router serves no collections of its own, and "
                 "--routing-map/--shard need --router\n");
    return usage();
  }

  std::shared_ptr<cluster::Router> router;
  if (router_mode) {
    router = make_router(std::move(router_opts), map_path,
                         std::move(shard_args));
    if (router == nullptr) {
      return 1;
    }
  }
  auto started = router != nullptr ? net::Server::start(opts, router)
                                   : net::Server::start(opts);
  if (!started.ok()) {
    std::fprintf(stderr, "coopserve: cannot start: %s\n",
                 started.status().to_string().c_str());
    return 1;
  }
  std::unique_ptr<net::Server> server = started.take();
  for (const auto& [name, path, dynamic] : collections) {
    std::string boot_path = path;
    dyn::DurabilityOptions durability;
    const bool durable = dynamic && !wal_dir.empty();
    if (durable) {
      durability.dir = wal_dir + "/" + name;
      durability.wal = wal_opts;
      auto plan = dyn::plan_boot(durability.dir, path);
      if (!plan.ok()) {
        std::fprintf(stderr, "coopserve: cannot boot '%s' from %s: %s\n",
                     name.c_str(), durability.dir.c_str(),
                     plan.status().to_string().c_str());
        return 1;
      }
      boot_path = plan.value().snapshot_path;
    }
    auto snap = snapshot::open(boot_path);
    if (!snap.ok()) {
      std::fprintf(stderr, "coopserve: cannot open %s: %s\n",
                   boot_path.c_str(), snap.status().to_string().c_str());
      return 1;
    }
    if (const auto st = server->collections().load(name, snap.take());
        !st.ok()) {
      std::fprintf(stderr, "coopserve: cannot load '%s': %s\n",
                   name.c_str(), st.to_string().c_str());
      return 1;
    }
    if (dynamic) {
      dyn::RecoveryReport report;
      if (const auto st = server->collections().make_dynamic(
              name, dyn::DynamicCatalog::Options{}, compactor_opts,
              /*start_compactor=*/true, durable ? &durability : nullptr,
              durable ? &report : nullptr);
          !st.ok()) {
        std::fprintf(stderr, "coopserve: cannot make '%s' dynamic: %s\n",
                     name.c_str(), st.to_string().c_str());
        return 1;
      }
      if (durable) {
        std::fprintf(
            stderr,
            "coopserve: recovered '%s': watermark=%llu seq=%llu "
            "segments=%llu runs=%llu (+%llu skipped) mutations=%llu "
            "torn_bytes=%llu fsync=%s\n",
            name.c_str(),
            static_cast<unsigned long long>(report.watermark),
            static_cast<unsigned long long>(report.recovered_seq),
            static_cast<unsigned long long>(report.segments_scanned),
            static_cast<unsigned long long>(report.runs_replayed),
            static_cast<unsigned long long>(report.runs_skipped),
            static_cast<unsigned long long>(report.mutations_replayed),
            static_cast<unsigned long long>(report.torn_bytes),
            dyn::to_string(wal_opts.fsync));
      }
    }
    std::fprintf(stderr, "coopserve: loaded %s collection '%s' from %s\n",
                 dynamic ? "dynamic" : "static", name.c_str(),
                 boot_path.c_str());
  }

  std::unique_ptr<cluster::Follower> follower;
  if (follow) {
    if (follow_opts.dir.empty()) {
      std::fprintf(stderr, "error: --follow needs --follow-dir\n");
      return 2;
    }
    auto f = cluster::Follower::start(server->collections(), follow_opts);
    if (!f.ok()) {
      std::fprintf(stderr, "coopserve: cannot start follower: %s\n",
                   f.status().to_string().c_str());
      return 1;
    }
    follower = f.take();
    std::fprintf(stderr,
                 "coopserve: following '%s' from %s:%u into %s\n",
                 follow_opts.collection.c_str(),
                 follow_opts.leader_host.c_str(),
                 static_cast<unsigned>(follow_opts.leader_port),
                 follow_opts.dir.c_str());
  }

  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "coopserve: cannot write %s\n",
                   port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%u\n", static_cast<unsigned>(server->port()));
    std::fclose(f);
  }
  std::fprintf(stderr, "coopserve %slistening on %s:%u (%zu workers)\n",
               router != nullptr ? "router " : "",
               opts.bind_address.c_str(),
               static_cast<unsigned>(server->port()), opts.workers);

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  // Serve until a signal or a wire DRAIN frame flips the server into
  // lame-duck mode.
  while (g_signal == 0 && !server->draining()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::fprintf(stderr, "coopserve: %s — draining\n",
               g_signal != 0 ? "signal received" : "DRAIN frame received");
  if (follower != nullptr) {
    const cluster::FollowerStats fstats = follower->stats();
    follower->stop();
    std::fprintf(stderr,
                 "coopserve: follower caught up %llu generations "
                 "(last v%llu, %llu failures)\n",
                 static_cast<unsigned long long>(fstats.catchups),
                 static_cast<unsigned long long>(fstats.last_version),
                 static_cast<unsigned long long>(fstats.failures));
  }
  server->begin_drain();
  const bool drained =
      server->wait_drained(std::chrono::seconds(10));
  const net::ServerStats stats = server->stats();
  server->stop();
  std::fprintf(stderr,
               "coopserve: drain %s; served %llu batches over %llu "
               "connections (%llu frames in, %llu out, %llu malformed, "
               "%llu deadline-expired, %llu quota-shed)\n",
               drained ? "complete" : "TIMED OUT",
               static_cast<unsigned long long>(stats.batches_served),
               static_cast<unsigned long long>(stats.accepted),
               static_cast<unsigned long long>(stats.frames_in),
               static_cast<unsigned long long>(stats.frames_out),
               static_cast<unsigned long long>(stats.malformed),
               static_cast<unsigned long long>(stats.deadline_expired),
               static_cast<unsigned long long>(stats.quota_shed));
  if (router != nullptr) {
    const cluster::RouterStats rs = router->stats();
    std::fprintf(stderr,
                 "coopserve router: routed %llu batches (%llu sub-batches, "
                 "%llu hedges, %llu sheds, %llu breaker trips)\n",
                 static_cast<unsigned long long>(rs.batches_routed),
                 static_cast<unsigned long long>(rs.sub_batches_sent),
                 static_cast<unsigned long long>(rs.hedged_retries),
                 static_cast<unsigned long long>(rs.sheds),
                 static_cast<unsigned long long>(rs.breaker_trips));
  }
  if (metrics_dump) {
    const std::string text =
        obs::to_prometheus(obs::Registry::global().scrape());
    std::fputs(text.c_str(), stderr);
  }
  return drained ? 0 : 1;
}
