#include "cluster/cluster_soak.hpp"

#include <atomic>
#include <filesystem>
#include <random>
#include <thread>
#include <vector>

#include "catalog/tree.hpp"
#include "cluster/child_process.hpp"
#include "cluster/follower.hpp"
#include "cluster/partition.hpp"
#include "cluster/router.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "robust/soak.hpp"

namespace cluster {

using coop::Status;
using coop::StatusCode;

namespace {

using Clock = std::chrono::steady_clock;

/// The launched coopserve shard processes; whatever still runs is
/// stopped when the soak returns, on every path.
struct Fleet {
  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() { stop(); }

  std::vector<pid_t> pids;
  std::vector<std::uint16_t> ports;
  void stop() {
    for (pid_t& pid : pids) {
      (void)terminate_proc(pid);
    }
  }
};

}  // namespace

coop::Expected<ClusterSoakOutcome> run_cluster_soak(
    const ClusterSoakOptions& opts) {
  if (opts.coopserve_path.empty()) {
    return Status::invalid_argument(
        "cluster soak needs the path to the coopserve binary");
  }
  if (opts.num_shards < 2) {
    return Status::invalid_argument("cluster soak wants >= 2 shards");
  }
  std::error_code ec;
  std::filesystem::create_directories(opts.dir, ec);
  std::filesystem::create_directories(opts.dir + "/follower", ec);
  if (ec) {
    return Status::invalid_argument("cannot create '" + opts.dir +
                                    "': " + ec.message());
  }

  // ---- Fixture: one seeded tree, partitioned into shard snapshots. ----
  std::mt19937_64 fixture_rng(opts.seed);
  const cat::Tree tree =
      cat::make_balanced_binary(opts.tree_height, opts.tree_entries,
                                cat::CatalogShape::kRandom, fixture_rng);
  auto planned = partition_to_dir(tree, opts.num_shards, opts.dir);
  if (!planned.ok()) {
    return planned.status();
  }
  const RoutingMap map = planned.take();

  // ---- Shard fleet: one real coopserve process per shard. ----
  Fleet fleet;
  fleet.pids.assign(opts.num_shards, -1);
  fleet.ports.assign(opts.num_shards, 0);
  const auto launch = [&](std::uint32_t k,
                          std::uint16_t fixed_port) -> Status {
    const std::string stem = opts.dir + "/shard" + std::to_string(k);
    auto port = launch_server(
        opts.coopserve_path,
        {"--port", std::to_string(fixed_port), "--workers", "2",
         "--engine-threads", "2", "--collection",
         "main=" + shard_snapshot_path(opts.dir, k)},
        stem + ".port", stem + ".log", "main", fleet.pids[k]);
    if (!port.ok()) {
      return port.status();
    }
    fleet.ports[k] = *port;
    return coop::OkStatus();
  };
  for (std::uint32_t k = 0; k < opts.num_shards; ++k) {
    if (Status s = launch(k, 0); !s.ok()) {
      return s;
    }
  }

  // ---- Follower replica of shard 0, serving in-process. ----
  net::ServerOptions fsopts;
  fsopts.workers = 2;
  fsopts.engine_threads = 2;
  auto fserver = net::Server::start(fsopts);
  if (!fserver.ok()) {
    return fserver.status();
  }
  std::unique_ptr<net::Server> follower_server = fserver.take();
  FollowerOptions fopts;
  fopts.leader_host = "127.0.0.1";
  fopts.leader_port = fleet.ports[0];
  fopts.collection = "main";
  fopts.dir = opts.dir + "/follower";
  fopts.poll_interval = std::chrono::milliseconds(50);
  auto follower = Follower::start(follower_server->collections(), fopts);
  if (!follower.ok()) {
    return follower.status();
  }
  // The router hedges shard-0 batches onto the follower, so its copy
  // must exist before traffic starts (and this IS the first catch-up,
  // over a live FETCH_SNAPSHOT transfer).
  if (!robust::wait_until(
          [&] { return (*follower)->stats().last_version >= 1; },
          Clock::now() + std::chrono::seconds(15))) {
    return Status::deadline_exceeded(
        "follower never finished its initial catch-up");
  }

  // ---- Router in front of everything. ----
  RouterOptions ropts;
  ropts.collection = "main";
  ropts.map = map;
  ropts.shards.resize(opts.num_shards);
  for (std::uint32_t k = 0; k < opts.num_shards; ++k) {
    ropts.shards[k].push_back({"127.0.0.1", fleet.ports[k]});
  }
  ropts.shards[0].push_back({"127.0.0.1", follower_server->port()});
  ropts.io_timeout = std::chrono::seconds(3);
  ropts.connect_timeout = std::chrono::milliseconds(500);
  auto router = Router::create(ropts);
  if (!router.ok()) {
    return router.status();
  }
  auto rserver = net::Server::start(net::ServerOptions{}, *router);
  if (!rserver.ok()) {
    return rserver.status();
  }
  const std::uint16_t router_port = (*rserver)->port();

  // ---- Client fleet: seeded traffic + oracle through the router. ----
  ClusterSoakOutcome out;
  robust::FirstFailure fail(out.first_failure);
  std::atomic<bool> stop{false};
  std::atomic<bool> revived{false};
  const auto answers_right = [&](const std::vector<serve::PathQuery>& b,
                                 const net::PathBatchResponse& resp) {
    return serve::count_path_mismatches(tree, b, resp.answers) == 0;
  };

  std::vector<std::thread> clients;
  const std::size_t n_clients = std::max<std::size_t>(1, opts.clients);
  clients.reserve(n_clients);
  for (std::size_t ci = 0; ci < n_clients; ++ci) {
    clients.emplace_back([&, ci] {
      std::mt19937_64 rng(opts.seed ^ (0xC1A5ull * (ci + 1)));
      net::ClientOptions copts;
      copts.io_timeout = std::chrono::seconds(5);
      net::Client client;
      while (!stop.load(std::memory_order_acquire)) {
        if (!client.connected()) {
          auto c = net::Client::connect("127.0.0.1", router_port, copts);
          if (!c.ok()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            continue;
          }
          client = c.take();
        }
        const auto batch =
            serve::random_path_batch(tree, rng, opts.batch_queries);
        auto resp = client.path_batch("main", batch);
        robust::bump(out.batches);
        if (resp.ok()) {
          robust::bump(out.answered);
          if (revived.load(std::memory_order_acquire)) {
            robust::bump(out.answered_after_revive);
          }
          if (!answers_right(batch, resp.value())) {
            robust::bump(out.wrong_answers);
          }
        } else {
          const StatusCode code = resp.status().code();
          if (code == StatusCode::kUnavailable ||
              code == StatusCode::kDeadlineExceeded) {
            // The contract for a dead/slow shard: a typed shed.
            robust::bump(out.typed_sheds);
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          } else {
            fail(out.untyped_failures, "unexpected status through router: " +
                                           resp.status().to_string());
          }
        }
      }
    });
  }

  // ---- Conductor: swap -> catch-up -> kill -> shed -> resurrect. ----
  const auto begun = Clock::now();
  const auto hard_end = begun + opts.duration * 6 + std::chrono::seconds(10);
  std::this_thread::sleep_for(opts.duration / 4);

  // Publish a new generation on the shard-0 leader; the follower must
  // fetch it over FETCH_SNAPSHOT while the fleet keeps answering.
  {
    net::ClientOptions copts;
    copts.io_timeout = std::chrono::seconds(5);
    auto admin = net::Client::connect("127.0.0.1", fleet.ports[0], copts);
    if (admin.ok()) {
      auto v = admin->swap("main", shard_snapshot_path(opts.dir, 0));
      if (v.ok()) {
        ++out.swaps;
      } else {
        fail(out.untyped_failures,
             "leader SWAP failed: " + v.status().to_string());
      }
    } else {
      fail(out.untyped_failures, "cannot reach shard-0 for SWAP: " +
                                     admin.status().to_string());
    }
  }
  (void)robust::wait_until(
      [&] { return (*follower)->stats().last_version >= 2; }, hard_end);

  std::this_thread::sleep_for(opts.duration / 4);

  // SIGKILL a shard that has no replica: its batches must shed typed.
  // Never shard 0 (it has the follower hedge), and never a shard the
  // force-split left holding only the root spine — queries target
  // leaves, so killing a leafless shard sheds nothing.  Pick the
  // non-leader shard that owns the most leaves.
  const std::uint32_t victim = [&] {
    std::vector<std::uint64_t> leaves(opts.num_shards, 0);
    for (std::size_t v = 0; v < map.owner.size(); ++v) {
      if (tree.is_leaf(static_cast<cat::NodeId>(v))) {
        ++leaves[map.owner[v]];
      }
    }
    std::uint32_t best = opts.num_shards - 1;
    for (std::uint32_t k = 1; k < opts.num_shards; ++k) {
      if (leaves[k] > leaves[best]) {
        best = k;
      }
    }
    return best;
  }();
  if (kill_proc(fleet.pids[victim])) {
    ++out.kills;
  } else {
    fail(out.untyped_failures,
         "kill(SIGKILL) of shard " + std::to_string(victim) + " failed");
  }
  (void)robust::wait_until([&] { return robust::peek(out.typed_sheds) >= 1; },
                           hard_end);
  std::this_thread::sleep_for(opts.duration / 4);

  // Resurrect the corpse on the same port; the breaker must close and
  // full-coverage serving must resume.
  if (Status s = launch(victim, fleet.ports[victim]); s.ok()) {
    ++out.resurrections;
    revived.store(true, std::memory_order_release);
  } else {
    fail(out.untyped_failures, "resurrection failed: " + s.to_string());
  }
  (void)robust::wait_until(
      [&] { return robust::peek(out.answered_after_revive) >= 1; }, hard_end);
  std::this_thread::sleep_until(begun + opts.duration);

  stop.store(true, std::memory_order_release);
  for (std::thread& t : clients) {
    t.join();
  }

  // ---- Final sweep: one batch with a query on every shard, answered
  // through the router and checked against the oracle. ----
  {
    std::mt19937_64 rng(opts.seed ^ 0xF1A4ull);
    std::vector<serve::PathQuery> sweep;
    for (std::uint32_t s = 0; s < opts.num_shards; ++s) {
      // The root-to-v path of any node v this shard owns.
      for (std::size_t v = 0; v < map.owner.size(); ++v) {
        if (map.owner[v] == s) {
          sweep.push_back(
              {serve::root_path(tree, static_cast<cat::NodeId>(v)),
               static_cast<cat::Key>(rng() % 1'000'000'000)});
          break;
        }
      }
    }
    net::ClientOptions copts;
    copts.io_timeout = std::chrono::seconds(5);
    out.final_sweep_ok = robust::wait_until(
        [&] {
          auto c = net::Client::connect("127.0.0.1", router_port, copts);
          if (!c.ok()) {
            return false;
          }
          auto resp = c->path_batch("main", sweep);
          return resp.ok() && answers_right(sweep, resp.value());
        },
        Clock::now() + std::chrono::seconds(10),
        std::chrono::milliseconds(50));
  }

  // ---- Teardown + outcome. ----
  const RouterStats rstats = (*router)->stats();
  const FollowerStats fstats = (*follower)->stats();
  (*follower)->stop();
  (*rserver)->stop();
  follower_server->stop();
  fleet.stop();

  out.follower_catchups = fstats.catchups;
  out.follower_version = fstats.last_version;
  out.hedged_retries = rstats.hedged_retries;
  out.breaker_trips = rstats.breaker_trips;
  out.router_sheds = rstats.sheds;
  robust::judge(out, "zero wrong answers through the router across a "
                     "SIGKILL'd shard (" +
                         std::to_string(out.typed_sheds) +
                         " typed sheds), a same-port resurrection, and " +
                         std::to_string(out.follower_catchups) +
                         " follower catch-ups over FETCH_SNAPSHOT");
  if (out.goals_met) {
    std::filesystem::remove_all(opts.dir, ec);
  }
  return out;
}

}  // namespace cluster
