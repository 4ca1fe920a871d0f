#include "cluster/cluster_soak.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <mutex>
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

namespace cluster {

using coop::Status;
using coop::StatusCode;

namespace {

using Clock = std::chrono::steady_clock;

struct Tallies {
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> wrong_answers{0};
  std::atomic<std::uint64_t> typed_sheds{0};
  std::atomic<std::uint64_t> untyped_failures{0};
  std::atomic<std::uint64_t> answered_after_revive{0};

  std::mutex failure_mu;
  std::string first_failure;
  void fail(const std::string& what) {
    untyped_failures.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(failure_mu);
    if (first_failure.empty()) {
      first_failure = what;
    }
  }
};

/// One launched coopserve shard process.
struct Proc {
  pid_t pid = -1;
  std::uint16_t port = 0;
  std::string snap_path;
  std::string port_file;
  std::string log_path;
};

/// Block until `host:port` answers HEALTH with collection `name` at
/// version >= 1 (the shard is serving), or `give_up` passes.
Status wait_healthy(std::uint16_t port, const std::string& name,
                    Clock::time_point give_up) {
  net::ClientOptions copts;
  copts.connect_timeout = std::chrono::milliseconds(250);
  copts.io_timeout = std::chrono::seconds(2);
  while (Clock::now() < give_up) {
    auto c = net::Client::connect("127.0.0.1", port, copts);
    if (c.ok()) {
      auto h = c->health();
      if (h.ok()) {
        for (const net::CollectionHealth& col : h->collections) {
          if (col.name == name && col.version >= 1) {
            return coop::OkStatus();
          }
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return Status::deadline_exceeded("shard on port " + std::to_string(port) +
                                   " never became healthy");
}

bool wait_until(const std::function<bool()>& pred, Clock::time_point give_up) {
  while (Clock::now() < give_up) {
    if (pred()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

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
  std::vector<Proc> procs(opts.num_shards);
  const auto launch = [&](std::uint32_t k,
                          std::uint16_t fixed_port) -> Status {
    Proc& p = procs[k];
    p.snap_path = shard_snapshot_path(opts.dir, k);
    p.port_file = opts.dir + "/shard" + std::to_string(k) + ".port";
    p.log_path = opts.dir + "/shard" + std::to_string(k) + ".log";
    if (fixed_port == 0) {
      (void)::unlink(p.port_file.c_str());
    }
    auto pid = spawn(opts.coopserve_path,
                     {"--port", std::to_string(fixed_port), "--port-file",
                      p.port_file, "--workers", "2", "--engine-threads", "2",
                      "--collection", "main=" + p.snap_path},
                     p.log_path);
    if (!pid.ok()) {
      return pid.status();
    }
    p.pid = *pid;
    const auto give_up = Clock::now() + std::chrono::seconds(15);
    auto port = read_port_file(p.port_file, give_up, p.pid);
    if (!port.ok()) {
      return port.status();
    }
    p.port = *port;
    return wait_healthy(p.port, "main", give_up);
  };
  const auto teardown = [&] {
    for (Proc& p : procs) {
      (void)terminate_proc(p.pid);
    }
  };
  for (std::uint32_t k = 0; k < opts.num_shards; ++k) {
    if (Status s = launch(k, 0); !s.ok()) {
      teardown();
      return s;
    }
  }

  // ---- Follower replica of shard 0, serving in-process. ----
  net::ServerOptions fsopts;
  fsopts.workers = 2;
  fsopts.engine_threads = 2;
  auto fserver = net::Server::start(fsopts);
  if (!fserver.ok()) {
    teardown();
    return fserver.status();
  }
  std::unique_ptr<net::Server> follower_server = fserver.take();
  FollowerOptions fopts;
  fopts.leader_host = "127.0.0.1";
  fopts.leader_port = procs[0].port;
  fopts.collection = "main";
  fopts.dir = opts.dir + "/follower";
  fopts.poll_interval = std::chrono::milliseconds(50);
  auto follower = Follower::start(follower_server->collections(), fopts);
  if (!follower.ok()) {
    teardown();
    return follower.status();
  }
  // The router hedges shard-0 batches onto the follower, so its copy
  // must exist before traffic starts (and this IS the first catch-up,
  // over a live FETCH_SNAPSHOT transfer).
  if (!wait_until([&] { return (*follower)->stats().last_version >= 1; },
                  Clock::now() + std::chrono::seconds(15))) {
    teardown();
    return Status::deadline_exceeded(
        "follower never finished its initial catch-up");
  }

  // ---- Router in front of everything. ----
  RouterOptions ropts;
  ropts.collection = "main";
  ropts.map = map;
  ropts.shards.resize(opts.num_shards);
  for (std::uint32_t k = 0; k < opts.num_shards; ++k) {
    ropts.shards[k].push_back({"127.0.0.1", procs[k].port});
  }
  ropts.shards[0].push_back({"127.0.0.1", follower_server->port()});
  ropts.io_timeout = std::chrono::seconds(3);
  ropts.connect_timeout = std::chrono::milliseconds(500);
  auto router = Router::create(ropts);
  if (!router.ok()) {
    teardown();
    return router.status();
  }
  auto rserver = net::Server::start(net::ServerOptions{}, *router);
  if (!rserver.ok()) {
    teardown();
    return rserver.status();
  }
  const std::uint16_t router_port = (*rserver)->port();

  // ---- Client fleet: seeded traffic + oracle through the router. ----
  Tallies tally;
  std::atomic<bool> stop{false};
  std::atomic<bool> revived{false};
  const auto make_batch = [&](std::mt19937_64& rng, std::size_t n) {
    std::vector<serve::PathQuery> batch(n);
    for (serve::PathQuery& q : batch) {
      std::vector<cat::NodeId> path{tree.root()};
      while (!tree.is_leaf(path.back())) {
        const auto kids = tree.children(path.back());
        path.push_back(kids[rng() % kids.size()]);
      }
      q.path = std::move(path);
      q.y = static_cast<cat::Key>(rng() % 1'000'000'000);
    }
    return batch;
  };
  const auto check_batch = [&](const std::vector<serve::PathQuery>& b,
                               const net::PathBatchResponse& resp) -> bool {
    if (resp.answers.size() != b.size()) {
      return false;
    }
    for (std::size_t qi = 0; qi < b.size(); ++qi) {
      const auto& ans = resp.answers[qi];
      if (ans.proper_index.size() != b[qi].path.size()) {
        return false;
      }
      for (std::size_t i = 0; i < b[qi].path.size(); ++i) {
        if (ans.proper_index[i] != tree.catalog(b[qi].path[i]).find(b[qi].y)) {
          return false;
        }
      }
    }
    return true;
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
        const auto batch = make_batch(rng, opts.batch_queries);
        auto resp = client.path_batch("main", batch);
        tally.batches.fetch_add(1, std::memory_order_relaxed);
        if (resp.ok()) {
          tally.answered.fetch_add(1, std::memory_order_relaxed);
          if (revived.load(std::memory_order_acquire)) {
            tally.answered_after_revive.fetch_add(1,
                                                  std::memory_order_relaxed);
          }
          if (!check_batch(batch, resp.value())) {
            tally.wrong_answers.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          const StatusCode code = resp.status().code();
          if (code == StatusCode::kUnavailable ||
              code == StatusCode::kDeadlineExceeded) {
            // The contract for a dead/slow shard: a typed shed.
            tally.typed_sheds.fetch_add(1, std::memory_order_relaxed);
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          } else {
            tally.fail("unexpected status through router: " +
                       resp.status().to_string());
          }
        }
      }
    });
  }

  // ---- Conductor: swap -> catch-up -> kill -> shed -> resurrect. ----
  ClusterSoakOutcome out;
  const auto begun = Clock::now();
  const auto hard_end = begun + opts.duration * 6 + std::chrono::seconds(10);
  const auto note = [&](const char* msg) {
    if (opts.verbose) {
      std::fprintf(stderr, "cluster-soak: %s\n", msg);
    }
  };

  std::this_thread::sleep_for(opts.duration / 4);

  // Publish a new generation on the shard-0 leader; the follower must
  // fetch it over FETCH_SNAPSHOT while the fleet keeps answering.
  note("SWAP on shard-0 leader");
  {
    net::ClientOptions copts;
    copts.io_timeout = std::chrono::seconds(5);
    auto admin = net::Client::connect("127.0.0.1", procs[0].port, copts);
    if (admin.ok()) {
      auto v = admin->swap("main", procs[0].snap_path);
      if (v.ok()) {
        ++out.swaps;
      } else {
        tally.fail("leader SWAP failed: " + v.status().to_string());
      }
    } else {
      tally.fail("cannot reach shard-0 for SWAP: " +
                 admin.status().to_string());
    }
  }
  (void)wait_until([&] { return (*follower)->stats().last_version >= 2; },
                   hard_end);

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
  note("SIGKILL shard");
  if (kill_proc(procs[victim].pid)) {
    ++out.kills;
  } else {
    tally.fail("kill(SIGKILL) of shard " + std::to_string(victim) +
               " failed");
  }
  (void)wait_until(
      [&] { return tally.typed_sheds.load(std::memory_order_relaxed) >= 1; },
      hard_end);
  std::this_thread::sleep_for(opts.duration / 4);

  // Resurrect the corpse on the same port; the breaker must close and
  // full-coverage serving must resume.
  note("resurrecting shard");
  if (Status s = launch(victim, procs[victim].port); s.ok()) {
    ++out.resurrections;
    revived.store(true, std::memory_order_release);
  } else {
    tally.fail("resurrection failed: " + s.to_string());
  }
  (void)wait_until(
      [&] {
        return tally.answered_after_revive.load(std::memory_order_relaxed) >=
               1;
      },
      hard_end);
  const auto min_end = begun + opts.duration;
  while (Clock::now() < min_end) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

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
      // Any node this shard owns; walk up to the root for its path.
      for (std::size_t v = 0; v < map.owner.size(); ++v) {
        if (map.owner[v] == s) {
          serve::PathQuery q;
          cat::NodeId u = static_cast<cat::NodeId>(v);
          while (true) {
            q.path.insert(q.path.begin(), u);
            if (u == tree.root()) {
              break;
            }
            u = tree.parent(u);
          }
          q.y = static_cast<cat::Key>(rng() % 1'000'000'000);
          sweep.push_back(std::move(q));
          break;
        }
      }
    }
    net::ClientOptions copts;
    copts.io_timeout = std::chrono::seconds(5);
    const auto sweep_until = Clock::now() + std::chrono::seconds(10);
    while (!out.final_sweep_ok && Clock::now() < sweep_until) {
      auto c = net::Client::connect("127.0.0.1", router_port, copts);
      if (c.ok()) {
        auto resp = c->path_batch("main", sweep);
        if (resp.ok() && check_batch(sweep, resp.value())) {
          out.final_sweep_ok = true;
          break;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }

  // ---- Teardown + outcome. ----
  const RouterStats rstats = (*router)->stats();
  const FollowerStats fstats = (*follower)->stats();
  (*follower)->stop();
  (*rserver)->stop();
  follower_server->stop();
  teardown();

  out.batches = tally.batches.load(std::memory_order_relaxed);
  out.answered = tally.answered.load(std::memory_order_relaxed);
  out.wrong_answers = tally.wrong_answers.load(std::memory_order_relaxed);
  out.typed_sheds = tally.typed_sheds.load(std::memory_order_relaxed);
  out.untyped_failures =
      tally.untyped_failures.load(std::memory_order_relaxed);
  out.answered_after_revive =
      tally.answered_after_revive.load(std::memory_order_relaxed);
  out.follower_catchups = fstats.catchups;
  out.follower_version = fstats.last_version;
  out.hedged_retries = rstats.hedged_retries;
  out.breaker_trips = rstats.breaker_trips;
  out.router_sheds = rstats.sheds;
  {
    std::lock_guard<std::mutex> lock(tally.failure_mu);
    out.first_failure = tally.first_failure;
  }
  out.goals_met = out.answered >= 1 && out.wrong_answers == 0 &&
                  out.untyped_failures == 0 && out.kills >= 1 &&
                  out.resurrections >= 1 && out.typed_sheds >= 1 &&
                  out.swaps >= 1 && out.follower_catchups >= 2 &&
                  out.answered_after_revive >= 1 && out.final_sweep_ok;

  if (out.wrong_answers > 0) {
    out.verdict = "FAIL: " + std::to_string(out.wrong_answers) +
                  " router-merged batches disagreed with the oracle";
  } else if (out.untyped_failures > 0) {
    out.verdict = "FAIL: " + std::to_string(out.untyped_failures) +
                  " requests got an unexpected status (first: " +
                  out.first_failure + ")";
  } else if (!out.goals_met) {
    out.verdict =
        "FAIL: soak ended without observing every cluster goal "
        "(kill/resurrect/shed/swap/catch-up/final-sweep)";
  } else {
    out.verdict =
        "OK: zero wrong answers through the router across a SIGKILL'd "
        "shard (" +
        std::to_string(out.typed_sheds) +
        " typed sheds), a same-port resurrection, and " +
        std::to_string(out.follower_catchups) +
        " follower catch-ups over FETCH_SNAPSHOT";
    std::filesystem::remove_all(opts.dir, ec);
  }
  return out;
}

}  // namespace cluster
