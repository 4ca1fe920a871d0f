// Scatter-gather router (DESIGN.md §15): deadline carving obeys its
// contract (a shard is never handed a deadline later than the client's),
// the router's merged answers are byte-identical to a single-process
// server over the unpartitioned structure, and a dead shard sheds its
// batches with a typed error while the rest of the tree keeps serving.
// Served as a net::Server backend, the router also inherits the server's
// frame hygiene and drain, and fans out without spawning threads.

#include "cluster/router.hpp"

#include <dirent.h>
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "catalog/tree.hpp"
#include "cluster/partition.hpp"
#include "fc/build.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "robust/corrupt.hpp"
#include "snapshot/snapshot.hpp"

namespace {

using coop::StatusCode;

TEST(CarveDeadline, NoClientDeadlineMeansNone) {
  EXPECT_EQ(cluster::carve_shard_deadline_ns(0, 0, 1000), 0u);
  EXPECT_EQ(cluster::carve_shard_deadline_ns(0, 123456, 0), 0u);
}

TEST(CarveDeadline, ExhaustedBudgetIsZero) {
  EXPECT_EQ(cluster::carve_shard_deadline_ns(100, 100, 10), 0u);
  EXPECT_EQ(cluster::carve_shard_deadline_ns(100, 5000, 10), 0u);
}

TEST(CarveDeadline, NeverLaterThanClientNeverStarved) {
  std::mt19937_64 rng(7);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t client = 1 + rng() % 2'000'000'000ull;
    const std::uint64_t elapsed = rng() % (client + client / 2 + 1);
    const std::uint64_t margin = rng() % 500'000'000ull;
    const std::uint64_t carved =
        cluster::carve_shard_deadline_ns(client, elapsed, margin);
    if (elapsed >= client) {
      EXPECT_EQ(carved, 0u);
      continue;
    }
    const std::uint64_t remaining = client - elapsed;
    // The shard's relative budget never exceeds what the client has
    // left: elapsed + carved <= client.
    EXPECT_LE(carved, remaining)
        << "client=" << client << " elapsed=" << elapsed
        << " margin=" << margin;
    // And while budget remains the shard is never starved to "no
    // deadline" (0 means none on the wire).
    EXPECT_GE(carved, 1u)
        << "client=" << client << " elapsed=" << elapsed
        << " margin=" << margin;
    // The margin is honoured whenever there is room for it.
    if (margin <= remaining / 2) {
      EXPECT_LE(carved, remaining - margin);
    }
  }
}

/// A shard's collection backend behind a gate the test can close: while
/// closed, requests wait inside serve(), i.e. stay in flight.
class GatedShard final : public net::Backend {
 public:
  net::CollectionMap& collections() { return inner_.collections(); }

  coop::Expected<std::vector<std::uint8_t>> serve(
      const net::Request& req) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++held_;
      cv_.notify_all();
      cv_.wait(lock, [&] { return open_; });
      --held_;
    }
    return inner_.serve(req);
  }
  std::vector<net::CollectionHealth> health() override {
    return inner_.health();
  }

  void set_open(bool open) {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = open;
    cv_.notify_all();
  }
  /// Block until a request is waiting at the closed gate.
  void wait_held() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return held_ > 0 && !open_; });
  }

 private:
  net::CollectionBackend inner_{1, serve::FrontendOptions{}};
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = true;
  int held_ = 0;
};

/// Threads in this process right now.
std::size_t thread_count() {
  std::size_t n = 0;
  if (DIR* d = ::opendir("/proc/self/task")) {
    while (const dirent* e = ::readdir(d)) {
      n += e->d_name[0] != '.';
    }
    ::closedir(d);
  }
  return n;
}

/// Three shard servers + a router in front, plus a single-process server
/// over the whole structure as the differential oracle.
class RouterTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kShards = 3;

  void SetUp() override {
    std::mt19937_64 rng(7);
    tree_ = cat::make_balanced_binary(5, 1500, cat::CatalogShape::kRandom,
                                      rng);
    auto structure = fc::Structure::build_checked(tree_);
    ASSERT_TRUE(structure.ok()) << structure.status().to_string();
    auto full = serve::FlatCascade::compile(*structure);
    ASSERT_TRUE(full.ok()) << full.status().to_string();

    auto plan = cluster::plan_partition(tree_, kShards);
    ASSERT_TRUE(plan.ok()) << plan.status().to_string();
    map_ = plan.take();

    cluster::RouterOptions ropts;
    ropts.collection = "main";
    ropts.map = map_;
    ropts.shards.resize(kShards);
    for (std::uint32_t s = 0; s < kShards; ++s) {
      auto slice = cluster::slice_shard(tree_, *structure, map_, s);
      ASSERT_TRUE(slice.ok()) << slice.status().to_string();
      const std::string path =
          "test_router_shard" + std::to_string(s) + ".snap";
      ASSERT_TRUE(snapshot::write(slice->flat, path).ok());
      net::ServerOptions sopts;
      sopts.workers = 2;
      auto shard = std::make_shared<GatedShard>();
      auto started = net::Server::start(sopts, shard);
      ASSERT_TRUE(started.ok()) << started.status().to_string();
      auto snap = snapshot::open(path);
      ASSERT_TRUE(snap.ok());
      ASSERT_TRUE(shard->collections().load("main", snap.take()).ok());
      ropts.shards[s].push_back({"127.0.0.1", started.value()->port()});
      shard_servers_.push_back(started.take());
      shards_.push_back(std::move(shard));
      snap_paths_.push_back(path);
    }

    const std::string full_path = "test_router_full.snap";
    ASSERT_TRUE(snapshot::write(*full, full_path).ok());
    net::ServerOptions sopts;
    sopts.workers = 2;
    sopts.engine_threads = 1;
    auto started = net::Server::start(sopts);
    ASSERT_TRUE(started.ok());
    auto snap = snapshot::open(full_path);
    ASSERT_TRUE(snap.ok());
    ASSERT_TRUE(
        started.value()->collections().load("main", snap.take()).ok());
    full_server_ = started.take();
    snap_paths_.push_back(full_path);

    ropts.io_timeout = std::chrono::seconds(2);
    ropts.connect_timeout = std::chrono::milliseconds(500);
    auto router = cluster::Router::create(std::move(ropts));
    ASSERT_TRUE(router.ok()) << router.status().to_string();
    router_ = router.take();
    auto served = net::Server::start(net::ServerOptions{}, router_);
    ASSERT_TRUE(served.ok()) << served.status().to_string();
    router_server_ = served.take();
  }

  void TearDown() override {
    for (const auto& shard : shards_) {
      shard->set_open(true);
    }
    router_server_.reset();
    router_.reset();
    shard_servers_.clear();
    full_server_.reset();
    for (const std::string& p : snap_paths_) {
      std::remove(p.c_str());
    }
  }

  net::Client connect(std::uint16_t port) {
    net::ClientOptions copts;
    copts.io_timeout = std::chrono::seconds(5);
    auto c = net::Client::connect("127.0.0.1", port, copts);
    EXPECT_TRUE(c.ok()) << c.status().to_string();
    return c.take();
  }

  std::vector<serve::PathQuery> make_batch(std::size_t n,
                                           std::mt19937_64& rng) {
    std::vector<serve::PathQuery> batch(n);
    for (auto& q : batch) {
      std::vector<cat::NodeId> path{tree_.root()};
      while (!tree_.is_leaf(path.back())) {
        const auto kids = tree_.children(path.back());
        path.push_back(kids[rng() % kids.size()]);
      }
      q.path = std::move(path);
      q.y = static_cast<cat::Key>(rng() % 1'000'000'000);
    }
    return batch;
  }

  cat::Tree tree_;
  cluster::RoutingMap map_;
  std::vector<std::shared_ptr<GatedShard>> shards_;
  std::vector<std::unique_ptr<net::Server>> shard_servers_;
  std::unique_ptr<net::Server> full_server_;
  std::shared_ptr<cluster::Router> router_;
  std::unique_ptr<net::Server> router_server_;
  std::vector<std::string> snap_paths_;
};

TEST_F(RouterTest, MergedAnswersAreByteIdenticalToSingleProcess) {
  net::Client through_router = connect(router_server_->port());
  net::Client direct = connect(full_server_->port());
  std::mt19937_64 rng(1234);
  for (int round = 0; round < 50; ++round) {
    const auto batch = make_batch(32, rng);
    auto a = through_router.path_batch("main", batch);
    ASSERT_TRUE(a.ok()) << a.status().to_string();
    auto b = direct.path_batch("main", batch);
    ASSERT_TRUE(b.ok()) << b.status().to_string();
    ASSERT_EQ(a->answers.size(), b->answers.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      // The merge is a pure un-permutation of positional answers, so
      // equality must be exact, not approximate.
      ASSERT_EQ(a->answers[i].aug_index, b->answers[i].aug_index)
          << "round " << round << " query " << i;
      ASSERT_EQ(a->answers[i].proper_index, b->answers[i].proper_index)
          << "round " << round << " query " << i;
    }
    EXPECT_EQ(a->served_version, b->served_version);
    EXPECT_EQ(a->degraded, b->degraded);
  }
  const cluster::RouterStats stats = router_->stats();
  EXPECT_GE(stats.batches_routed, 50u);
  EXPECT_EQ(stats.sheds, 0u);
}

TEST_F(RouterTest, DeadShardShedsTypedOthersKeepServing) {
  net::Client client = connect(router_server_->port());
  std::mt19937_64 rng(99);

  // Find a victim shard that owns at least one leaf, and a healthy
  // shard with a leaf of its own.
  auto leaf_owned_by = [&](std::uint32_t s) -> cat::NodeId {
    for (std::size_t v = 0; v < map_.owner.size(); ++v) {
      if (map_.owner[v] == s &&
          tree_.is_leaf(static_cast<cat::NodeId>(v))) {
        return static_cast<cat::NodeId>(v);
      }
    }
    return cat::kNullNode;
  };
  std::uint32_t victim = kShards, healthy = kShards;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    if (leaf_owned_by(s) == cat::kNullNode) {
      continue;
    }
    if (victim == kShards) {
      victim = s;
    } else if (healthy == kShards) {
      healthy = s;
    }
  }
  ASSERT_LT(victim, kShards);
  ASSERT_LT(healthy, kShards);

  auto path_to = [&](cat::NodeId leaf) {
    std::vector<cat::NodeId> path;
    cat::NodeId u = leaf;
    while (true) {
      path.insert(path.begin(), u);
      if (u == tree_.root()) {
        break;
      }
      u = tree_.parent(u);
    }
    return path;
  };
  serve::PathQuery on_victim;
  on_victim.path = path_to(leaf_owned_by(victim));
  on_victim.y = 42;
  serve::PathQuery on_healthy;
  on_healthy.path = path_to(leaf_owned_by(healthy));
  on_healthy.y = 42;

  shard_servers_[victim]->stop();

  // A batch touching the dead shard sheds as a typed error, not a hang
  // and not a partial answer.
  std::vector<serve::PathQuery> mixed{on_victim, on_healthy};
  bool shed_typed = false;
  for (int attempt = 0; attempt < 10 && !shed_typed; ++attempt) {
    auto resp = client.path_batch("main", mixed);
    ASSERT_FALSE(resp.ok()) << "batch for a dead shard was answered";
    const StatusCode code = resp.status().code();
    ASSERT_TRUE(code == StatusCode::kUnavailable ||
                code == StatusCode::kDeadlineExceeded)
        << resp.status().to_string();
    shed_typed = true;
  }
  EXPECT_TRUE(shed_typed);

  // Batches that avoid the dead shard still get full answers.
  std::vector<serve::PathQuery> healthy_only{on_healthy};
  auto ok_resp = client.path_batch("main", healthy_only);
  ASSERT_TRUE(ok_resp.ok()) << ok_resp.status().to_string();
  ASSERT_EQ(ok_resp->answers.size(), 1u);
  ASSERT_EQ(ok_resp->answers[0].proper_index.size(),
            on_healthy.path.size());
  for (std::size_t i = 0; i < on_healthy.path.size(); ++i) {
    EXPECT_EQ(ok_resp->answers[0].proper_index[i],
              tree_.catalog(on_healthy.path[i]).find(on_healthy.y));
  }
  const cluster::RouterStats stats = router_->stats();
  EXPECT_GE(stats.sheds, 1u);
}

TEST_F(RouterTest, UnknownCollectionAndVerbAreTyped) {
  net::Client client = connect(router_server_->port());
  std::mt19937_64 rng(5);
  const auto batch = make_batch(4, rng);
  auto resp = client.path_batch("nope", batch);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kInvalidArgument);
  // A verb the router does not route (admin LOAD) is refused, typed.
  auto admin = client.load("main", "whatever.snap");
  ASSERT_FALSE(admin.ok());
  EXPECT_EQ(admin.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(RouterTest, HealthReportsPerShardBreakerState) {
  net::Client client = connect(router_server_->port());
  auto h = client.health();
  ASSERT_TRUE(h.ok()) << h.status().to_string();
  ASSERT_EQ(h->collections.size(), kShards);
  for (const auto& col : h->collections) {
    EXPECT_EQ(col.health, 0u) << col.name;  // all endpoints closed/ok
  }
  // Stop a shard that actually receives traffic (owns a leaf) and drive
  // failing batches at it so the breaker observes the dead endpoint.
  std::uint32_t victim = kShards;
  serve::PathQuery probe;
  for (std::size_t v = 0; v < map_.owner.size() && victim == kShards;
       ++v) {
    if (!tree_.is_leaf(static_cast<cat::NodeId>(v))) {
      continue;
    }
    victim = map_.owner[v];
    cat::NodeId u = static_cast<cat::NodeId>(v);
    while (true) {
      probe.path.insert(probe.path.begin(), u);
      if (u == tree_.root()) {
        break;
      }
      u = tree_.parent(u);
    }
    probe.y = 7;
  }
  ASSERT_LT(victim, kShards);
  shard_servers_[victim]->stop();
  std::vector<serve::PathQuery> probe_batch{probe};
  for (int i = 0; i < 5; ++i) {
    (void)client.path_batch("main", probe_batch);
  }
  auto h2 = client.health();
  ASSERT_TRUE(h2.ok());
  bool any_unhealthy = false;
  for (const auto& col : h2->collections) {
    any_unhealthy |= col.health != 0;
  }
  EXPECT_TRUE(any_unhealthy)
      << "breaker state never surfaced in router HEALTH";
}

TEST_F(RouterTest, MalformedFrameGetsTypedErrorThenClose) {
  net::Client client = connect(router_server_->port());
  std::mt19937_64 rng(11);
  net::PathBatchRequest req;
  req.collection = "main";
  req.queries = make_batch(2, rng);
  net::FrameHeader fh;
  fh.type = static_cast<std::uint16_t>(net::MsgType::kPathBatch);
  fh.request_id = 5;
  auto frame = net::encode_frame(fh, net::encode(req));
  ASSERT_TRUE(robust::corrupt_frame(
                  frame, robust::CorruptionKind::kWireBitFlip, 3)
                  .ok());
  ASSERT_TRUE(client.send_raw(frame).ok());
  auto resp = client.read_frame();
  ASSERT_TRUE(resp.ok()) << resp.status().to_string();
  ASSERT_EQ(resp->header.type,
            static_cast<std::uint16_t>(net::MsgType::kError) |
                net::kResponseBit);
  auto err = net::decode_error(resp->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(static_cast<StatusCode>(err->code), StatusCode::kCorrupted);
  EXPECT_FALSE(client.read_frame().ok());  // the stream is forfeit
  EXPECT_GE(router_server_->stats().malformed, 1u);
}

TEST_F(RouterTest, OversizePrefixGetsTypedErrorThenClose) {
  net::Client client = connect(router_server_->port());
  const std::uint32_t huge = 100u << 20;  // 100 MB announcement
  std::vector<std::uint8_t> prefix(sizeof(huge));
  std::memcpy(prefix.data(), &huge, sizeof(huge));
  ASSERT_TRUE(client.send_raw(prefix).ok());
  auto resp = client.read_frame();
  ASSERT_TRUE(resp.ok()) << resp.status().to_string();
  ASSERT_EQ(resp->header.type,
            static_cast<std::uint16_t>(net::MsgType::kError) |
                net::kResponseBit);
  auto err = net::decode_error(resp->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(static_cast<StatusCode>(err->code), StatusCode::kCorrupted);
  EXPECT_FALSE(client.read_frame().ok());
}

TEST_F(RouterTest, DrainFinishesInFlightBatchThenRefuses) {
  net::Client first = connect(router_server_->port());
  net::Client second = connect(router_server_->port());
  std::mt19937_64 rng(21);
  const auto batch = make_batch(32, rng);
  // Hold every shard so the batch is mid-gather when the drain begins.
  for (const auto& shard : shards_) {
    shard->set_open(false);
  }
  coop::Expected<net::PathBatchResponse> in_flight =
      coop::Status::internal("not answered");
  std::thread t([&] { in_flight = first.path_batch("main", batch); });
  shards_[map_.owner[batch[0].path.back()]]->wait_held();
  router_server_->begin_drain();

  auto refused = second.path_batch("main", batch);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);

  for (const auto& shard : shards_) {
    shard->set_open(true);
  }
  t.join();
  ASSERT_TRUE(in_flight.ok()) << in_flight.status().to_string();
  ASSERT_EQ(in_flight->answers.size(), batch.size());
  for (std::size_t qi = 0; qi < batch.size(); ++qi) {
    for (std::size_t i = 0; i < batch[qi].path.size(); ++i) {
      EXPECT_EQ(in_flight->answers[qi].proper_index[i],
                tree_.catalog(batch[qi].path[i]).find(batch[qi].y));
    }
  }
  first.close();
  second.close();
  EXPECT_TRUE(router_server_->wait_drained(std::chrono::seconds(5)));
}

TEST_F(RouterTest, RoutedBatchesSpawnNoThreads) {
  net::Client client = connect(router_server_->port());
  std::mt19937_64 rng(31);
  // Warm up: the router's shard connections are opened lazily.
  ASSERT_TRUE(client.path_batch("main", make_batch(32, rng)).ok());

  // Sample the thread count for the whole run: a thread spawned and
  // joined inside one batch is visible only while it lives.
  std::atomic<bool> done{false};
  std::atomic<std::size_t> peak{0};
  std::thread sampler([&] {
    while (!done.load()) {
      const std::size_t n = thread_count();
      if (n > peak.load()) {
        peak.store(n);
      }
    }
  });
  while (peak.load() == 0) {
    std::this_thread::yield();
  }
  const std::size_t before = thread_count();
  std::size_t multi_shard = 0;
  for (int i = 0; i < 200; ++i) {
    const auto batch = make_batch(32, rng);
    std::vector<bool> touched(kShards, false);
    for (const auto& q : batch) {
      touched[map_.owner[q.path.back()]] = true;
    }
    multi_shard += std::count(touched.begin(), touched.end(), true) >= 2;
    ASSERT_TRUE(client.path_batch("main", batch).ok());
  }
  done.store(true);
  sampler.join();
  EXPECT_EQ(multi_shard, 200u);
  EXPECT_EQ(peak.load(), before);
}

}  // namespace
