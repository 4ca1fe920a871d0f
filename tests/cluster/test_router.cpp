// Scatter-gather router (DESIGN.md §15): deadline carving obeys its
// contract (a shard is never handed a deadline later than the client's),
// the router's merged answers are byte-identical to a single-process
// server over the unpartitioned structure, and a dead shard sheds its
// batches with a typed error while the rest of the tree keeps serving.
// Served as a net::Server backend, the router also inherits the server's
// frame hygiene and drain, and fans out without spawning threads.  Its
// byte-level scatter and splice accept exactly what the reference
// decoders accept and build the same bytes, its refusals keep their
// codes and precedence, and a damaged shard reply is a breaker failure
// and a typed shed, never a partial answer.

#include "cluster/router.hpp"

#include <arpa/inet.h>
#include <dirent.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <type_traits>
#include <vector>

#include "catalog/tree.hpp"
#include "cluster/partition.hpp"
#include "dyn/delta.hpp"
#include "fc/build.hpp"
#include "helpers.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "robust/corrupt.hpp"
#include "snapshot/snapshot.hpp"

namespace {

using coop::StatusCode;
using test_helpers::vec;

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

// ---------------------------------------------------------------------
// The byte-level scatter and splice against the reference codec: for
// every one-byte flip and every truncation of a client request or a
// shard reply, they accept exactly what the decoders accept, and what
// they build is byte-identical to decode -> remap -> encode.

/// The router's PathRouter: RoutingMap::route behind the codec's
/// interface.
class MapPaths final : public net::PathRouter {
 public:
  explicit MapPaths(const cluster::RoutingMap& map) : map_(map) {}
  std::uint32_t num_shards() const override { return map_.num_shards; }
  coop::Expected<std::uint32_t> route(
      std::span<std::uint32_t> path) const override {
    return map_.route(path);
  }

 private:
  const cluster::RoutingMap& map_;
};

/// The scatter a router did before it worked on bytes: decode, then per
/// query check the path, remap it to the owner of its last node, and
/// re-encode each shard's queries.
struct ReferenceScatter {
  coop::Status status;
  std::string collection;
  std::map<std::uint32_t, std::vector<std::uint8_t>> subs;  ///< by shard
  std::vector<std::pair<std::uint32_t, std::uint32_t>> slots;
};

template <typename Req, typename Decode>
ReferenceScatter reference_scatter(std::span<const std::uint8_t> payload,
                                   const cluster::RoutingMap& map,
                                   Decode decode) {
  ReferenceScatter out;
  auto decoded = decode(payload, net::DecodeLimits{});
  if (!decoded.ok()) {
    out.status = decoded.status();
    return out;
  }
  out.collection = decoded->collection;
  std::map<std::uint32_t, Req> subs;
  for (const serve::PathQuery& q : decoded->queries) {
    if (q.path.empty()) {
      out.status = coop::Status::invalid_argument("empty query path");
      return out;
    }
    for (const serve::NodeId v : q.path) {
      if (v < 0 || static_cast<std::size_t>(v) >= map.num_nodes()) {
        out.status = coop::Status::invalid_argument(
            "query path node " + std::to_string(v) + " out of range");
        return out;
      }
    }
    const std::uint32_t shard = map.owner[q.path.back()];
    serve::PathQuery local;
    local.y = q.y;
    for (const serve::NodeId v : q.path) {
      const std::int32_t l = map.global_to_local[shard][v];
      if (l < 0) {
        out.status = coop::Status::invalid_argument(
            "query path node " + std::to_string(v) + " is not on shard " +
            std::to_string(shard) + " (paths must descend from the root)");
        return out;
      }
      local.path.push_back(l);
    }
    Req& sub = subs[shard];
    sub.collection = decoded->collection;
    out.slots.emplace_back(shard, sub.queries.size());
    sub.queries.push_back(std::move(local));
  }
  for (const auto& [shard, sub] : subs) {
    out.subs[shard] = net::encode(sub);
  }
  return out;
}

/// Compare the byte-level scatter of `payload` with the reference.
void expect_same_scatter(net::MsgType verb,
                         std::span<const std::uint8_t> payload,
                         const cluster::RoutingMap& map,
                         const std::string& where) {
  const ReferenceScatter ref =
      verb == net::MsgType::kPathBatch
          ? reference_scatter<net::PathBatchRequest>(
                payload, map, net::decode_path_request)
          : reference_scatter<net::DynPathBatchRequest>(
                payload, map, net::decode_dyn_path_request);
  const MapPaths paths(map);
  auto got = net::scatter_path_request(verb, payload, paths);
  if (!got.ok()) {
    // Only a payload the decoder refuses may fail here, with its Status.
    ASSERT_EQ(got.status().to_string(), ref.status.to_string()) << where;
    return;
  }
  ASSERT_EQ(got->collection, ref.collection) << where;
  if (!got->refused.ok()) {
    ASSERT_EQ(got->refused.to_string(), ref.status.to_string()) << where;
    EXPECT_TRUE(got->subs.empty()) << where;
    EXPECT_TRUE(got->slots.empty()) << where;
    return;
  }
  ASSERT_TRUE(ref.status.ok()) << where << ": " << ref.status.to_string();
  ASSERT_EQ(got->subs.size(), ref.subs.size()) << where;
  for (const net::SubBatch& sub : got->subs) {
    const auto it = ref.subs.find(sub.shard);
    ASSERT_NE(it, ref.subs.end()) << where;
    ASSERT_EQ(sub.payload, it->second) << where << " shard " << sub.shard;
  }
  ASSERT_EQ(got->slots.size(), ref.slots.size()) << where;
  for (std::size_t i = 0; i < ref.slots.size(); ++i) {
    const net::QuerySlot slot = got->slots[i];
    EXPECT_EQ(got->subs[slot.sub].shard, ref.slots[i].first) << where;
    EXPECT_EQ(slot.index, ref.slots[i].second) << where;
  }
}

/// Every one-byte flip (three masks) and every truncation of `bytes`,
/// and `bytes` with one trailing byte.
template <typename Check>
void for_each_mutation(const std::vector<std::uint8_t>& bytes, Check check) {
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    for (const std::uint8_t mask : {0x01, 0x40, 0xFF}) {
      std::vector<std::uint8_t> m = bytes;
      m[pos] = static_cast<std::uint8_t>(m[pos] ^ mask);
      check(m, "flip " + std::to_string(mask) + " at byte " +
                   std::to_string(pos));
    }
  }
  for (std::size_t len = 0; len <= bytes.size(); ++len) {
    check(std::vector<std::uint8_t>(
              bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(len)),
          "truncated to " + std::to_string(len));
  }
  std::vector<std::uint8_t> longer = bytes;
  longer.push_back(0);
  check(longer, "one trailing byte");
}

/// A small partitioned tree and a six-query request over random
/// root-to-leaf paths.
class ByteRouting : public ::testing::Test {
 protected:
  void SetUp() override {
    std::mt19937_64 rng(3);
    tree_ = cat::make_balanced_binary(4, 200, cat::CatalogShape::kRandom,
                                      rng);
    auto plan = cluster::plan_partition(tree_, 3);
    ASSERT_TRUE(plan.ok()) << plan.status().to_string();
    map_ = plan.take();
    for (int i = 0; i < 6; ++i) {
      serve::PathQuery q;
      q.path = serve::random_path(tree_, rng);
      q.y = static_cast<cat::Key>(rng() % 100'000) - 50;
      queries_.push_back(std::move(q));
    }
  }

  cat::Tree tree_;
  cluster::RoutingMap map_;
  std::vector<serve::PathQuery> queries_;
};

TEST_F(ByteRouting, PathRequestScatterMatchesReferenceUnderEveryFlip) {
  const auto bytes = net::encode(net::PathBatchRequest{"main", queries_});
  for_each_mutation(bytes, [&](const std::vector<std::uint8_t>& m,
                               const std::string& where) {
    expect_same_scatter(net::MsgType::kPathBatch, m, map_, where);
  });
}

TEST_F(ByteRouting, DynRequestScatterMatchesReferenceUnderEveryFlip) {
  const auto bytes = net::encode(net::DynPathBatchRequest{"main", queries_});
  for_each_mutation(bytes, [&](const std::vector<std::uint8_t>& m,
                               const std::string& where) {
    expect_same_scatter(net::MsgType::kDynPathBatch, m, map_, where);
  });
}

TEST_F(ByteRouting, ScatterRefusalsKeepTheirPrecedence) {
  const MapPaths paths(map_);
  auto scatter = [&](std::vector<serve::PathQuery> qs,
                     const std::string& collection) {
    return net::scatter_path_request(
        net::MsgType::kPathBatch,
        net::encode(net::PathBatchRequest{collection, std::move(qs)}),
        paths);
  };
  std::vector<serve::PathQuery> bad = queries_;
  bad[1].path.clear();
  bad[3].path.back() = static_cast<cat::NodeId>(map_.num_nodes());
  auto got = scatter(bad, "main");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->refused.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(got->refused.message(), "empty query path");  // the first
  // A layout error anywhere beats a refused path before it.
  auto bytes = net::encode(net::PathBatchRequest{"main", bad});
  bytes.pop_back();
  auto cut = net::scatter_path_request(net::MsgType::kPathBatch, bytes, paths);
  ASSERT_FALSE(cut.ok());
  EXPECT_EQ(cut.status().code(), StatusCode::kCorrupted);
  // The collection name is returned for the router to check.
  auto other = scatter(queries_, "other");
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other->collection, "other");
}

/// Splice `a` and `b` (interleaved, so neither reply's answers stay
/// together) against the reference merge, for every flip and truncation
/// of `a`'s bytes.
template <typename Resp, typename Decode>
void check_splice(net::MsgType verb, const Resp& a, const Resp& b,
                  Decode decode) {
  const std::vector<std::uint8_t> b_bytes = net::encode(b);
  auto b_index = net::index_path_reply(verb, b_bytes);
  ASSERT_TRUE(b_index.ok()) << b_index.status().to_string();
  for_each_mutation(
      net::encode(a),
      [&](const std::vector<std::uint8_t>& m, const std::string& where) {
        auto ref = decode(m, net::DecodeLimits{});
        auto got = net::index_path_reply(verb, m);
        if (!ref.ok()) {
          ASSERT_FALSE(got.ok()) << where;
          ASSERT_EQ(got.status().to_string(), ref.status().to_string())
              << where;
          return;
        }
        ASSERT_TRUE(got.ok()) << where << ": " << got.status().to_string();
        ASSERT_EQ(got->answers(), ref->answers.size()) << where;
        EXPECT_EQ(got->served_version, ref->served_version) << where;
        // Reference: un-permute decoded answers into a merged response.
        auto ref_b = decode(b_bytes, net::DecodeLimits{});
        std::vector<net::QuerySlot> slots;
        std::vector<std::vector<std::uint32_t>> aug, proper;
        dyn::PathKeySet keys;
        const std::size_t n = ref->answers.size() + ref_b->answers.size();
        for (std::size_t i = 0, ia = 0, ib = 0; i < n; ++i) {
          const bool from_a = (i % 2 == 0 && ia < ref->answers.size()) ||
                              ib == ref_b->answers.size();
          const std::uint32_t j =
              static_cast<std::uint32_t>(from_a ? ia++ : ib++);
          slots.push_back({from_a ? 0u : 1u, j});
          const auto answer = (from_a ? *ref : *ref_b).answers[j];
          if constexpr (std::is_same_v<Resp, net::PathBatchResponse>) {
            aug.push_back(vec(answer.aug_index));
            proper.push_back(vec(answer.proper_index));
          } else {
            keys.push_back({vec(answer.keys)});
          }
        }
        const std::uint64_t version =
            std::min(ref->served_version, ref_b->served_version);
        std::vector<std::uint8_t> want;
        if constexpr (std::is_same_v<Resp, net::PathBatchResponse>) {
          want = net::encode_path_response(
              version, ref->degraded || ref_b->degraded,
              test_helpers::answer_set(aug, proper));
        } else {
          want = net::encode_dyn_path_response(
              version, std::min(ref->write_seq, ref_b->write_seq), keys);
        }
        const net::PathReply replies[] = {got.take(), *b_index};
        std::vector<std::uint8_t> spliced;
        net::splice_path_replies(verb, replies, slots, spliced);
        ASSERT_EQ(spliced, want) << where;
      });
}

TEST_F(ByteRouting, PathReplySpliceMatchesReferenceUnderEveryFlip) {
  std::mt19937_64 rng(17);
  auto answers = [&](std::size_t n) {
    net::PathBatchResponse r;
    r.served_version = 3 + rng() % 4;
    r.degraded = rng() % 2 == 0;
    std::vector<std::vector<std::uint32_t>> aug(n), proper(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = 0; k < 1 + i % 4; ++k) {
        aug[i].push_back(static_cast<std::uint32_t>(rng() % 5000));
        proper[i].push_back(static_cast<std::uint32_t>(rng() % 5000));
      }
    }
    r.answers = test_helpers::answer_set(aug, proper);
    return r;
  };
  check_splice(net::MsgType::kPathBatch, answers(4), answers(3),
               net::decode_path_response);
}

TEST_F(ByteRouting, DynReplySpliceMatchesReferenceUnderEveryFlip) {
  std::mt19937_64 rng(19);
  auto answers = [&](std::size_t n) {
    net::DynPathBatchResponse r;
    r.served_version = 3 + rng() % 4;
    r.write_seq = 10 + rng() % 40;
    for (std::size_t i = 0; i < n; ++i) {
      dyn::PathKeys a;
      for (std::size_t k = 0; k < 1 + i % 4; ++k) {
        a.keys.push_back(static_cast<cat::Key>(rng() % 100'000) - 50);
      }
      r.answers.push_back(std::move(a));
    }
    return r;
  };
  check_splice(net::MsgType::kDynPathBatch, answers(4), answers(3),
               net::decode_dyn_path_response);
}

/// A shard's collection backend behind a gate the test can close: while
/// closed, requests wait inside serve(), i.e. stay in flight.
class GatedShard final : public net::Backend {
 public:
  net::CollectionMap& collections() { return inner_.collections(); }

  coop::Status serve(const net::Request& req,
                     std::vector<std::uint8_t>& out) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++held_;
      cv_.notify_all();
      cv_.wait(lock, [&] { return open_; });
      --held_;
    }
    return inner_.serve(req, out);
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

/// A replica that answers through another shard's backend, then damages
/// the reply before it leaves.
class MangledShard final : public net::Backend {
 public:
  enum class Damage { kDropAnswer, kTruncate, kTrailingByte };

  MangledShard(std::shared_ptr<net::Backend> inner, Damage damage)
      : inner_(std::move(inner)), damage_(damage) {}

  coop::Status serve(const net::Request& req,
                     std::vector<std::uint8_t>& out) override {
    const std::size_t start = out.size();
    if (coop::Status s = inner_->serve(req, out); !s.ok()) {
      return s;
    }
    switch (damage_) {
      case Damage::kDropAnswer: {
        auto index = net::index_path_reply(
            net::MsgType::kPathBatch,
            std::vector<std::uint8_t>(
                out.begin() + static_cast<std::ptrdiff_t>(start), out.end()));
        if (!index.ok()) {
          return index.status();
        }
        std::vector<net::QuerySlot> slots;
        for (std::uint32_t i = 0; i + 1 < index->answers(); ++i) {
          slots.push_back({0, i});
        }
        const net::PathReply replies[] = {index.take()};
        out.resize(start);
        net::splice_path_replies(net::MsgType::kPathBatch, replies, slots,
                                 out);
        break;
      }
      case Damage::kTruncate:
        out.pop_back();
        break;
      case Damage::kTrailingByte:
        out.push_back(0);
        break;
    }
    return coop::OkStatus();
  }
  std::vector<net::CollectionHealth> health() override {
    return inner_->health();
  }

 private:
  std::shared_ptr<net::Backend> inner_;
  Damage damage_;
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

  /// A router over `replicas` (per shard), served by its own server.
  struct Routed {
    std::shared_ptr<cluster::Router> router;
    std::unique_ptr<net::Server> server;
  };
  Routed route_over(std::vector<std::vector<cluster::Endpoint>> replicas) {
    cluster::RouterOptions ropts;
    ropts.map = map_;
    ropts.shards = std::move(replicas);
    ropts.io_timeout = std::chrono::seconds(2);
    ropts.connect_timeout = std::chrono::milliseconds(500);
    auto router = cluster::Router::create(std::move(ropts));
    EXPECT_TRUE(router.ok()) << router.status().to_string();
    Routed r{router.take(), nullptr};
    auto served = net::Server::start(net::ServerOptions{}, r.router);
    EXPECT_TRUE(served.ok()) << served.status().to_string();
    r.server = served.take();
    return r;
  }

  /// Every shard's own endpoint, one replica each.
  std::vector<std::vector<cluster::Endpoint>> direct_replicas() const {
    std::vector<std::vector<cluster::Endpoint>> replicas(kShards);
    for (std::uint32_t s = 0; s < kShards; ++s) {
      replicas[s].push_back({"127.0.0.1", shard_servers_[s]->port()});
    }
    return replicas;
  }

  /// The root-to-v path.
  std::vector<cat::NodeId> path_to(cat::NodeId v) const {
    std::vector<cat::NodeId> path;
    for (cat::NodeId u = v;; u = tree_.parent(u)) {
      path.insert(path.begin(), u);
      if (u == tree_.root()) {
        return path;
      }
    }
  }

  /// The first leaf `shard` owns, or kNullNode.
  cat::NodeId leaf_of(std::uint32_t shard) const {
    for (std::size_t v = 0; v < map_.owner.size(); ++v) {
      if (map_.owner[v] == shard &&
          tree_.is_leaf(static_cast<cat::NodeId>(v))) {
        return static_cast<cat::NodeId>(v);
      }
    }
    return cat::kNullNode;
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
      ASSERT_EQ(vec(a->answers[i].aug_index), vec(b->answers[i].aug_index))
          << "round " << round << " query " << i;
      ASSERT_EQ(vec(a->answers[i].proper_index),
                vec(b->answers[i].proper_index))
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
  std::uint32_t victim = kShards, healthy = kShards;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    if (leaf_of(s) == cat::kNullNode) {
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

  serve::PathQuery on_victim;
  on_victim.path = path_to(leaf_of(victim));
  on_victim.y = 42;
  serve::PathQuery on_healthy;
  on_healthy.path = path_to(leaf_of(healthy));
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

TEST_F(RouterTest, StalledShardShedsWithinTheClientDeadline) {
  // An endpoint whose kernel completes the handshake but whose process
  // never accepts, so a request to it is never answered.
  const int stalled = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(
      ::bind(stalled, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(stalled, 16), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(
      ::getsockname(stalled, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  std::uint32_t victim = kShards;
  for (std::uint32_t s = 0; s < kShards && victim == kShards; ++s) {
    if (leaf_of(s) != cat::kNullNode) {
      victim = s;
    }
  }
  ASSERT_LT(victim, kShards);
  auto replicas = direct_replicas();
  replicas[victim] = {{"127.0.0.1", ntohs(addr.sin_port)}};
  Routed routed = route_over(std::move(replicas));  // io_timeout 2 s

  net::Client client = connect(routed.server->port());
  client.options().deadline_ns = 300'000'000;
  serve::PathQuery q;
  q.path = path_to(leaf_of(victim));
  q.y = 42;
  const std::vector<serve::PathQuery> batch{q};
  const auto t0 = std::chrono::steady_clock::now();
  auto resp = client.path_batch("main", batch);
  const auto waited = std::chrono::steady_clock::now() - t0;
  ASSERT_FALSE(resp.ok()) << "a stalled shard's batch was answered";
  const StatusCode code = resp.status().code();
  EXPECT_TRUE(code == StatusCode::kDeadlineExceeded ||
              code == StatusCode::kUnavailable)
      << resp.status().to_string();
  // The leg's socket waits for the carved deadline, not the router's
  // 2 s io_timeout.
  EXPECT_LT(waited, std::chrono::milliseconds(1500));
  routed.server.reset();
  ::close(stalled);
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

TEST_F(RouterTest, BadPathsAreRefusedAsInvalidArguments) {
  net::Client client = connect(router_server_->port());
  std::uint32_t a = kShards, b = kShards;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    if (leaf_of(s) != cat::kNullNode) {
      (a == kShards ? a : b) = s;
    }
  }
  ASSERT_LT(b, kShards) << "need two shards that own leaves";
  std::mt19937_64 rng(41);
  const auto good = make_batch(3, rng);
  auto refused = [&](std::vector<cat::NodeId> path) {
    std::vector<serve::PathQuery> batch = good;
    batch[1].path = std::move(path);
    auto resp = client.path_batch("main", batch);
    EXPECT_FALSE(resp.ok());
    return resp.status();
  };
  const coop::Status empty = refused({});
  EXPECT_EQ(empty.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(empty.message().find("empty query path"), std::string::npos);
  for (const cat::NodeId v :
       {static_cast<cat::NodeId>(map_.num_nodes()), cat::NodeId{-1}}) {
    const coop::Status out = refused({tree_.root(), v});
    EXPECT_EQ(out.code(), StatusCode::kInvalidArgument) << v;
    EXPECT_NE(out.message().find("out of range"), std::string::npos)
        << out.to_string();
  }
  // A leaf of shard a, then a leaf of shard b: b does not keep a's leaf.
  const coop::Status off = refused({leaf_of(a), leaf_of(b)});
  EXPECT_EQ(off.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(off.message().find("is not on shard"), std::string::npos)
      << off.to_string();
  // An unknown collection is reported before a bad path.
  std::vector<serve::PathQuery> both = good;
  both[2].path.clear();
  auto unknown = client.path_batch("ghost", both);
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("unknown collection"),
            std::string::npos);
  // No refused request reached a shard, and the stream still serves.
  EXPECT_EQ(router_->stats().sub_batches_sent, 0u);
  EXPECT_TRUE(client.path_batch("main", good).ok());
}

TEST_F(RouterTest, TruncatedOrTrailingRequestIsCorrupted) {
  net::Client client = connect(router_server_->port());
  std::mt19937_64 rng(43);
  for (const net::MsgType verb :
       {net::MsgType::kPathBatch, net::MsgType::kDynPathBatch}) {
    auto batch = make_batch(4, rng);
    batch[0].path.clear();  // a decode error wins over a bad path
    const std::vector<std::uint8_t> whole =
        net::encode(net::PathBatchRequest{"main", batch});
    std::vector<std::uint8_t> cut(whole.begin(), whole.end() - 1);
    std::vector<std::uint8_t> trailing = whole;
    trailing.push_back(7);
    for (const auto& payload : {cut, trailing}) {
      ASSERT_TRUE(client.send_request(verb, payload).ok());
      auto resp = client.recv_response();
      ASSERT_FALSE(resp.ok());
      EXPECT_EQ(resp.status().code(), StatusCode::kCorrupted)
          << resp.status().to_string();
    }
  }
  EXPECT_EQ(router_->stats().sub_batches_sent, 0u);
  EXPECT_TRUE(client.path_batch("main", make_batch(4, rng)).ok());
}

TEST_F(RouterTest, DamagedShardReplyIsABreakerFailureAndATypedShed) {
  std::uint32_t victim = kShards;
  for (std::uint32_t s = 0; s < kShards && victim == kShards; ++s) {
    if (leaf_of(s) != cat::kNullNode) {
      victim = s;
    }
  }
  ASSERT_LT(victim, kShards);
  serve::PathQuery probe;
  probe.path = path_to(leaf_of(victim));
  probe.y = 1234;
  std::mt19937_64 rng(47);
  std::vector<serve::PathQuery> batch = make_batch(7, rng);
  batch.push_back(probe);

  using Damage = MangledShard::Damage;
  for (const Damage damage :
       {Damage::kDropAnswer, Damage::kTruncate, Damage::kTrailingByte}) {
    SCOPED_TRACE(static_cast<int>(damage));
    auto mangler = std::make_shared<MangledShard>(shards_[victim], damage);
    auto mangled = net::Server::start(net::ServerOptions{}, mangler);
    ASSERT_TRUE(mangled.ok()) << mangled.status().to_string();
    const cluster::Endpoint bad{"127.0.0.1", mangled.value()->port()};

    // The damaged replica alone: every batch it touches is shed, typed,
    // and its breaker counts each reply as a failure until it trips.
    auto replicas = direct_replicas();
    replicas[victim] = {bad};
    Routed alone = route_over(replicas);
    net::Client client = connect(alone.server->port());
    for (int i = 0; i < 3; ++i) {
      auto resp = client.path_batch("main", batch);
      ASSERT_FALSE(resp.ok()) << "a damaged reply was answered";
      const StatusCode code = resp.status().code();
      EXPECT_TRUE(code == StatusCode::kCorrupted ||
                  code == StatusCode::kInternal)
          << resp.status().to_string();
    }
    cluster::RouterStats stats = alone.router->stats();
    EXPECT_EQ(stats.sheds, 3u);
    EXPECT_EQ(stats.batches_routed, 0u);
    EXPECT_EQ(stats.shard_failures, 3u);
    EXPECT_EQ(stats.breaker_trips, 1u);
    auto shed = client.path_batch("main", batch);  // breaker open now
    ASSERT_FALSE(shed.ok());
    EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);

    // With a healthy replica behind it, the hedge answers in full.
    replicas[victim] = {bad, {"127.0.0.1", shard_servers_[victim]->port()}};
    Routed hedged = route_over(replicas);
    net::Client hc = connect(hedged.server->port());
    net::Client direct = connect(full_server_->port());
    auto got = hc.path_batch("main", batch);
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    auto want = direct.path_batch("main", batch);
    ASSERT_TRUE(want.ok()) << want.status().to_string();
    ASSERT_EQ(got->answers.size(), want->answers.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(vec(got->answers[i].aug_index),
                vec(want->answers[i].aug_index));
      EXPECT_EQ(vec(got->answers[i].proper_index),
                vec(want->answers[i].proper_index));
    }
    stats = hedged.router->stats();
    EXPECT_EQ(stats.shard_failures, 1u);
    EXPECT_EQ(stats.hedged_retries, 1u);
    EXPECT_EQ(stats.batches_routed, 1u);
  }
}

TEST_F(RouterTest, RoutedDynPathBatchIsByteIdenticalToSingleProcess) {
  dyn::DynamicCatalog::Options copts;
  dyn::Compactor::Options kopts;  // in-memory snapshots, no thread
  for (const auto& shard : shards_) {
    ASSERT_TRUE(
        shard->collections().make_dynamic("main", copts, kopts, false).ok());
  }
  ASSERT_TRUE(full_server_->collections()
                  .make_dynamic("main", copts, kopts, false)
                  .ok());
  std::mt19937_64 rng(53);
  std::vector<std::vector<serve::PathQuery>> batches;
  for (int round = 0; round < 30; ++round) {
    batches.push_back(make_batch(16, rng));
  }
  // The same write batch on the root (local id 0 on every shard, which
  // all keep it) moves the overlay of every server alike.
  std::vector<dyn::Mutation> muts;
  for (const auto& batch : batches) {
    for (std::size_t i = 0; i < 4; ++i) {
      muts.push_back({0, batch[i].y + 1, dyn::Op::kInsert});
    }
  }
  std::vector<std::vector<std::uint8_t>> blobs;
  for (const dyn::Run& r : dyn::runs_from_mutations(muts)) {
    blobs.push_back(dyn::encode_run(r));
  }
  for (const auto& server : shard_servers_) {
    net::Client c = connect(server->port());
    ASSERT_TRUE(c.mutate("main", blobs).ok());
  }
  net::Client direct = connect(full_server_->port());
  ASSERT_TRUE(direct.mutate("main", blobs).ok());

  net::Client through_router = connect(router_server_->port());
  for (std::size_t round = 0; round < batches.size(); ++round) {
    const auto payload =
        net::encode(net::DynPathBatchRequest{"main", batches[round]});
    ASSERT_TRUE(
        through_router.send_request(net::MsgType::kDynPathBatch, payload)
            .ok());
    auto a = through_router.recv_response();
    ASSERT_TRUE(a.ok()) << a.status().to_string();
    ASSERT_TRUE(
        direct.send_request(net::MsgType::kDynPathBatch, payload).ok());
    auto b = direct.recv_response();
    ASSERT_TRUE(b.ok()) << b.status().to_string();
    ASSERT_EQ(a->payload, b->payload) << "round " << round;
  }
  // The writes are visible, and the router's header is the oldest one.
  auto resp = through_router.dyn_path_batch("main", batches[0]);
  ASSERT_TRUE(resp.ok());
  EXPECT_GT(resp->write_seq, 0u);
  EXPECT_LE(resp->answers[0].keys[0], batches[0][0].y + 1);
}

}  // namespace
