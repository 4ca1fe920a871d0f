// End-to-end loopback tests for the framed-TCP serving plane: real
// sockets, a real Server, a real Client, and the catalog oracle.

#include "net/server.hpp"

#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdio>
#include <limits>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <span>
#include <thread>

#include "catalog/tree.hpp"
#include "fc/build.hpp"
#include "net/client.hpp"
#include "dyn/delta.hpp"
#include "robust/corrupt.hpp"
#include "snapshot/snapshot.hpp"

namespace {

using coop::Status;
using coop::StatusCode;

constexpr const char* kSnapPath = "test_net_server.snap";

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::mt19937_64 rng(7);
    tree_ = cat::make_balanced_binary(5, 1500, cat::CatalogShape::kRandom,
                                      rng);
    auto structure = fc::Structure::build_checked(tree_);
    ASSERT_TRUE(structure.ok()) << structure.status().to_string();
    auto flat = serve::FlatCascade::compile(*structure);
    ASSERT_TRUE(flat.ok()) << flat.status().to_string();
    ASSERT_TRUE(snapshot::write(*flat, kSnapPath).ok());

    net::ServerOptions opts;
    opts.workers = 2;
    opts.engine_threads = 2;
    auto started = net::Server::start(customize(opts));
    ASSERT_TRUE(started.ok()) << started.status().to_string();
    server_ = started.take();
    auto snap = snapshot::open(kSnapPath);
    ASSERT_TRUE(snap.ok()) << snap.status().to_string();
    ASSERT_TRUE(server_->collections().load("main", snap.take()).ok());
  }

  void TearDown() override {
    server_.reset();
    std::remove(kSnapPath);
  }

  virtual net::ServerOptions customize(net::ServerOptions opts) {
    return opts;
  }

  net::Client connect(std::uint64_t tenant = 1) {
    net::ClientOptions copts;
    copts.tenant = tenant;
    auto c = net::Client::connect("127.0.0.1", server_->port(), copts);
    EXPECT_TRUE(c.ok()) << c.status().to_string();
    return c.take();
  }

  std::vector<serve::PathQuery> make_batch(std::size_t n,
                                           std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<serve::PathQuery> batch(n);
    for (auto& q : batch) {
      std::vector<cat::NodeId> path{tree_.root()};
      while (!tree_.is_leaf(path.back())) {
        const auto kids = tree_.children(path.back());
        path.push_back(kids[rng() % kids.size()]);
      }
      q.path = std::move(path);
      q.y = static_cast<cat::Key>(rng() % 1'000'000);
    }
    return batch;
  }

  void expect_oracle(std::span<const serve::PathQuery> batch,
                     const net::PathBatchResponse& resp) {
    ASSERT_EQ(resp.answers.size(), batch.size());
    for (std::size_t qi = 0; qi < batch.size(); ++qi) {
      ASSERT_EQ(resp.answers[qi].proper_index.size(), batch[qi].path.size());
      for (std::size_t i = 0; i < batch[qi].path.size(); ++i) {
        EXPECT_EQ(resp.answers[qi].proper_index[i],
                  tree_.catalog(batch[qi].path[i]).find(batch[qi].y));
      }
    }
  }

  cat::Tree tree_;
  std::unique_ptr<net::Server> server_;
};

TEST_F(ServerTest, PathBatchMatchesOracle) {
  net::Client client = connect();
  const auto batch = make_batch(64, 11);
  auto resp = client.path_batch("main", batch);
  ASSERT_TRUE(resp.ok()) << resp.status().to_string();
  ASSERT_EQ(resp->answers.size(), batch.size());
  for (std::size_t qi = 0; qi < batch.size(); ++qi) {
    ASSERT_EQ(resp->answers[qi].proper_index.size(), batch[qi].path.size());
    for (std::size_t i = 0; i < batch[qi].path.size(); ++i) {
      EXPECT_EQ(resp->answers[qi].proper_index[i],
                tree_.catalog(batch[qi].path[i]).find(batch[qi].y));
    }
  }
  EXPECT_GT(resp->served_version, 0u);
}

TEST_F(ServerTest, SequentialRequestsReuseTheConnection) {
  net::Client client = connect();
  for (int i = 0; i < 20; ++i) {
    auto resp = client.path_batch("main", make_batch(8, 100 + i));
    ASSERT_TRUE(resp.ok()) << resp.status().to_string();
  }
  EXPECT_EQ(server_->stats().accepted, 1u);
}

TEST_F(ServerTest, UnknownCollectionIsATypedError) {
  net::Client client = connect();
  auto resp = client.path_batch("nope", make_batch(2, 1));
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(resp.status().to_string().find("nope"), std::string::npos);
  // The connection survives a well-formed but unserviceable request.
  EXPECT_TRUE(client.path_batch("main", make_batch(2, 2)).ok());
}

TEST_F(ServerTest, InvalidPathIsRejectedBeforeTheKernel) {
  net::Client client = connect();
  auto batch = make_batch(2, 3);
  batch[1].path = {0, 999'999};  // node id far out of range
  auto resp = client.path_batch("main", batch);
  ASSERT_FALSE(resp.ok());
  EXPECT_FALSE(resp.status().ok());
  // And the server is still healthy afterwards.
  EXPECT_TRUE(client.path_batch("main", make_batch(2, 4)).ok());
}

TEST_F(ServerTest, WrongKindCollectionIsATypedError) {
  net::Client client = connect();
  std::vector<geom::Point> pts{{1, 2}};
  auto resp = client.point_batch("main", pts);  // cascade, not pointloc
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ServerTest, TinyDeadlineComesBackAsTypedDeadlineExceeded) {
  net::Client client = connect();
  client.options().deadline_ns = 1;  // expires in transit, guaranteed
  auto resp = client.path_batch("main", make_batch(32, 5));
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(server_->stats().deadline_expired, 1u);
  // A deadline miss is the request's problem, not the connection's.
  client.options().deadline_ns = 0;
  EXPECT_TRUE(client.path_batch("main", make_batch(2, 6)).ok());
}

TEST_F(ServerTest, GenerousDeadlineStillServes) {
  net::Client client = connect();
  client.options().deadline_ns = 30ull * 1'000'000'000;  // 30 s
  auto resp = client.path_batch("main", make_batch(16, 7));
  ASSERT_TRUE(resp.ok()) << resp.status().to_string();
}

TEST_F(ServerTest, AbsurdDeadlineIsSaturatedNotOverflowed) {
  // deadline_ns is an attacker-controlled u64; near-INT64_MAX values
  // must saturate (serve normally) instead of wrapping the chrono
  // arithmetic (UB under UBSan, or an instant spurious expiry).
  net::Client client = connect();
  for (const std::uint64_t ns :
       {std::numeric_limits<std::uint64_t>::max(),
        static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()),
        std::numeric_limits<std::uint64_t>::max() / 2}) {
    client.options().deadline_ns = ns;
    auto resp = client.path_batch("main", make_batch(8, 16));
    ASSERT_TRUE(resp.ok()) << "deadline_ns=" << ns << ": "
                           << resp.status().to_string();
  }
  EXPECT_EQ(server_->stats().deadline_expired, 0u);
}

TEST_F(ServerTest, HealthReportsCollectionsAndMetricsScrape) {
  net::Client client = connect();
  auto h = client.health();
  ASSERT_TRUE(h.ok()) << h.status().to_string();
  EXPECT_EQ(h->draining, 0);
  ASSERT_EQ(h->collections.size(), 1u);
  EXPECT_EQ(h->collections[0].name, "main");
  EXPECT_GT(h->collections[0].version, 0u);

  auto m = client.metrics();
  ASSERT_TRUE(m.ok()) << m.status().to_string();
  EXPECT_NE(m->find("net_server_frames_in_total"), std::string::npos);
}

TEST_F(ServerTest, MalformedFrameGetsTypedErrorThenClose) {
  net::Client client = connect();
  net::PathBatchRequest req;
  req.collection = "main";
  req.queries = make_batch(1, 8);
  net::FrameHeader fh;
  fh.type = static_cast<std::uint16_t>(net::MsgType::kPathBatch);
  fh.request_id = 77;
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
  // One bad frame forfeits the stream: the server closes after the
  // error flushes.
  auto next = client.read_frame();
  EXPECT_FALSE(next.ok());
  EXPECT_GE(server_->stats().malformed, 1u);
  // ...but the *server* is fine: a new connection serves normally.
  net::Client again = connect();
  EXPECT_TRUE(again.path_batch("main", make_batch(2, 9)).ok());
}

TEST_F(ServerTest, OversizePrefixIsRejectedWithoutBuffering) {
  net::Client client = connect();
  std::uint32_t huge = 100u << 20;  // 100 MB announcement
  std::vector<std::uint8_t> prefix(sizeof(huge));
  std::memcpy(prefix.data(), &huge, sizeof(huge));
  ASSERT_TRUE(client.send_raw(prefix).ok());
  auto resp = client.read_frame();
  if (resp.ok()) {
    // Either a typed error...
    EXPECT_EQ(resp->header.type,
              static_cast<std::uint16_t>(net::MsgType::kError) |
                  net::kResponseBit);
  }
  // ...and in all cases the stream ends rather than allocating 100 MB.
  EXPECT_FALSE(client.read_frame().ok());
}

TEST_F(ServerTest, SwapBumpsVersionUnloadRemoves) {
  net::Client client = connect();
  auto v1 = client.health();
  ASSERT_TRUE(v1.ok());
  const std::uint64_t before = v1->collections[0].version;
  auto v2 = client.swap("main", kSnapPath);
  ASSERT_TRUE(v2.ok()) << v2.status().to_string();
  EXPECT_GT(v2.value(), before);
  // Queries still serve across the swap.
  EXPECT_TRUE(client.path_batch("main", make_batch(4, 10)).ok());
  // Admin errors are typed: swapping a collection that is not loaded.
  auto missing = client.swap("ghost", kSnapPath);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kFailedPrecondition);
  // load over an existing name is refused (use SWAP).
  auto dup = client.load("main", kSnapPath);
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kFailedPrecondition);
  // unload, then the collection is gone.
  ASSERT_TRUE(client.unload("main").ok());
  auto gone = client.path_batch("main", make_batch(2, 11));
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ServerTest, DrainRefusesNewWorkButAnswersHealth) {
  net::Client client = connect();
  ASSERT_TRUE(client.path_batch("main", make_batch(4, 12)).ok());
  server_->begin_drain();
  EXPECT_TRUE(server_->draining());
  // New batch and admin work is refused with a typed UNAVAILABLE.
  auto refused = client.path_batch("main", make_batch(4, 13));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  auto refused_admin = client.swap("main", kSnapPath);
  ASSERT_FALSE(refused_admin.ok());
  EXPECT_EQ(refused_admin.status().code(), StatusCode::kUnavailable);
  // HEALTH and METRICS still answer, and health says draining.
  auto h = client.health();
  ASSERT_TRUE(h.ok()) << h.status().to_string();
  EXPECT_EQ(h->draining, 1);
  EXPECT_TRUE(client.metrics().ok());
  client.close();
  EXPECT_TRUE(server_->wait_drained(std::chrono::seconds(5)));
  EXPECT_GE(server_->stats().draining_refused, 2u);
}

TEST_F(ServerTest, DrainViaWireFrame) {
  net::Client client = connect();
  ASSERT_TRUE(client.drain().ok());
  EXPECT_TRUE(server_->draining());
  client.close();
  EXPECT_TRUE(server_->wait_drained(std::chrono::seconds(5)));
}

TEST_F(ServerTest, PipelinedBurstIsAnsweredInRequestOrder) {
  // One write carries frames of mixed batch sizes; the thread that reads
  // them serves them in order, so the answers come back in request order
  // even though a small batch finishes faster than the large one before
  // it.
  net::Client client = connect();
  constexpr std::uint64_t kFrames = 24;
  std::vector<std::vector<serve::PathQuery>> batches;
  std::vector<std::uint8_t> burst;
  for (std::uint64_t k = 0; k < kFrames; ++k) {
    batches.push_back(make_batch(k % 3 == 0 ? 256 : 1 + k % 4, 60 + k));
    net::PathBatchRequest req;
    req.collection = "main";
    req.queries = batches.back();
    net::FrameHeader fh;
    fh.type = static_cast<std::uint16_t>(net::MsgType::kPathBatch);
    fh.request_id = 1000 + k;
    const auto frame = net::encode_frame(fh, net::encode(req));
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  ASSERT_TRUE(client.send_raw(burst).ok());
  for (std::uint64_t k = 0; k < kFrames; ++k) {
    auto resp = client.read_frame();
    ASSERT_TRUE(resp.ok()) << resp.status().to_string();
    ASSERT_EQ(resp->header.request_id, 1000 + k);
    ASSERT_EQ(resp->header.type,
              static_cast<std::uint16_t>(net::MsgType::kPathBatch) |
                  net::kResponseBit);
    auto decoded = net::decode_path_response(resp->payload, {});
    ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
    expect_oracle(batches[k], *decoded);
  }
}

/// The collection backend behind a gate that, while closed, holds one
/// tenant's requests inside serve().
class GatedBackend final : public net::Backend {
 public:
  static constexpr std::uint64_t kGatedTenant = 9;

  net::CollectionMap& collections() { return inner_.collections(); }

  coop::Expected<std::vector<std::uint8_t>> serve(
      const net::Request& req) override {
    if (req.header.tenant == kGatedTenant) {
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

/// A second server, with two serving threads, over a GatedBackend.
class GatedServerTest : public ServerTest {
 protected:
  void SetUp() override {
    ServerTest::SetUp();
    net::ServerOptions opts;
    opts.workers = 2;
    auto started = net::Server::start(opts, gate_);
    ASSERT_TRUE(started.ok()) << started.status().to_string();
    gated_server_ = started.take();
    auto snap = snapshot::open(kSnapPath);
    ASSERT_TRUE(snap.ok()) << snap.status().to_string();
    ASSERT_TRUE(gate_->collections().load("main", snap.take()).ok());
  }

  void TearDown() override {
    gate_->set_open(true);
    gated_server_.reset();
    ServerTest::TearDown();
  }

  net::Client connect_gated(std::uint64_t tenant) {
    net::ClientOptions copts;
    copts.tenant = tenant;
    auto c = net::Client::connect("127.0.0.1", gated_server_->port(), copts);
    EXPECT_TRUE(c.ok()) << c.status().to_string();
    return c.take();
  }

  std::shared_ptr<GatedBackend> gate_ = std::make_shared<GatedBackend>();
  std::unique_ptr<net::Server> gated_server_;
};

TEST_F(GatedServerTest, HeldRequestDoesNotStallOtherConnections) {
  // A request blocked in the backend occupies only the thread serving
  // it: the other serving thread answers a second connection meanwhile.
  gate_->set_open(false);
  net::Client held = connect_gated(GatedBackend::kGatedTenant);
  net::Client other = connect_gated(1);
  const auto batch = make_batch(8, 50);
  coop::Expected<net::PathBatchResponse> held_resp =
      Status::internal("not answered");
  std::thread t([&] { held_resp = held.path_batch("main", batch); });
  gate_->wait_held();

  auto resp = other.path_batch("main", batch);
  ASSERT_TRUE(resp.ok()) << resp.status().to_string();
  expect_oracle(batch, *resp);
  auto h = other.health();
  ASSERT_TRUE(h.ok()) << h.status().to_string();
  EXPECT_EQ(h->collections.size(), 1u);

  gate_->set_open(true);
  t.join();
  ASSERT_TRUE(held_resp.ok()) << held_resp.status().to_string();
  expect_oracle(batch, *held_resp);
}

// --- Variant fixtures ---

class QuotaServerTest : public ServerTest {
 protected:
  net::ServerOptions customize(net::ServerOptions opts) override {
    opts.quota.tokens_per_sec = 1;
    opts.quota.burst = 3;
    return opts;
  }
};

TEST_F(QuotaServerTest, HotTenantIsShedQuietTenantIsNot) {
  net::Client hot = connect(/*tenant=*/5);
  const auto batch = make_batch(2, 14);
  int served = 0;
  Status shed = coop::OkStatus();
  for (int i = 0; i < 10; ++i) {
    auto resp = hot.path_batch("main", batch);
    if (resp.ok()) {
      ++served;
    } else {
      shed = resp.status();
      break;
    }
  }
  EXPECT_EQ(served, 3);  // exactly the burst
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(shed.to_string().find("tenant 5"), std::string::npos);
  EXPECT_GE(server_->stats().quota_shed, 1u);
  // A different tenant still has its own full bucket.
  net::Client quiet = connect(/*tenant=*/6);
  EXPECT_TRUE(quiet.path_batch("main", batch).ok());
}

class NonLoopbackServerTest : public ServerTest {
 protected:
  net::ServerOptions customize(net::ServerOptions opts) override {
    opts.bind_address = "0.0.0.0";  // reachable beyond the box
    return opts;
  }
};

TEST_F(NonLoopbackServerTest, AdminVerbsAreDeniedWithoutOptIn) {
  // The protocol is unauthenticated and LOAD/SWAP name server-side
  // filesystem paths, so a non-loopback bind locks admin verbs out
  // unless enable_remote_admin was set.
  net::Client client = connect();
  // Query, health, and metrics traffic is unaffected...
  EXPECT_TRUE(client.path_batch("main", make_batch(4, 17)).ok());
  EXPECT_TRUE(client.health().ok());
  // ...but every admin verb is a typed PERMISSION_DENIED.
  auto swapped = client.swap("main", kSnapPath);
  ASSERT_FALSE(swapped.ok());
  EXPECT_EQ(swapped.status().code(), StatusCode::kPermissionDenied);
  auto loaded = client.load("extra", kSnapPath);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kPermissionDenied);
  auto unloaded = client.unload("main");
  EXPECT_EQ(unloaded.code(), StatusCode::kPermissionDenied);
  auto drained = client.drain();
  EXPECT_EQ(drained.code(), StatusCode::kPermissionDenied);
  EXPECT_FALSE(server_->draining());
  // A denied admin frame is the request's problem, not the stream's.
  EXPECT_TRUE(client.path_batch("main", make_batch(4, 18)).ok());
}

class RemoteAdminServerTest : public ServerTest {
 protected:
  net::ServerOptions customize(net::ServerOptions opts) override {
    opts.bind_address = "0.0.0.0";
    opts.enable_remote_admin = true;
    return opts;
  }
};

TEST_F(RemoteAdminServerTest, ExplicitOptInRestoresAdmin) {
  net::Client client = connect();
  auto swapped = client.swap("main", kSnapPath);
  EXPECT_TRUE(swapped.ok()) << swapped.status().to_string();
  EXPECT_TRUE(client.drain().ok());
  EXPECT_TRUE(server_->draining());
}

class PollFallbackServerTest : public ServerTest {
 protected:
  void SetUp() override {
    setenv("COOPNET_FORCE_POLL", "1", 1);
    ServerTest::SetUp();
  }
  void TearDown() override {
    ServerTest::TearDown();
    unsetenv("COOPNET_FORCE_POLL");
  }
};

TEST_F(PollFallbackServerTest, ServesWithPollBackend) {
  net::Client client = connect();
  const auto batch = make_batch(16, 15);
  auto resp = client.path_batch("main", batch);
  ASSERT_TRUE(resp.ok()) << resp.status().to_string();
  for (std::size_t qi = 0; qi < batch.size(); ++qi) {
    for (std::size_t i = 0; i < batch[qi].path.size(); ++i) {
      EXPECT_EQ(resp->answers[qi].proper_index[i],
                tree_.catalog(batch[qi].path[i]).find(batch[qi].y));
    }
  }
}

// --- Dynamic collections over the wire (MUTATE / DYN_PATH_BATCH /
// COMPACT): the end-to-end write path of DESIGN.md §13. ---

TEST_F(ServerTest, DynVerbsOnStaticCollectionsAreTypedErrors) {
  net::Client client = connect();
  dyn::Run run;
  run.node = 0;
  run.entries = {{123, 0}};
  auto mutated = client.mutate("main", {dyn::encode_run(run)});
  ASSERT_FALSE(mutated.ok());
  EXPECT_EQ(mutated.status().code(), StatusCode::kFailedPrecondition);
  auto read = client.dyn_path_batch("main", make_batch(2, 5));
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kFailedPrecondition);
  auto compacted = client.compact("main");
  ASSERT_FALSE(compacted.ok());
  EXPECT_EQ(compacted.status().code(), StatusCode::kFailedPrecondition);
  // A refused dyn verb is the request's problem, not the stream's.
  EXPECT_TRUE(client.path_batch("main", make_batch(2, 6)).ok());
}

/// "main" made dynamic after load, plus a rebuilt-from-scratch oracle so
/// every wire answer is checked against the exact live key sets.
class DynServerTest : public ServerTest {
 protected:
  void SetUp() override {
    ServerTest::SetUp();
    dyn::DynamicCatalog::Options copts;
    copts.merge_threshold = 4;
    dyn::Compactor::Options kopts;  // in-memory snapshots, no thread
    ASSERT_TRUE(server_->collections()
                    .make_dynamic("main", copts, kopts, false)
                    .ok());
    live_.resize(tree_.num_nodes());
    for (std::size_t v = 0; v < tree_.num_nodes(); ++v) {
      for (const cat::Key k :
           tree_.catalog(static_cast<cat::NodeId>(v)).keys()) {
        if (k != cat::kInfinity) {
          live_[v].insert(k);
        }
      }
    }
  }

  /// A seeded mutation batch against nodes of `paths`, mirrored into the
  /// oracle, returned as encoded run blobs ready for Client::mutate.
  std::vector<std::vector<std::uint8_t>> make_runs(
      std::span<const serve::PathQuery> paths, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<dyn::Mutation> muts;
    for (const serve::PathQuery& q : paths) {
      for (int i = 0; i < 4; ++i) {
        const cat::NodeId v = q.path[rng() % q.path.size()];
        dyn::Mutation m;
        m.node = static_cast<std::uint32_t>(v);
        m.key = static_cast<cat::Key>(rng() % 1'000'000);
        m.op = rng() % 3 == 0 ? dyn::Op::kDelete : dyn::Op::kInsert;
        muts.push_back(m);
      }
    }
    std::vector<std::vector<std::uint8_t>> blobs;
    for (const dyn::Run& r : dyn::runs_from_mutations(muts)) {
      blobs.push_back(dyn::encode_run(r));
    }
    // Mirror with the same last-op-wins collapse the run grouping did.
    std::map<std::pair<std::uint32_t, cat::Key>, dyn::Op> final_ops;
    for (const dyn::Mutation& m : muts) {
      final_ops[{m.node, m.key}] = m.op;
    }
    for (const auto& [nk, op] : final_ops) {
      if (op == dyn::Op::kInsert) {
        live_[nk.first].insert(nk.second);
      } else {
        live_[nk.first].erase(nk.second);
      }
    }
    return blobs;
  }

  cat::Key expect_successor(cat::NodeId v, cat::Key y) const {
    const auto& s = live_[static_cast<std::size_t>(v)];
    const auto it = s.lower_bound(y);
    return it == s.end() ? cat::kInfinity : *it;
  }

  void check_answers(std::span<const serve::PathQuery> batch,
                     const net::DynPathBatchResponse& resp) {
    ASSERT_EQ(resp.answers.size(), batch.size());
    for (std::size_t qi = 0; qi < batch.size(); ++qi) {
      ASSERT_EQ(resp.answers[qi].keys.size(), batch[qi].path.size());
      for (std::size_t i = 0; i < batch[qi].path.size(); ++i) {
        EXPECT_EQ(resp.answers[qi].keys[i],
                  expect_successor(batch[qi].path[i], batch[qi].y))
            << "query " << qi << " node " << batch[qi].path[i];
      }
    }
  }

  std::vector<std::set<cat::Key>> live_;
};

TEST_F(DynServerTest, DepthZeroDynReadsMatchTheStaticOracle) {
  net::Client client = connect();
  const auto batch = make_batch(16, 21);
  auto resp = client.dyn_path_batch("main", batch);
  ASSERT_TRUE(resp.ok()) << resp.status().to_string();
  EXPECT_EQ(resp->write_seq, 0u);
  check_answers(batch, *resp);
}

TEST_F(DynServerTest, MutateAcksThenReadsItsOwnWrites) {
  net::Client client = connect();
  const auto batch = make_batch(12, 22);
  auto blobs = make_runs(batch, 1022);
  const std::size_t sent = blobs.size();
  auto ack = client.mutate("main", std::move(blobs));
  ASSERT_TRUE(ack.ok()) << ack.status().to_string();
  EXPECT_GT(ack->ack_seq, 0u);
  EXPECT_EQ(ack->applied, sent);
  // Read-your-writes across the wire: a read issued after the ack
  // returned must merge the acknowledged runs.
  auto resp = client.dyn_path_batch("main", batch);
  ASSERT_TRUE(resp.ok()) << resp.status().to_string();
  EXPECT_GE(resp->write_seq, ack->ack_seq);
  check_answers(batch, *resp);
}

TEST_F(DynServerTest, SwapOnDynamicCollectionIsRefused) {
  net::Client client = connect();
  auto swapped = client.swap("main", kSnapPath);
  ASSERT_FALSE(swapped.ok());
  EXPECT_EQ(swapped.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(swapped.status().to_string().find("dynamic"),
            std::string::npos);
  // The refused publish dropped nothing: the collection still serves.
  EXPECT_TRUE(client.dyn_path_batch("main", make_batch(2, 23)).ok());
}

TEST_F(DynServerTest, CorruptRunsAreRejectedWithoutPartialWrites) {
  net::Client client = connect();
  const auto batch = make_batch(6, 24);
  for (const auto kind : robust::kAllDeltaFaultKinds) {
    dyn::Run good;
    good.node = static_cast<std::uint32_t>(batch[0].path.back());
    good.entries = {{11, 0}, {22, 0}, {33, 1}};
    auto blob = dyn::encode_run(good);
    ASSERT_TRUE(robust::corrupt_run(blob, kind, 5).ok())
        << robust::to_string(kind);
    auto mutated = client.mutate("main", {std::move(blob)});
    ASSERT_FALSE(mutated.ok()) << robust::to_string(kind);
    EXPECT_EQ(mutated.status().code(), StatusCode::kCorrupted)
        << robust::to_string(kind);
  }
  // Nothing leaked from the rejected batches: reads still match the
  // untouched oracle, and the connection survived every refusal.
  auto resp = client.dyn_path_batch("main", batch);
  ASSERT_TRUE(resp.ok()) << resp.status().to_string();
  EXPECT_EQ(resp->write_seq, 0u);
  check_answers(batch, *resp);
}

TEST_F(DynServerTest, ThreeCompactionPublishesOverTheWireStayCorrect) {
  net::Client client = connect();
  std::uint64_t last_version = 0;
  for (int round = 1; round <= 3; ++round) {
    const auto batch = make_batch(8, 30 + static_cast<std::uint64_t>(round));
    auto ack = client.mutate(
        "main", make_runs(batch, 900 + static_cast<std::uint64_t>(round)));
    ASSERT_TRUE(ack.ok()) << ack.status().to_string();
    auto compacted = client.compact("main");
    ASSERT_TRUE(compacted.ok()) << compacted.status().to_string();
    EXPECT_GT(compacted->version, last_version) << "round " << round;
    EXPECT_EQ(compacted->watermark, ack->ack_seq) << "round " << round;
    last_version = compacted->version;
    // Every answer after the hot swap still matches the oracle, and the
    // served base is the freshly compacted generation.
    auto resp = client.dyn_path_batch("main", batch);
    ASSERT_TRUE(resp.ok()) << resp.status().to_string();
    EXPECT_EQ(resp->served_version, compacted->version);
    check_answers(batch, *resp);
  }
  // Compacting with nothing pending publishes nothing (no keep-window
  // churn) and reports the current generation.
  auto idle = client.compact("main");
  ASSERT_TRUE(idle.ok()) << idle.status().to_string();
  EXPECT_EQ(idle->version, last_version);
}

TEST_F(DynServerTest, StaticPathBatchStillServesTheDynamicCollection) {
  // The untouched depth-0 contract: PATH_BATCH against a dynamic
  // collection keeps answering from the base kernel (indices), ignoring
  // the overlay entirely.
  net::Client client = connect();
  const auto batch = make_batch(4, 40);
  auto resp = client.path_batch("main", batch);
  ASSERT_TRUE(resp.ok()) << resp.status().to_string();
  for (std::size_t qi = 0; qi < batch.size(); ++qi) {
    for (std::size_t i = 0; i < batch[qi].path.size(); ++i) {
      EXPECT_EQ(resp->answers[qi].proper_index[i],
                tree_.catalog(batch[qi].path[i]).find(batch[qi].y));
    }
  }
}

class NonLoopbackDynTest : public NonLoopbackServerTest {};

TEST_F(NonLoopbackDynTest, MutateAndCompactShareTheAdminGate) {
  net::Client client = connect();
  dyn::Run run;
  run.node = 0;
  run.entries = {{123, 0}};
  auto mutated = client.mutate("main", {dyn::encode_run(run)});
  ASSERT_FALSE(mutated.ok());
  EXPECT_EQ(mutated.status().code(), StatusCode::kPermissionDenied);
  auto compacted = client.compact("main");
  ASSERT_FALSE(compacted.ok());
  EXPECT_EQ(compacted.status().code(), StatusCode::kPermissionDenied);
  // DYN_PATH_BATCH is a read — batch semantics, not admin: it gets past
  // the gate and fails only because "main" here is static.
  auto read = client.dyn_path_batch("main", make_batch(2, 41));
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
