// Allocation count of path batches: this binary replaces the global
// operator new with a counting one.  It checks that serving a PATH_BATCH
// or DYN_PATH_BATCH frame through CollectionBackend::serve into a reused
// output buffer allocates nothing for 1, 16 and 64 queries, and that a
// Client round trip of either verb costs the same few allocations for 1,
// 16 and 64 queries.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <random>

#include "catalog/tree.hpp"
#include "fc/build.hpp"
#include "net/client.hpp"
#include "net/collections.hpp"
#include "net/server.hpp"
#include "snapshot/snapshot.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
/// The allocations made by this thread alone.
thread_local std::uint64_t t_allocs = 0;

void* counted_alloc(std::size_t n, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  ++t_allocs;
  n = n == 0 ? 1 : n;
  if (align <= alignof(std::max_align_t)) {
    return std::malloc(n);
  }
  return std::aligned_alloc(align, (n + align - 1) / align * align);
}

void* counted_alloc_or_throw(std::size_t n, std::size_t align) {
  if (void* p = counted_alloc(n, align)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) {
  return counted_alloc_or_throw(n, alignof(std::max_align_t));
}
void* operator new[](std::size_t n) {
  return counted_alloc_or_throw(n, alignof(std::max_align_t));
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, alignof(std::max_align_t));
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, alignof(std::max_align_t));
}
void operator delete(void* p) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept {
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

class ServedPathAllocations : public ::testing::Test {
 protected:
  void SetUp() override {
    std::mt19937_64 rng(7);
    tree_ = cat::make_balanced_binary(7, 300, cat::CatalogShape::kRandom, rng);
    for (const char* name : {"main", "dyn"}) {
      auto structure = fc::Structure::build_checked(tree_);
      ASSERT_TRUE(structure.ok()) << structure.status().to_string();
      auto flat = serve::FlatCascade::compile(*structure);
      ASSERT_TRUE(flat.ok()) << flat.status().to_string();
      ASSERT_TRUE(backend_.collections()
                      .load(name, snapshot::Snapshot::in_memory(flat.take()))
                      .ok());
    }
    ASSERT_TRUE(backend_.collections()
                    .make_dynamic("dyn", {}, {}, /*start_compactor=*/false)
                    .ok());
    // Runs on every node the queries can reach, so the dyn reads take
    // the merge path and not only the base kernel.
    std::vector<dyn::Mutation> muts;
    for (std::size_t v = 0; v < tree_.num_nodes(); ++v) {
      for (int i = 0; i < 3; ++i) {
        dyn::Mutation m;
        m.node = static_cast<std::uint32_t>(v);
        m.key = static_cast<cat::Key>(rng() % 1'000'000);
        m.op = i == 2 ? dyn::Op::kDelete : dyn::Op::kInsert;
        muts.push_back(m);
      }
    }
    catalog_ = backend_.collections().find("dyn")->dyn_catalog.get();
    ASSERT_TRUE(catalog_->apply(muts).ok());
  }

  /// Serve one frame of `n` random root-to-leaf queries and return the
  /// allocations it made, from decode to encoded response.
  std::uint64_t allocations(net::MsgType verb, std::size_t n) {
    const std::vector<serve::PathQuery> qs =
        serve::random_path_batch(tree_, rng_, n);
    const std::vector<std::uint8_t> payload =
        verb == net::MsgType::kPathBatch
            ? net::encode(net::PathBatchRequest{"main", qs})
            : net::encode(net::DynPathBatchRequest{"dyn", qs});
    net::FrameHeader header;
    header.type = static_cast<std::uint16_t>(verb);
    const net::DecodeLimits limits;
    const net::Request req{header, payload, limits, std::nullopt};
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    // As a server does: the payload goes after the frame's reserved head
    // in an output buffer kept across frames.
    out_.resize(net::kFrameHead);
    const coop::Status served = backend_.serve(req, out_);
    const std::uint64_t used =
        g_allocs.load(std::memory_order_relaxed) - before;
    EXPECT_TRUE(served.ok()) << served.to_string();
    const std::span<const std::uint8_t> reply(out_.data() + net::kFrameHead,
                                              out_.size() - net::kFrameHead);
    if (served.ok() && verb == net::MsgType::kPathBatch) {
      auto resp = net::decode_path_response(reply);
      EXPECT_TRUE(resp.ok());
      EXPECT_EQ(serve::count_path_mismatches(tree_, qs, resp->answers), 0u);
    } else if (served.ok()) {
      auto resp = net::decode_dyn_path_response(reply);
      EXPECT_TRUE(resp.ok());
      EXPECT_EQ(resp->answers.size(), n);
      const dyn::StatePtr state = catalog_->state();
      for (std::size_t q = 0; q < n && q < resp->answers.size(); ++q) {
        const std::span<const cat::Key> keys = resp->answers[q].keys;
        EXPECT_EQ(keys.size(), qs[q].path.size());
        for (std::size_t i = 0; i < keys.size() && i < qs[q].path.size();
             ++i) {
          const auto v = static_cast<std::uint32_t>(qs[q].path[i]);
          EXPECT_EQ(keys[i], state->live_successor(v, qs[q].y));
        }
      }
    }
    return used;
  }

  /// Returns the count, which is the same for 1, 16 and 64 queries.
  std::uint64_t expect_fixed_cost_per_frame(net::MsgType verb) {
    // The counter is live: encoding a request allocates its one buffer.
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    const std::vector<std::uint8_t> probe = net::encode_path_request(
        "main", serve::random_path_batch(tree_, rng_, 0));
    EXPECT_EQ(g_allocs.load(std::memory_order_relaxed) - before, 1u);
    EXPECT_FALSE(probe.empty());
    (void)allocations(verb, 64);  // warm-up: buffers grow to 64 queries
    const std::uint64_t one = allocations(verb, 1);
    const std::uint64_t sixteen = allocations(verb, 16);
    const std::uint64_t sixty_four = allocations(verb, 64);
    EXPECT_EQ(one, sixteen);
    EXPECT_EQ(one, sixty_four);
    return one;
  }

  cat::Tree tree_;
  std::mt19937_64 rng_{99};
  net::CollectionBackend backend_{2, serve::FrontendOptions{}};
  std::vector<std::uint8_t> out_;
  dyn::DynamicCatalog* catalog_ = nullptr;  ///< the "dyn" collection's
};

TEST_F(ServedPathAllocations, PathBatchCostsTheSameForEveryBatchSize) {
  // The decode, the kernel, the attempt trail and the encoded reply all
  // reuse buffers kept across frames.  Before the Frontend's callables
  // captured one pointer, the report was reused and the reply went into
  // the server's output buffer, a frame took 4.
  EXPECT_EQ(expect_fixed_cost_per_frame(net::MsgType::kPathBatch), 0u);
}

TEST_F(ServedPathAllocations, DynPathBatchCostsTheSameForEveryBatchSize) {
  // 1 while the reply was returned in a vector of its own.
  EXPECT_EQ(expect_fixed_cost_per_frame(net::MsgType::kDynPathBatch), 0u);
}

/// One Client::path_batch or dyn_path_batch round trip against an
/// in-process server, counted on the calling thread only (the server's
/// threads are its own).
class ClientPathAllocations : public ::testing::Test {
 protected:
  void SetUp() override {
    std::mt19937_64 rng(7);
    tree_ = cat::make_balanced_binary(7, 300, cat::CatalogShape::kRandom, rng);
    net::ServerOptions opts;
    opts.workers = 1;
    opts.engine_threads = 1;
    auto started = net::Server::start(opts);
    ASSERT_TRUE(started.ok()) << started.status().to_string();
    server_ = started.take();
    for (const char* name : {"main", "dyn"}) {
      auto flat = serve::FlatCascade::compile_tree(tree_);
      ASSERT_TRUE(flat.ok()) << flat.status().to_string();
      ASSERT_TRUE(server_->collections()
                      .load(name, snapshot::Snapshot::in_memory(flat.take()))
                      .ok());
    }
    ASSERT_TRUE(server_->collections()
                    .make_dynamic("dyn", {}, {}, /*start_compactor=*/false)
                    .ok());
    auto client = net::Client::connect("127.0.0.1", server_->port());
    ASSERT_TRUE(client.ok()) << client.status().to_string();
    client_ = client.take();
  }

  /// The calling thread's allocations for one round trip of `n` random
  /// root-to-leaf queries (`verb` PATH_BATCH or DYN_PATH_BATCH), from
  /// encoding the request to the decoded answers.
  std::uint64_t allocations(net::MsgType verb, std::size_t n) {
    const std::vector<serve::PathQuery> qs =
        serve::random_path_batch(tree_, rng_, n);
    const std::uint64_t before = t_allocs;
    const std::uint64_t all_before = g_allocs.load(std::memory_order_relaxed);
    // Everything allocated off this thread: the server's one serving
    // thread (its engine runs inline), from reading the request to
    // sending the reply, which precedes this thread's receive.
    const auto server_used = [&] {
      return g_allocs.load(std::memory_order_relaxed) - all_before -
             (t_allocs - before);
    };
    if (verb == net::MsgType::kPathBatch) {
      auto resp = client_.path_batch("main", qs);
      const std::uint64_t used = t_allocs - before;
      server_allocs_ = server_used();
      EXPECT_TRUE(resp.ok()) << resp.status().to_string();
      if (resp.ok()) {
        EXPECT_EQ(serve::count_path_mismatches(tree_, qs, resp->answers), 0u);
      }
      return used;
    }
    auto resp = client_.dyn_path_batch("dyn", qs);
    const std::uint64_t used = t_allocs - before;
    server_allocs_ = server_used();
    EXPECT_TRUE(resp.ok()) << resp.status().to_string();
    if (resp.ok()) {
      // No writes were applied, so every key is the catalog's successor.
      EXPECT_EQ(resp->answers.size(), n);
      for (std::size_t q = 0; q < n && q < resp->answers.size(); ++q) {
        const std::span<const cat::Key> keys = resp->answers[q].keys;
        EXPECT_EQ(keys.size(), qs[q].path.size());
        for (std::size_t i = 0; i < keys.size() && i < qs[q].path.size();
             ++i) {
          const cat::Catalog& c = tree_.catalog(qs[q].path[i]);
          EXPECT_EQ(keys[i], c.key(c.find(qs[q].y)));
        }
      }
    }
    return used;
  }

  /// The send and receive buffers are reused and a reply decodes into one
  /// flat table, so a round trip's allocations do not depend on its batch
  /// size.  Returns the count.
  std::uint64_t expect_fixed_cost_per_round_trip(net::MsgType verb) {
    (void)allocations(verb, 64);  // warm-up: both buffers grow to 64
    const std::uint64_t one = allocations(verb, 1);
    const std::uint64_t server_one = server_allocs_;
    const std::uint64_t sixteen = allocations(verb, 16);
    const std::uint64_t server_sixteen = server_allocs_;
    const std::uint64_t sixty_four = allocations(verb, 64);
    EXPECT_EQ(one, sixteen);
    EXPECT_EQ(sixteen, sixty_four);
    EXPECT_GT(one, 0u);  // the counter is live
    // The server checks the request where it was received and frames the
    // reply in place in the connection's output buffer: nothing per
    // frame.  With a Frame copy, an encode_frame copy, a std::vector of
    // cut frames per wakeup and the Frontend's heap callables it took 7
    // per PATH_BATCH and 4 per DYN_PATH_BATCH.
    EXPECT_EQ(server_one, 0u);
    EXPECT_EQ(server_sixteen, 0u);
    EXPECT_EQ(server_allocs_, 0u);
    return one;
  }

  cat::Tree tree_;
  std::mt19937_64 rng_{99};
  std::unique_ptr<net::Server> server_;
  net::Client client_;
  std::uint64_t server_allocs_ = 0;  ///< of the last allocations() call
};

TEST_F(ClientPathAllocations, PathBatchCostsTheSameForEveryBatchSize) {
  // The answer slices and the arena's chunk list; the arena's one chunk
  // comes from aligned_alloc, which this count does not see.  A
  // vector-per-answer decoder with a fresh request buffer and frame per
  // call took 5 for one query and 2 more per query after that.
  EXPECT_EQ(expect_fixed_cost_per_round_trip(net::MsgType::kPathBatch), 2u);
}

TEST_F(ClientPathAllocations, DynPathBatchCostsTheSameForEveryBatchSize) {
  // The answer slices and the key buffer (4 for one query, and 1 more
  // per query, with a vector per answer).
  EXPECT_EQ(expect_fixed_cost_per_round_trip(net::MsgType::kDynPathBatch),
            2u);
}

}  // namespace
