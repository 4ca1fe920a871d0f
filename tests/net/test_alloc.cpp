// Allocation count of served path batches: this binary replaces the
// global operator new with a counting one and checks that serving a
// PATH_BATCH or DYN_PATH_BATCH frame through CollectionBackend::serve
// costs the same number of allocations for 1, 16 and 64 queries — a
// fixed cost per frame is fine, a cost per query is not.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <random>

#include "catalog/tree.hpp"
#include "fc/build.hpp"
#include "net/collections.hpp"
#include "snapshot/snapshot.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
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
    coop::Expected<std::vector<std::uint8_t>> reply = backend_.serve(req);
    const std::uint64_t used =
        g_allocs.load(std::memory_order_relaxed) - before;
    EXPECT_TRUE(reply.ok()) << reply.status().to_string();
    if (reply.ok() && verb == net::MsgType::kPathBatch) {
      auto resp = net::decode_path_response(*reply);
      EXPECT_TRUE(resp.ok());
      EXPECT_EQ(serve::count_path_mismatches(tree_, qs, resp->answers), 0u);
    } else if (reply.ok()) {
      auto resp = net::decode_dyn_path_response(*reply);
      EXPECT_TRUE(resp.ok());
      EXPECT_EQ(resp->answers.size(), n);
      const dyn::StatePtr state = catalog_->state();
      for (std::size_t q = 0; q < n && q < resp->answers.size(); ++q) {
        for (std::size_t i = 0; i < qs[q].path.size(); ++i) {
          const auto v = static_cast<std::uint32_t>(qs[q].path[i]);
          EXPECT_EQ(resp->answers[q].keys.at(i),
                    state->live_successor(v, qs[q].y));
        }
      }
    }
    return used;
  }

  void expect_fixed_cost_per_frame(net::MsgType verb) {
    (void)allocations(verb, 64);  // warm-up: buffers grow to 64 queries
    const std::uint64_t one = allocations(verb, 1);
    const std::uint64_t sixteen = allocations(verb, 16);
    const std::uint64_t sixty_four = allocations(verb, 64);
    EXPECT_EQ(one, sixteen);
    EXPECT_EQ(one, sixty_four);
    EXPECT_GT(one, 0u);  // the counter is live
  }

  cat::Tree tree_;
  std::mt19937_64 rng_{99};
  net::CollectionBackend backend_{2, serve::FrontendOptions{}};
  dyn::DynamicCatalog* catalog_ = nullptr;  ///< the "dyn" collection's
};

TEST_F(ServedPathAllocations, PathBatchCostsTheSameForEveryBatchSize) {
  expect_fixed_cost_per_frame(net::MsgType::kPathBatch);
}

TEST_F(ServedPathAllocations, DynPathBatchCostsTheSameForEveryBatchSize) {
  expect_fixed_cost_per_frame(net::MsgType::kDynPathBatch);
}

}  // namespace
