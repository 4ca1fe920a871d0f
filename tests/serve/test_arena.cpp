// The arena allocation layer under the serving pools: raw_alloc's
// huge-page policy, Pool's owning/view/huge-backed states, the BumpArena
// behind per-batch answer sets, and the arena-backed batch API
// (PathAnswerSet + serve_path_queries_flat) pinned against the
// vector-returning API and the catalog oracle across reuse.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "catalog/tree.hpp"
#include "fc/build.hpp"
#include "serve/arena.hpp"
#include "serve/flat_cascade.hpp"
#include "serve/query_engine.hpp"

namespace {

TEST(RawAlloc, SmallAllocationsAreAlignedAndZero) {
  serve::RawAlloc a = serve::raw_alloc(serve::kCacheLine);
  ASSERT_NE(a.ptr, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.ptr) % serve::kCacheLine, 0u);
  EXPECT_EQ(a.map_bytes, 0u);  // below the huge-page threshold
  const auto* p = static_cast<const unsigned char*>(a.ptr);
  for (std::size_t i = 0; i < serve::kCacheLine; ++i) {
    ASSERT_EQ(p[i], 0u);
  }
  serve::raw_free(a);
  EXPECT_EQ(a.ptr, nullptr);
}

TEST(RawAlloc, LargeAllocationsUseTheHugePagePath) {
  const std::size_t bytes = serve::kHugePageBytes;
  serve::RawAlloc a = serve::raw_alloc(bytes);
  ASSERT_NE(a.ptr, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.ptr) % serve::kCacheLine, 0u);
#if defined(__linux__)
  EXPECT_EQ(a.map_bytes, bytes);  // mmap-backed, MADV_HUGEPAGE advised
#endif
  // Anonymous mappings are zero by contract; spot-check both ends.
  auto* p = static_cast<unsigned char*>(a.ptr);
  EXPECT_EQ(p[0], 0u);
  EXPECT_EQ(p[bytes - 1], 0u);
  p[0] = 0xAB;  // writable
  p[bytes - 1] = 0xCD;
  serve::raw_free(a);
}

TEST(Pool, HugeBackingFollowsTheSizeThreshold) {
  serve::Pool<std::int64_t> small(100);
  EXPECT_TRUE(small.owns());
  EXPECT_FALSE(small.huge_backed());

  const std::size_t big_elems = serve::kHugePageBytes / sizeof(std::int64_t);
  serve::Pool<std::int64_t> big(big_elems);
  EXPECT_TRUE(big.owns());
#if defined(__linux__)
  EXPECT_TRUE(big.huge_backed());
#endif
  big[0] = 7;
  big[big_elems - 1] = 9;
  EXPECT_EQ(big[0], 7);
  EXPECT_EQ(big[big_elems - 1], 9);

  serve::Pool<std::int64_t> moved = std::move(big);
  EXPECT_TRUE(moved.owns());
  EXPECT_EQ(moved[0], 7);

  const std::int64_t backing[4] = {1, 2, 3, 4};
  auto view = serve::Pool<std::int64_t>::view(backing, 4);
  EXPECT_FALSE(view.owns());
  EXPECT_FALSE(view.huge_backed());
  EXPECT_EQ(view[2], 3);
}

TEST(BumpArena, AllocationsAreAlignedDisjointAndReusedAfterReset) {
  serve::BumpArena arena(1 << 12);  // small chunks force chunk growth
  std::vector<std::uint32_t*> ptrs;
  for (int i = 0; i < 32; ++i) {
    std::uint32_t* p = arena.alloc<std::uint32_t>(100 + i);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % serve::kCacheLine, 0u);
    std::memset(p, i + 1, (100 + i) * sizeof(std::uint32_t));
    ptrs.push_back(p);
  }
  // Disjointness: every slice still holds its own fill pattern.
  for (int i = 0; i < 32; ++i) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(ptrs[i]);
    for (std::size_t b = 0; b < (100 + i) * sizeof(std::uint32_t); ++b) {
      ASSERT_EQ(bytes[b], static_cast<unsigned char>(i + 1))
          << "slice " << i << " byte " << b;
    }
  }
  const std::size_t reserved = arena.reserved_bytes();
  EXPECT_GT(reserved, 0u);
  // Same fill cycle after reset: no new chunks.
  arena.reset();
  for (int i = 0; i < 32; ++i) {
    (void)arena.alloc<std::uint32_t>(100 + i);
  }
  EXPECT_EQ(arena.reserved_bytes(), reserved);
}

TEST(BumpArena, ZeroLengthAndOversizedAllocationsWork) {
  serve::BumpArena arena(1 << 12);
  std::uint64_t* empty = arena.alloc<std::uint64_t>(0);
  ASSERT_NE(empty, nullptr);  // valid, unique, never dereferenced
  // Larger than the chunk size: gets its own chunk.
  const std::size_t big = (1 << 14) / sizeof(std::uint64_t);
  std::uint64_t* p = arena.alloc<std::uint64_t>(big);
  ASSERT_NE(p, nullptr);
  p[0] = 1;
  p[big - 1] = 2;
  EXPECT_EQ(p[0], 1u);
  EXPECT_EQ(p[big - 1], 2u);
}

TEST(PathAnswerSet, MatchesTheVectorApiAcrossReuse) {
  std::mt19937_64 rng(99);
  const auto tree =
      cat::make_balanced_binary(6, 4000, cat::CatalogShape::kRandom, rng);
  const auto s = fc::Structure::build(tree);
  auto flat_e = serve::FlatCascade::compile(s);
  ASSERT_TRUE(flat_e.ok());
  const serve::FlatCascade flat = flat_e.take();

  serve::QueryEngine engine(2);
  serve::PathAnswerSet set;
  // Three batches through ONE answer set: correctness must survive the
  // arena rewind, including a batch bigger than the previous one.
  for (const std::size_t batch : {std::size_t{33}, std::size_t{200},
                                  std::size_t{64}}) {
    std::vector<serve::PathQuery> queries(batch);
    for (auto& q : queries) {
      std::vector<cat::NodeId> path{tree.root()};
      while (!tree.is_leaf(path.back())) {
        const auto kids = tree.children(path.back());
        path.push_back(kids[rng() % kids.size()]);
      }
      q.path = std::move(path);
      q.y = static_cast<cat::Key>(rng() % 1'000'000'000);
    }
    std::vector<serve::PathAnswer> want;
    const auto rep_v = serve::serve_path_queries(flat, engine, queries, want);
    EXPECT_FALSE(rep_v.degraded) << rep_v.reason;
    EXPECT_EQ(serve::count_path_mismatches(tree, queries, want), 0u);
    const auto rep_f =
        serve::serve_path_queries_flat(flat, engine, queries, set);
    EXPECT_FALSE(rep_f.degraded) << rep_f.reason;
    ASSERT_EQ(set.size(), batch);
    for (std::size_t q = 0; q < batch; ++q) {
      ASSERT_EQ(set.aug(q).size(), want[q].aug_index.size());
      for (std::size_t i = 0; i < want[q].aug_index.size(); ++i) {
        ASSERT_EQ(set.aug(q)[i], want[q].aug_index[i])
            << "batch " << batch << " q " << q << " hop " << i;
        ASSERT_EQ(set.proper(q)[i], want[q].proper_index[i])
            << "batch " << batch << " q " << q << " hop " << i;
      }
    }
  }
}

}  // namespace
