// The blocked multiway search kernel (serve/simd_find.hpp) is the flat
// hot path's inner loop, so its contract is pinned differentially: for
// every layout the builder can emit — random, duplicated, all-equal,
// lane-boundary-sized, empty — every dispatch (scalar and, where the cpu
// has it, AVX2) must return exactly std::lower_bound's rank, and the
// grouped lockstep kernel must agree with the one-query kernel slot for
// slot.  A build with -DCOOPSEARCH_DISABLE_SIMD=ON runs the same suite
// with dispatch_is_avx2() pinned false.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "catalog/tree.hpp"
#include "fc/build.hpp"
#include "serve/flat_cascade.hpp"
#include "serve/simd_find.hpp"

namespace {

namespace simd = serve::simd;
using cat::Key;

/// Restore the runtime dispatch no matter how the test exits.
struct ForceScalar {
  explicit ForceScalar(bool v) { simd::set_force_scalar(v); }
  ~ForceScalar() { simd::set_force_scalar(false); }
};

struct Layout {
  std::vector<Key> keys;       ///< ascending (duplicates allowed)
  std::vector<Key> slot_keys;  ///< blocked multiway slots
  std::vector<std::uint32_t> slot_pos;
};

Layout make_layout(std::vector<Key> keys) {
  Layout l;
  l.keys = std::move(keys);
  const auto n = static_cast<std::uint32_t>(l.keys.size());
  l.slot_keys.resize(simd::num_slots(n));
  l.slot_pos.resize(simd::num_slots(n));
  simd::build_layout(l.keys.data(), n, l.slot_keys.data(), l.slot_pos.data());
  return l;
}

std::uint32_t oracle_rank(const std::vector<Key>& keys, Key y) {
  return static_cast<std::uint32_t>(
      std::lower_bound(keys.begin(), keys.end(), y) - keys.begin());
}

/// The probe set for one layout: every key, its neighbors, the extremes,
/// and a fistful of random values.
std::vector<Key> probes(const std::vector<Key>& keys, std::mt19937_64& rng) {
  std::vector<Key> ys = {std::numeric_limits<Key>::min(),
                         std::numeric_limits<Key>::min() + 1,
                         -1,
                         0,
                         1,
                         std::numeric_limits<Key>::max() - 1,
                         std::numeric_limits<Key>::max(),
                         cat::kInfinity};
  for (const Key k : keys) {
    ys.push_back(k);
    if (k > std::numeric_limits<Key>::min()) ys.push_back(k - 1);
    if (k < std::numeric_limits<Key>::max()) ys.push_back(k + 1);
  }
  for (int i = 0; i < 32; ++i) {
    ys.push_back(static_cast<Key>(rng()));
  }
  return ys;
}

void expect_layout_exact(const Layout& l, std::mt19937_64& rng) {
  const auto n = static_cast<std::uint32_t>(l.keys.size());
  for (const Key y : probes(l.keys, rng)) {
    const std::uint32_t want = oracle_rank(l.keys, y);
    EXPECT_EQ(simd::lower_bound_scalar(l.slot_keys.data(), l.slot_pos.data(),
                                       n, y),
              want)
        << "scalar, n=" << n << " y=" << y;
    // The public dispatcher, whichever kernel the cpu picks.
    EXPECT_EQ(simd::lower_bound(l.slot_keys.data(), l.slot_pos.data(), n, y),
              want)
        << "dispatch=" << simd::dispatch_name() << ", n=" << n << " y=" << y;
  }
}

TEST(SimdFind, MatchesStdLowerBoundOnRandomStrictlyIncreasingKeys) {
  std::mt19937_64 rng(101);
  // Lane boundaries (8/9, 63/64/65, 72/73) and a spread of other sizes:
  // every branch of the implicit 9-ary descent gets exercised.
  for (const std::uint32_t n :
       {1u, 2u, 3u, 7u, 8u, 9u, 10u, 15u, 16u, 17u, 63u, 64u, 65u, 71u, 72u,
        73u, 80u, 100u, 128u, 200u, 729u}) {
    std::vector<Key> keys(n);
    Key at = static_cast<Key>(rng() % 1000);
    for (auto& k : keys) {
      k = at;
      at += 1 + static_cast<Key>(rng() % 50);
    }
    expect_layout_exact(make_layout(std::move(keys)), rng);
  }
}

TEST(SimdFind, MatchesStdLowerBoundWithDuplicateKeys) {
  std::mt19937_64 rng(202);
  for (const std::uint32_t n : {2u, 8u, 9u, 17u, 64u, 65u, 100u}) {
    std::vector<Key> keys(n);
    Key at = 0;
    for (auto& k : keys) {
      k = at;
      if (rng() % 3 != 0) {  // runs of equal keys are the common case
        at += 1 + static_cast<Key>(rng() % 4);
      }
    }
    expect_layout_exact(make_layout(std::move(keys)), rng);
  }
}

TEST(SimdFind, AllEqualKeysReturnFirstIndex) {
  std::mt19937_64 rng(303);
  for (const std::uint32_t n : {1u, 7u, 8u, 9u, 64u, 100u}) {
    expect_layout_exact(make_layout(std::vector<Key>(n, 42)), rng);
  }
}

TEST(SimdFind, EmptyCatalogYieldsRankZero) {
  // n == 0 has zero blocks; the kernel must return 0 without touching
  // the (null) slot arrays.
  EXPECT_EQ(simd::num_slots(0), 0u);
  EXPECT_EQ(simd::lower_bound(nullptr, nullptr, 0, 5), 0u);
  EXPECT_EQ(simd::lower_bound_scalar(nullptr, nullptr, 0, 5), 0u);
}

TEST(SimdFind, QueriesPastTheMaximumReturnN) {
  std::mt19937_64 rng(404);
  for (const std::uint32_t n : {1u, 8u, 9u, 65u}) {
    std::vector<Key> keys(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      keys[i] = static_cast<Key>(i) * 10;
    }
    const Layout l = make_layout(std::move(keys));
    EXPECT_EQ(simd::lower_bound(l.slot_keys.data(), l.slot_pos.data(), n,
                                static_cast<Key>(n) * 10 + 1),
              n);
    (void)rng;
  }
}

TEST(SimdFind, ScalarAndDispatchedKernelsAgreeEverywhere) {
  if (!simd::dispatch_is_avx2()) {
    GTEST_SKIP() << "no avx2 dispatch on this cpu/build; the dispatcher "
                    "already IS the scalar kernel";
  }
  std::mt19937_64 rng(505);
  for (int round = 0; round < 20; ++round) {
    const std::uint32_t n = 1 + static_cast<std::uint32_t>(rng() % 300);
    std::vector<Key> keys(n);
    Key at = static_cast<Key>(rng() % 100);
    for (auto& k : keys) {
      k = at;
      at += static_cast<Key>(rng() % 3);  // duplicates included
    }
    const Layout l = make_layout(std::move(keys));
    for (const Key y : probes(l.keys, rng)) {
      const std::uint32_t vec =
          simd::lower_bound(l.slot_keys.data(), l.slot_pos.data(), n, y);
      std::uint32_t scalar;
      {
        ForceScalar fs(true);
        scalar = simd::lower_bound(l.slot_keys.data(), l.slot_pos.data(), n, y);
      }
      ASSERT_EQ(vec, scalar) << "n=" << n << " y=" << y;
    }
  }
}

TEST(SimdFind, GroupedKernelMatchesSingleQueryKernel) {
  std::mt19937_64 rng(606);
  for (const std::size_t g : {std::size_t{1}, std::size_t{5}, std::size_t{16},
                              std::size_t{64}}) {
    std::vector<Layout> layouts;
    std::vector<simd::GroupedQuery> qs(g);
    std::vector<std::uint32_t> want(g);
    for (std::size_t i = 0; i < g; ++i) {
      // Mixed catalog sizes, including empty descents mid-group.
      const std::uint32_t n =
          i % 7 == 3 ? 0 : 1 + static_cast<std::uint32_t>(rng() % 150);
      std::vector<Key> keys(n);
      Key at = 0;
      for (auto& k : keys) {
        k = at;
        at += 1 + static_cast<Key>(rng() % 9);
      }
      layouts.push_back(make_layout(std::move(keys)));
      const Layout& l = layouts.back();
      const Key y = static_cast<Key>(rng() % 1500);
      qs[i] = n == 0 ? simd::GroupedQuery{}
                     : simd::GroupedQuery{l.slot_keys.data(),
                                          l.slot_pos.data(), n, y};
      qs[i].y = y;
      want[i] = n == 0 ? 0u : oracle_rank(l.keys, y);
    }
    std::vector<std::uint32_t> got(g);
    simd::lower_bound_grouped(qs.data(), got.data(), g);
    for (std::size_t i = 0; i < g; ++i) {
      EXPECT_EQ(got[i], want[i]) << "g=" << g << " i=" << i;
    }
    ForceScalar fs(true);
    std::fill(got.begin(), got.end(), 0xFFFFFFFFu);
    simd::lower_bound_grouped(qs.data(), got.data(), g);
    for (std::size_t i = 0; i < g; ++i) {
      EXPECT_EQ(got[i], want[i]) << "scalar grouped, g=" << g << " i=" << i;
    }
  }
}

TEST(SimdFind, DispatchNameReflectsForcedScalar) {
  const char* name = simd::dispatch_name();
  EXPECT_TRUE(std::string(name) == "avx2" || std::string(name) == "scalar");
  ForceScalar fs(true);
  EXPECT_STREQ(simd::dispatch_name(), "scalar");
  EXPECT_FALSE(simd::dispatch_is_avx2());
}

TEST(SimdFind, FlatCascadeFindAgreesWithBinaryReferenceOnEveryNode) {
  // find() descends the multiway layout, find_binary() the sorted pool;
  // they must agree for every node and query under both dispatches —
  // this is the same invariant the scrubber's differential sampler and
  // snapshot::open's structural check enforce in production.
  std::mt19937_64 rng(707);
  const auto tree =
      cat::make_balanced_binary(6, 3000, cat::CatalogShape::kRandom, rng);
  const auto s = fc::Structure::build(tree);
  auto flat_e = serve::FlatCascade::compile(s);
  ASSERT_TRUE(flat_e.ok());
  const serve::FlatCascade flat = flat_e.take();
  for (std::uint32_t v = 0; v < flat.num_nodes(); ++v) {
    for (int i = 0; i < 40; ++i) {
      const Key y = static_cast<Key>(rng() % 2'000'000'000) - 1'000'000'000;
      const std::uint32_t bin = flat.find_binary(v, y);
      EXPECT_EQ(flat.find(v, y), bin) << "node " << v << " y=" << y;
      {
        ForceScalar fs(true);
        EXPECT_EQ(flat.find(v, y), bin) << "scalar, node " << v << " y=" << y;
      }
      // The +inf terminal keeps every serving answer strictly inside the
      // node's slice.
      EXPECT_LT(bin, flat.node(v).key_count);
    }
  }
}

}  // namespace
