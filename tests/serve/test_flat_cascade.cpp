#include "serve/flat_cascade.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <vector>

#include "core/batch.hpp"
#include "fc/search.hpp"
#include "helpers.hpp"
#include "robust/corrupt.hpp"

namespace {

using cat::CatalogShape;
using cat::Key;
using serve::FlatCascade;

/// Flat answers are *defined* by the sequential oracle: assert index-for-
/// index equality with fc::search_explicit, plus the brute-force catalog
/// find.
void expect_matches_oracle(const cat::Tree& t, const fc::Structure& s,
                           const FlatCascade& f, std::mt19937_64& rng,
                           int queries) {
  for (int qi = 0; qi < queries; ++qi) {
    const auto path = test_helpers::random_root_leaf_path(t, rng);
    const cat::Key y = test_helpers::random_query(t, rng);
    const auto oracle = fc::search_explicit(s, path, y);
    const auto flat = f.search(path, y);
    ASSERT_EQ(flat.aug_index.size(), path.size());
    for (std::size_t i = 0; i < path.size(); ++i) {
      ASSERT_EQ(flat.aug_index[i], oracle.aug_index[i])
          << "aug mismatch, query " << qi << " node " << i;
      ASSERT_EQ(flat.proper_index[i], oracle.proper_index[i])
          << "proper mismatch, query " << qi << " node " << i;
      ASSERT_EQ(flat.proper_index[i],
                test_helpers::brute_find(t, path[i], y));
    }
  }
}

TEST(FlatCascade, MatchesSequentialOracleOnBalancedTrees) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    std::mt19937_64 rng(seed);
    const auto t =
        cat::make_balanced_binary(8, 20000, CatalogShape::kRandom, rng);
    const auto s = fc::Structure::build(t);
    auto f = FlatCascade::compile(s);
    ASSERT_TRUE(f.ok()) << f.status().to_string();
    expect_matches_oracle(t, s, *f, rng, 200);
  }
}

TEST(FlatCascade, MatchesOracleOnRandomAndPathTrees) {
  std::mt19937_64 rng(7);
  const auto shapes = {CatalogShape::kUniform, CatalogShape::kRootHeavy,
                       CatalogShape::kLeafHeavy, CatalogShape::kSkewed};
  for (const auto shape : shapes) {
    const auto t = cat::make_random_tree(300, 5, 8000, shape, rng);
    const auto s = fc::Structure::build(t);
    auto f = FlatCascade::compile(s);
    ASSERT_TRUE(f.ok()) << f.status().to_string();
    expect_matches_oracle(t, s, *f, rng, 100);
  }
  const auto t = cat::make_path_tree(200, 5000, CatalogShape::kRandom, rng);
  const auto s = fc::Structure::build(t);
  auto f = FlatCascade::compile(s);
  ASSERT_TRUE(f.ok()) << f.status().to_string();
  expect_matches_oracle(t, s, *f, rng, 100);
}

TEST(FlatCascade, MatchesCoopSearchBatchResults) {
  std::mt19937_64 rng(11);
  const auto t =
      cat::make_balanced_binary(7, 10000, CatalogShape::kRandom, rng);
  const auto s = fc::Structure::build(t);
  const auto cs = coop::CoopStructure::build(s);
  auto f = FlatCascade::compile(s);
  ASSERT_TRUE(f.ok());
  std::vector<coop::BatchQuery> queries(50);
  for (auto& q : queries) {
    q.path = test_helpers::random_root_leaf_path(t, rng);
    q.y = test_helpers::random_query(t, rng);
  }
  pram::Machine m(64);
  const auto batch = coop::coop_search_batch(cs, m, queries);
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const auto flat = f->search(queries[qi].path, queries[qi].y);
    for (std::size_t i = 0; i < queries[qi].path.size(); ++i) {
      ASSERT_EQ(flat.proper_index[i], batch.results[qi].proper_index[i])
          << "flat vs coop batch, query " << qi << " node " << i;
    }
  }
}

TEST(FlatCascade, DegenerateShapes) {
  // Single node, non-empty catalog.
  {
    cat::Tree t(1);
    t.set_catalog(0, cat::Catalog::from_sorted_keys(
                         std::vector<cat::Key>{5, 10, 20}));
    t.finalize();
    const auto s = fc::Structure::build(t);
    auto f = FlatCascade::compile(s);
    ASSERT_TRUE(f.ok());
    const std::vector<cat::NodeId> path{0};
    for (cat::Key y : {-5, 5, 6, 10, 19, 20, 21}) {
      EXPECT_EQ(f->search(path, y).proper_index[0], t.catalog(0).find(y));
    }
  }
  // Single node, empty catalog (sentinel only).
  {
    cat::Tree t(1);
    t.finalize();
    const auto s = fc::Structure::build(t);
    auto f = FlatCascade::compile(s);
    ASSERT_TRUE(f.ok());
    EXPECT_EQ(f->search(std::vector<cat::NodeId>{0}, 42).proper_index[0], 0u);
  }
  // Every catalog empty in a small tree: bridges still well-defined
  // (terminal-only catalogs).
  {
    cat::Tree t(7);
    for (cat::NodeId v = 1; v < 7; ++v) {
      t.add_child((v - 1) / 2, v);
    }
    t.finalize();
    const auto s = fc::Structure::build(t);
    auto f = FlatCascade::compile(s);
    ASSERT_TRUE(f.ok());
    const std::vector<cat::NodeId> path{0, 1, 3};
    const auto r = f->search(path, 123);
    for (std::size_t i = 0; i < path.size(); ++i) {
      EXPECT_EQ(r.proper_index[i], 0u);
    }
  }
  // Duplicate keys across catalogs (within a catalog keys are strictly
  // increasing; duplicates across parent/child exercise merge-dedup paths).
  {
    cat::Tree t(3);
    t.add_child(0, 1);
    t.add_child(0, 2);
    const std::vector<cat::Key> same{10, 20, 30, 40};
    t.set_catalog(0, cat::Catalog::from_sorted_keys(same));
    t.set_catalog(1, cat::Catalog::from_sorted_keys(same));
    t.set_catalog(2, cat::Catalog::from_sorted_keys(same));
    t.finalize();
    const auto s = fc::Structure::build(t);
    auto f = FlatCascade::compile(s);
    ASSERT_TRUE(f.ok());
    std::mt19937_64 rng(13);
    expect_matches_oracle(t, s, *f, rng, 50);
  }
}

/// find_sorted (every catalog's search, the root's included) against
/// std::lower_bound over one slice of ascending keys plus the +inf
/// terminal that every flat catalog ends in (find_sorted's precondition).
/// Probes: every key and its neighbours, the Key extremes, random values.
void expect_find_sorted_exact(std::vector<Key> keys, std::mt19937_64& rng) {
  keys.push_back(cat::kInfinity);
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
    if (k > std::numeric_limits<Key>::min()) {
      ys.push_back(k - 1);
    }
    if (k < std::numeric_limits<Key>::max()) {
      ys.push_back(k + 1);
    }
  }
  for (int i = 0; i < 32; ++i) {
    ys.push_back(static_cast<Key>(rng()));
  }
  // Packed as compile() packs a node: offsets from keys[0], with high
  // words when the keys span 2^32 - 1 or more.
  const auto n = static_cast<std::uint32_t>(keys.size());
  std::vector<serve::FlatEntry> entries(n);
  std::vector<std::uint32_t> high(n);
  const std::uint32_t* hi =
      FlatCascade::needs_high_words(keys.data(), n) ? high.data() : nullptr;
  FlatCascade::pack_keys(keys.data(), n, entries.data(),
                         hi == nullptr ? nullptr : high.data());
  for (const Key y : ys) {
    const auto want = static_cast<std::uint32_t>(
        std::lower_bound(keys.begin(), keys.end(), y) - keys.begin());
    EXPECT_EQ(FlatCascade::find_sorted(
                  entries.data(), hi, n,
                  FlatCascade::query_offset(y, keys[0], hi)),
              want)
        << "n=" << n << " y=" << y;
  }
}

TEST(FlatCascade, FindSortedMatchesStdLowerBound) {
  std::mt19937_64 rng(101);
  // Strictly increasing keys; sizes straddle powers of two, where the
  // halving search changes shape.
  for (const std::uint32_t n :
       {1u, 2u, 3u, 7u, 8u, 9u, 10u, 15u, 16u, 17u, 63u, 64u, 65u, 71u, 72u,
        73u, 80u, 100u, 128u, 200u, 729u}) {
    std::vector<Key> keys(n);
    Key at = static_cast<Key>(rng() % 1000);
    for (auto& k : keys) {
      k = at;
      at += 1 + static_cast<Key>(rng() % 50);
    }
    expect_find_sorted_exact(std::move(keys), rng);
  }
  // Duplicates: a run of equal keys answers its first index.
  for (const std::uint32_t n : {2u, 8u, 9u, 17u, 64u, 65u, 100u}) {
    std::vector<Key> keys(n);
    Key at = 0;
    for (auto& k : keys) {
      k = at;
      if (rng() % 3 != 0) {
        at += 1 + static_cast<Key>(rng() % 4);
      }
    }
    expect_find_sorted_exact(std::move(keys), rng);
  }
  // All keys equal.
  for (const std::uint32_t n : {1u, 7u, 8u, 9u, 64u, 100u}) {
    expect_find_sorted_exact(std::vector<Key>(n, 42), rng);
  }
  // Size 1: the terminal alone.
  expect_find_sorted_exact({}, rng);
  // Keys at the extremes of Key, below the terminal.
  using Lim = std::numeric_limits<Key>;
  expect_find_sorted_exact({Lim::min()}, rng);
  expect_find_sorted_exact({Lim::min(), Lim::min() + 1, -1, 0, 1}, rng);
  expect_find_sorted_exact({Lim::min(), 0, Lim::max() - 1}, rng);
  // Either side of the widest span 32-bit offsets hold (2^32 - 2): the
  // narrowest catalogs that need high words, and their neighbours.
  constexpr Key k32 = Key{1} << 32;
  for (const Key lo : {Lim::min(), Key{-7}, Key{0}, Lim::max() - 1 - k32}) {
    expect_find_sorted_exact({lo, lo + k32 - 2}, rng);
    expect_find_sorted_exact({lo, lo + 1, lo + k32 - 1}, rng);
    expect_find_sorted_exact({lo, lo + k32 - 3, lo + k32}, rng);
  }
}

TEST(FlatCascade, RejectsCorruptedStructures) {
  // Every fc-targeting fault class injected by robust::corrupt must be
  // rejected by the compiler with a Status — never crash, never compile a
  // poisoned arena.
  const robust::CorruptionKind kinds[] = {
      robust::CorruptionKind::kMissingTerminal,
      robust::CorruptionKind::kCrossingBridges,
      robust::CorruptionKind::kBridgeOutOfRange,
      robust::CorruptionKind::kWrongProper,
  };
  for (const auto kind : kinds) {
    int injected = 0;
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
      std::mt19937_64 rng(100 + seed);
      const auto t =
          cat::make_balanced_binary(5, 2000, cat::CatalogShape::kRandom, rng);
      auto s = fc::Structure::build(t);
      const auto st = robust::corrupt(s, kind, seed);
      if (!st.ok()) {
        continue;  // structure too small/regular to host this fault
      }
      ++injected;
      const auto f = FlatCascade::compile(s);
      EXPECT_FALSE(f.ok()) << "compiled a structure corrupted with "
                           << robust::to_string(kind) << " seed " << seed;
    }
    EXPECT_GT(injected, 0) << robust::to_string(kind);
  }
}

TEST(FlatCascade, RejectsCorruptedTreeCatalog) {
  std::mt19937_64 rng(17);
  const auto t =
      cat::make_balanced_binary(5, 2000, cat::CatalogShape::kRandom, rng);
  auto broken = t;
  const auto s = fc::Structure::build(broken);
  // Corrupt the underlying tree catalog *after* the cascade is built: the
  // aug -> proper map the arena would bake in is now a lie, and the
  // compiler must catch it structurally rather than serve wrong answers.
  const auto st =
      robust::corrupt(broken, robust::CorruptionKind::kUnsortedCatalog, 3);
  ASSERT_TRUE(st.ok()) << st.to_string();
  const auto f = FlatCascade::compile(s);
  EXPECT_FALSE(f.ok());
}

TEST(FlatCascade, ValidatePathRejectsBadPaths) {
  std::mt19937_64 rng(19);
  const auto t =
      cat::make_balanced_binary(4, 500, cat::CatalogShape::kRandom, rng);
  const auto s = fc::Structure::build(t);
  auto f = FlatCascade::compile(s);
  ASSERT_TRUE(f.ok());
  EXPECT_FALSE(f->validate_path(std::vector<cat::NodeId>{}).ok());
  EXPECT_FALSE(f->validate_path(std::vector<cat::NodeId>{1}).ok());
  EXPECT_FALSE(f->validate_path(std::vector<cat::NodeId>{0, 999}).ok());
  EXPECT_FALSE(f->validate_path(std::vector<cat::NodeId>{0, 4}).ok());
  const auto path = test_helpers::random_root_leaf_path(t, rng);
  EXPECT_TRUE(f->validate_path(path).ok());
}

}  // namespace
