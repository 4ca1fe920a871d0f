// Differential tests of the flat arena's key layout over narrow, wide and
// mixed nodes.  serve::FlatCascade keeps every key as a 32-bit offset from
// its node's base key and gives high words only to nodes whose keys span
// 2^32 - 1 or more; every reader of the arena — search_path, the window
// kernel, walk_implicit, the flat point locator and the dynamic overlay —
// must answer exactly as the int64 oracles do, keys next to INT64_MIN and
// INT64_MAX included.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <vector>

#include "dyn/overlay.hpp"
#include "fc/search.hpp"
#include "geom/generators.hpp"
#include "helpers.hpp"
#include "pointloc/separator_tree.hpp"
#include "serve/flat_cascade.hpp"
#include "serve/flat_pointloc.hpp"
#include "serve/query_engine.hpp"
#include "snapshot/registry.hpp"

namespace {

using cat::Key;
using serve::FlatCascade;

std::vector<std::size_t> widen(const std::vector<std::uint32_t>& v) {
  return {v.begin(), v.end()};
}

/// A mixed-width tree, its cascade and the cascade's arena.  Built in
/// place: the structure refers to the tree.
struct Mixed {
  explicit Mixed(std::uint64_t seed, std::uint32_t height = 6,
                 std::size_t entries = 3000)
      : tree(make_tree(seed, height, entries)),
        structure(fc::Structure::build(tree)),
        flat(compile(structure)) {}

  static cat::Tree make_tree(std::uint64_t seed, std::uint32_t height,
                             std::size_t entries) {
    std::mt19937_64 rng(seed);
    return test_helpers::mixed_width_tree(height, entries, rng);
  }
  static FlatCascade compile(const fc::Structure& s) {
    auto f = FlatCascade::compile(s);
    EXPECT_TRUE(f.ok()) << f.status().to_string();
    return f.ok() ? f.take() : FlatCascade{};
  }

  cat::Tree tree;
  fc::Structure structure;
  FlatCascade flat;
};

TEST(MixedWidth, TreesHoldNarrowAndWideNodes) {
  const Mixed m(1);
  std::size_t wide = 0;
  for (std::uint32_t v = 0; v < m.flat.num_nodes(); ++v) {
    wide += m.flat.is_wide(v) ? 1 : 0;
  }
  EXPECT_GT(wide, 0u);
  EXPECT_LT(wide, m.flat.num_nodes());
}

TEST(MixedWidth, FindAndKeysMatchTheAugmentedCatalogs) {
  const Mixed m(2);
  std::mt19937_64 rng(20);
  for (std::uint32_t v = 0; v < m.flat.num_nodes(); ++v) {
    const auto& aug = m.structure.aug(static_cast<cat::NodeId>(v)).keys;
    ASSERT_EQ(m.flat.node(v).key_count, aug.size());
    EXPECT_EQ(m.flat.node(v).base, aug.front()) << "node " << v;
    for (std::uint32_t i = 0; i < aug.size(); ++i) {
      ASSERT_EQ(m.flat.key(v, i), aug[i]) << "node " << v << " entry " << i;
    }
    std::vector<Key> ys{aug.front(), aug.back()};
    for (const Key k : aug) {
      if (k > std::numeric_limits<Key>::min()) {
        ys.push_back(k - 1);
      }
      if (rng() % 8 == 0) {
        ys.push_back(k);
      }
    }
    for (int i = 0; i < 8; ++i) {
      ys.push_back(test_helpers::mixed_width_query(m.tree, rng));
    }
    for (const Key y : ys) {
      const auto want = static_cast<std::uint32_t>(
          std::lower_bound(aug.begin(), aug.end(), y) - aug.begin());
      ASSERT_EQ(m.flat.find(v, y), want) << "node " << v << " y " << y;
    }
  }
}

TEST(MixedWidth, SearchPathMatchesExplicitOracle) {
  for (const std::uint64_t seed : {3u, 4u, 5u}) {
    const Mixed m(seed);
    std::mt19937_64 rng(seed * 7);
    for (int qi = 0; qi < 400; ++qi) {
      const auto path = test_helpers::random_root_leaf_path(m.tree, rng);
      const Key y = test_helpers::mixed_width_query(m.tree, rng);
      const auto want = fc::search_explicit(m.structure, path, y);
      const auto got = m.flat.search(path, y);
      ASSERT_EQ(widen(got.aug_index), want.aug_index) << "y " << y;
      ASSERT_EQ(widen(got.proper_index), want.proper_index) << "y " << y;
    }
  }
}

TEST(MixedWidth, WindowKernelMatchesOracleAtWindowEdges) {
  const Mixed m(6);
  std::mt19937_64 rng(66);
  const std::size_t window = serve::kPathWindow;
  for (const std::size_t n :
       {std::size_t{1}, window - 1, window, window + 1, serve::kPathRun - 1,
        serve::kPathRun}) {
    std::vector<std::vector<cat::NodeId>> paths(n);
    std::vector<serve::PathRef> refs(n);
    std::vector<std::vector<std::uint32_t>> aug(n), prop(n);
    std::vector<std::uint32_t*> ap(n), pp(n);
    for (std::size_t q = 0; q < n; ++q) {
      paths[q] = test_helpers::random_root_leaf_path(m.tree, rng);
      refs[q] = {paths[q].data(), static_cast<std::uint32_t>(paths[q].size()),
                 test_helpers::mixed_width_query(m.tree, rng)};
      aug[q].resize(paths[q].size());
      prop[q].resize(paths[q].size());
      ap[q] = aug[q].data();
      pp[q] = prop[q].data();
    }
    const serve::PathFault fault = serve::search_paths_grouped_into(
        m.flat, refs.data(), n, ap.data(), pp.data());
    ASSERT_FALSE(fault) << fault.status().to_string();
    for (std::size_t q = 0; q < n; ++q) {
      const auto want = fc::search_explicit(m.structure, paths[q], refs[q].y);
      ASSERT_EQ(widen(aug[q]), want.aug_index) << "n " << n << " q " << q;
      ASSERT_EQ(widen(prop[q]), want.proper_index) << "n " << n << " q " << q;
    }
  }
}

TEST(MixedWidth, WalkImplicitMatchesImplicitOracle) {
  const Mixed m(7);
  std::mt19937_64 rng(77);
  for (int qi = 0; qi < 300; ++qi) {
    const Key y = test_helpers::mixed_width_query(m.tree, rng);
    const std::uint64_t salt = rng();
    const auto pick = [&](std::uint32_t v, std::size_t prop) {
      const std::size_t deg = m.tree.degree(static_cast<cat::NodeId>(v));
      return static_cast<std::uint32_t>(
          deg == 0 ? 0 : (prop * 31 + v + salt) % deg);
    };
    const auto want = fc::search_implicit(
        m.structure, y, [&](cat::NodeId v, std::size_t prop) {
          return pick(static_cast<std::uint32_t>(v), prop);
        });
    std::uint32_t last = 0;
    const std::uint32_t leaf = m.flat.walk_implicit(
        y, [&](std::uint32_t v, std::uint32_t prop) { return pick(v, prop); },
        &last);
    ASSERT_EQ(static_cast<cat::NodeId>(leaf), want.path.back()) << "y " << y;
    ASSERT_EQ(last, want.proper_index.back()) << "y " << y;
  }
}

/// `sub` with every y mapped to y * scale + shift: an affine map with a
/// positive determinant, so every region keeps its index and the separator
/// tree's keys (edge y coordinates) span `scale` times as much.
geom::MonotoneSubdivision stretch(geom::MonotoneSubdivision sub,
                                  geom::Coord scale, geom::Coord shift) {
  const auto map = [&](geom::Coord y) { return y * scale + shift; };
  for (geom::SubEdge& e : sub.edges) {
    e.lo.y = map(e.lo.y);
    e.hi.y = map(e.hi.y);
  }
  sub.ymin = map(sub.ymin);
  sub.ymax = map(sub.ymax);
  return sub;
}

TEST(MixedWidth, PointLocationWithWideCoordinates) {
  // Subdivisions keep |coordinates| <= 2^40: the strip [0, 40960) maps to
  // [-2^39, 2^39.4), where keys more than 2^12 (2^8) apart at scale 2^20
  // (2^24) are 2^32 apart.
  constexpr geom::Coord kShift = -(geom::Coord{1} << 39);
  for (const geom::Coord scale : {geom::Coord{1} << 20, geom::Coord{1} << 24}) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(scale));
    const auto base = geom::make_random_monotone(24, 40, rng);
    const auto sub = stretch(base, scale, kShift);
    ASSERT_EQ(sub.validate(), "");
    auto st = pointloc::SeparatorTree::build_checked(sub);
    ASSERT_TRUE(st.ok()) << st.status().to_string();
    auto loc = serve::FlatPointLocator::compile(*st);
    ASSERT_TRUE(loc.ok()) << loc.status().to_string();
    std::size_t wide = 0;
    for (std::uint32_t v = 0; v < loc->cascade().num_nodes(); ++v) {
      wide += loc->cascade().is_wide(v) ? 1 : 0;
    }
    EXPECT_GT(wide, 0u) << "scale " << scale;
    for (int qi = 0; qi < 300; ++qi) {
      const geom::Point q0 = geom::random_query_point(base, rng);
      const geom::Point q{q0.x, q0.y * scale + kShift};
      const std::size_t want = base.locate_brute(q0);
      ASSERT_EQ(sub.locate_brute(q), want);
      ASSERT_EQ(loc->locate(q), want) << "scale " << scale << " y " << q.y;
    }
  }
}

TEST(MixedWidth, DynamicPathsMatchLiveSuccessors) {
  std::mt19937_64 rng(8);
  const cat::Tree tree = test_helpers::mixed_width_tree(5, 1500, rng);
  auto s = fc::Structure::build_checked(tree);
  ASSERT_TRUE(s.ok());
  auto f = FlatCascade::compile(*s);
  ASSERT_TRUE(f.ok());
  snapshot::Registry registry;
  registry.mark_good(
      registry.publish(snapshot::Snapshot::in_memory(f.take())));
  auto attached = dyn::DynamicCatalog::attach(registry);
  ASSERT_TRUE(attached.ok()) << attached.status().to_string();
  const auto catalog = attached.take();

  // The live key sets, and a batch that inserts and erases keys of every
  // width (the extremes included) at random nodes.
  std::vector<std::set<Key>> live(tree.num_nodes());
  for (std::size_t v = 0; v < tree.num_nodes(); ++v) {
    for (const Key k : tree.catalog(static_cast<cat::NodeId>(v)).keys()) {
      if (k != cat::kInfinity) {
        live[v].insert(k);
      }
    }
  }
  std::vector<dyn::Mutation> muts;
  for (int i = 0; i < 400; ++i) {
    const auto node = static_cast<std::uint32_t>(rng() % tree.num_nodes());
    Key k = test_helpers::mixed_width_query(tree, rng);
    if (k == cat::kInfinity) {
      k = cat::kInfinity - 1;
    }
    const dyn::Op op = rng() % 3 == 0 ? dyn::Op::kDelete : dyn::Op::kInsert;
    muts.push_back({node, k, op});
  }
  // Last op wins within a batch, as in the oracle's replay order.
  ASSERT_TRUE(catalog->apply(muts).ok());
  for (const dyn::Mutation& mu : muts) {
    if (mu.op == dyn::Op::kInsert) {
      live[mu.node].insert(mu.key);
    } else {
      live[mu.node].erase(mu.key);
    }
  }

  std::vector<serve::PathQuery> queries;
  for (int qi = 0; qi < 200; ++qi) {
    queries.push_back({test_helpers::random_root_leaf_path(tree, rng),
                       test_helpers::mixed_width_query(tree, rng)});
  }
  std::vector<dyn::PathKeys> out(queries.size());
  const dyn::StatePtr state = catalog->state();
  ASSERT_FALSE(dyn::search_paths_dyn(*state, queries, out.data()));
  for (std::size_t q = 0; q < queries.size(); ++q) {
    ASSERT_EQ(out[q].keys.size(), queries[q].path.size());
    for (std::size_t i = 0; i < queries[q].path.size(); ++i) {
      const auto& keys = live[static_cast<std::size_t>(queries[q].path[i])];
      const auto it = keys.lower_bound(queries[q].y);
      const Key want = it == keys.end() ? cat::kInfinity : *it;
      ASSERT_EQ(out[q].keys[i], want)
          << "query " << q << " node " << queries[q].path[i] << " y "
          << queries[q].y;
    }
  }
}

}  // namespace
