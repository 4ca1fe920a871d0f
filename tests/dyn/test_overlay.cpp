#include "dyn/overlay.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "catalog/tree.hpp"
#include "dyn/compactor.hpp"
#include "fc/build.hpp"
#include "helpers.hpp"
#include "snapshot/registry.hpp"
#include "snapshot/snapshot.hpp"

namespace {

using dyn::DynamicCatalog;
using dyn::Key;
using dyn::Mutation;
using dyn::Op;
using dyn::StatePtr;
using snapshot::Registry;
using snapshot::Snapshot;

constexpr Key kKeyRange = 1'000'000'000;

/// Rebuilt-from-scratch oracle: per node, the exact live key set under
/// the full mutation history, maintained with none of the overlay's
/// machinery (a plain ordered map).
class Oracle {
 public:
  explicit Oracle(const cat::Tree& tree) {
    live_.resize(tree.num_nodes());
    for (std::size_t v = 0; v < tree.num_nodes(); ++v) {
      const auto keys = tree.catalog(static_cast<cat::NodeId>(v)).keys();
      for (const Key k : keys) {
        if (k != cat::kInfinity) {
          live_[v].insert(k);
        }
      }
    }
  }

  void apply(const Mutation& m) {
    if (m.op == Op::kInsert) {
      live_[m.node].insert(m.key);
    } else {
      live_[m.node].erase(m.key);
    }
  }

  [[nodiscard]] Key successor(std::uint32_t node, Key y) const {
    const auto it = live_[node].lower_bound(y);
    return it == live_[node].end() ? cat::kInfinity : *it;
  }

  [[nodiscard]] std::vector<Key> keys(std::uint32_t node) const {
    return {live_[node].begin(), live_[node].end()};
  }

 private:
  std::vector<std::set<Key>> live_;
};

struct Fixture {
  cat::Tree tree;
  Registry registry;
  std::unique_ptr<DynamicCatalog> cat;

  explicit Fixture(std::uint64_t seed = 17, std::uint32_t height = 5,
                   std::size_t entries = 600,
                   std::size_t merge_threshold = 8) {
    std::mt19937_64 rng(seed);
    tree = cat::make_balanced_binary(height, entries,
                                     cat::CatalogShape::kRandom, rng,
                                     kKeyRange);
    registry.mark_good(registry.publish(Snapshot::in_memory(compile())));
    DynamicCatalog::Options opts;
    opts.merge_threshold = merge_threshold;
    auto attached = DynamicCatalog::attach(registry, opts);
    EXPECT_TRUE(attached.ok()) << attached.status().to_string();
    cat = attached.take();
  }

  [[nodiscard]] serve::FlatCascade compile() const {
    const auto s = fc::Structure::build_checked(tree);
    EXPECT_TRUE(s.ok());
    auto f = serve::FlatCascade::compile(*s);
    EXPECT_TRUE(f.ok());
    return f.take();
  }

  /// Check the captured state against the oracle at every node for a
  /// spread of probes (exact successor keys AND full live key lists).
  void check_against(const Oracle& oracle, const StatePtr& s,
                     std::mt19937_64& rng, std::size_t probes = 12) const {
    for (std::uint32_t v = 0; v < tree.num_nodes(); ++v) {
      ASSERT_EQ(s->live_keys(v), oracle.keys(v)) << "node " << v;
      for (std::size_t p = 0; p < probes; ++p) {
        const Key y = static_cast<Key>(rng() % (2 * kKeyRange));
        ASSERT_EQ(s->live_successor(v, y), oracle.successor(v, y))
            << "node " << v << " y " << y;
      }
      // Boundary probes: 0 and just past the largest live key.
      ASSERT_EQ(s->live_successor(v, 0), oracle.successor(v, 0));
      const auto keys = oracle.keys(v);
      if (!keys.empty()) {
        ASSERT_EQ(s->live_successor(v, keys.back() + 1),
                  oracle.successor(v, keys.back() + 1));
        ASSERT_EQ(s->live_successor(v, keys.back()), keys.back());
      }
    }
  }
};

TEST(ProperIndex, ReconstructsEveryNodesProperKeys) {
  const Fixture fx;
  const StatePtr s = fx.cat->state();
  const auto& proper = s->base->proper;
  ASSERT_EQ(proper.num_nodes(), fx.tree.num_nodes());
  for (std::size_t v = 0; v < fx.tree.num_nodes(); ++v) {
    const auto got = proper.node_keys(static_cast<std::uint32_t>(v));
    const auto want = fx.tree.catalog(static_cast<cat::NodeId>(v)).keys();
    ASSERT_EQ(got.size(), want.size()) << "node " << v;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "node " << v << " slot " << i;
    }
  }
}

TEST(Overlay, BaseOnlyReadsMatchOracleAtDepthZero) {
  const Fixture fx;
  Oracle oracle(fx.tree);
  std::mt19937_64 rng(23);
  const StatePtr s = fx.cat->state();
  EXPECT_EQ(s->max_depth, 0u);
  EXPECT_EQ(s->pending, 0u);
  fx.check_against(oracle, s, rng);
}

TEST(Overlay, DeltaOnlyShadowedAndTombstonedKeys) {
  Fixture fx;
  Oracle oracle(fx.tree);
  std::mt19937_64 rng(29);

  // Pick a node and craft the four key classes explicitly.
  const std::uint32_t v = 3;
  const auto base_keys = oracle.keys(v);
  ASSERT_GE(base_keys.size(), 4u);
  const Key fresh = base_keys.back() + 1000;    // delta-only insert
  const Key shadowed = base_keys[1];            // re-insert of a base key
  const Key killed = base_keys[2];              // tombstone of a base key
  const Key ghost = base_keys.back() + 2000;    // tombstone of a non-key

  const std::vector<Mutation> muts = {
      {v, fresh, Op::kInsert},
      {v, shadowed, Op::kInsert},
      {v, killed, Op::kDelete},
      {v, ghost, Op::kDelete},
  };
  auto ack = fx.cat->apply(muts);
  ASSERT_TRUE(ack.ok()) << ack.status().to_string();
  for (const Mutation& m : muts) {
    oracle.apply(m);
  }

  const StatePtr s = fx.cat->state();
  EXPECT_EQ(s->write_seq, *ack);
  // Delta-only key is live; shadowed key is still live; tombstoned key
  // resolves to its base successor; ghost tombstone changes nothing.
  EXPECT_EQ(s->live_successor(v, fresh), fresh);
  EXPECT_EQ(s->live_successor(v, shadowed), shadowed);
  EXPECT_NE(s->live_successor(v, killed), killed);
  EXPECT_EQ(s->live_successor(v, killed), oracle.successor(v, killed));
  fx.check_against(oracle, s, rng);

  // Re-inserting the tombstoned key in a later run resurrects it
  // (newest-wins across runs).
  ASSERT_TRUE(fx.cat->apply({{{v, killed, Op::kInsert}}}).ok());
  oracle.apply({v, killed, Op::kInsert});
  EXPECT_EQ(fx.cat->state()->live_successor(v, killed), killed);
}

TEST(Overlay, RandomMutationStormMatchesOracle) {
  Fixture fx(/*seed=*/41, /*height=*/5, /*entries=*/400,
             /*merge_threshold=*/4);
  Oracle oracle(fx.tree);
  std::mt19937_64 rng(43);
  const std::size_t num_nodes = fx.tree.num_nodes();

  for (std::size_t round = 0; round < 30; ++round) {
    std::vector<Mutation> batch;
    for (std::size_t i = 0; i < 40; ++i) {
      Mutation m;
      m.node = static_cast<std::uint32_t>(rng() % num_nodes);
      // Half the keys collide with the base range, half are fresh.
      m.key = static_cast<Key>(rng() % (2 * kKeyRange));
      m.op = (rng() % 3 == 0) ? Op::kDelete : Op::kInsert;
      batch.push_back(m);
    }
    auto ack = fx.cat->apply(batch);
    ASSERT_TRUE(ack.ok()) << ack.status().to_string();
    // The oracle must apply the batch exactly as the overlay groups it:
    // last op per (node, key) wins within one batch.
    std::map<std::pair<std::uint32_t, Key>, Op> final_ops;
    for (const Mutation& m : batch) {
      final_ops[{m.node, m.key}] = m.op;
    }
    for (const auto& [nk, op] : final_ops) {
      oracle.apply({nk.first, nk.second, op});
    }
    if (round % 10 == 9) {
      fx.check_against(oracle, fx.cat->state(), rng, /*probes=*/6);
    }
  }
  // The storm exceeded the merge threshold many times over: merged
  // run lists must still agree with the oracle everywhere.
  EXPECT_GT(fx.cat->stats().merges_total, 0u);
  fx.check_against(oracle, fx.cat->state(), rng);
}

TEST(Overlay, SearchPathsDynMatchesPerNodeSuccessors) {
  Fixture fx;
  Oracle oracle(fx.tree);
  std::mt19937_64 rng(53);

  std::vector<Mutation> batch;
  for (std::size_t i = 0; i < 200; ++i) {
    batch.push_back({static_cast<std::uint32_t>(rng() % fx.tree.num_nodes()),
                     static_cast<Key>(rng() % (2 * kKeyRange)),
                     (rng() % 3 == 0) ? Op::kDelete : Op::kInsert});
  }
  std::map<std::pair<std::uint32_t, Key>, Op> final_ops;
  for (const Mutation& m : batch) {
    final_ops[{m.node, m.key}] = m.op;
  }
  ASSERT_TRUE(fx.cat->apply(batch).ok());
  for (const auto& [nk, op] : final_ops) {
    oracle.apply({nk.first, nk.second, op});
  }

  std::vector<serve::PathQuery> queries(64);
  for (auto& q : queries) {
    q.path = test_helpers::random_root_leaf_path(fx.tree, rng);
    q.y = static_cast<Key>(rng() % (2 * kKeyRange));
  }
  const StatePtr s = fx.cat->state();
  std::vector<dyn::PathKeys> out(queries.size());
  dyn::search_paths_dyn(*s, queries, out.data());
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    ASSERT_EQ(out[qi].keys.size(), queries[qi].path.size());
    for (std::size_t i = 0; i < queries[qi].path.size(); ++i) {
      const auto v =
          static_cast<std::uint32_t>(queries[qi].path[i]);
      ASSERT_EQ(out[qi].keys[i], oracle.successor(v, queries[qi].y))
          << "query " << qi << " step " << i;
    }
  }
}

TEST(Overlay, ReadsRacingCompactionPublishSeeBothGenerationsCorrectly) {
  Fixture fx(/*seed=*/61, /*height=*/4, /*entries=*/300,
             /*merge_threshold=*/4);
  Oracle oracle(fx.tree);
  std::mt19937_64 rng(67);

  std::vector<Mutation> batch;
  for (std::size_t i = 0; i < 150; ++i) {
    batch.push_back({static_cast<std::uint32_t>(rng() % fx.tree.num_nodes()),
                     static_cast<Key>(rng() % (2 * kKeyRange)),
                     (rng() % 4 == 0) ? Op::kDelete : Op::kInsert});
  }
  std::map<std::pair<std::uint32_t, Key>, Op> final_ops;
  for (const Mutation& m : batch) {
    final_ops[{m.node, m.key}] = m.op;
  }
  ASSERT_TRUE(fx.cat->apply(batch).ok());
  for (const auto& [nk, op] : final_ops) {
    oracle.apply({nk.first, nk.second, op});
  }

  // Capture the pre-compaction state, then compact underneath it.
  const StatePtr before = fx.cat->state();
  EXPECT_GT(before->pending, 0u);
  dyn::Compactor compactor(*fx.cat, {});
  auto compacted = compactor.compact_once();
  ASSERT_TRUE(compacted.ok()) << compacted.status().to_string();

  const StatePtr after = fx.cat->state();
  EXPECT_GT(after->base->version, before->base->version);
  EXPECT_EQ(after->pending, 0u);
  EXPECT_EQ(after->watermark, before->write_seq);

  // Both the stale capture (old pinned generation + runs) and the fresh
  // one (new base, empty overlay) answer identically — and correctly.
  fx.check_against(oracle, before, rng, /*probes=*/6);
  fx.check_against(oracle, after, rng, /*probes=*/6);

  // Writes applied after the compaction land on the new base.
  const Key late = 3 * kKeyRange;
  ASSERT_TRUE(fx.cat->apply({{{0, late, Op::kInsert}}}).ok());
  oracle.apply({0, late, Op::kInsert});
  fx.check_against(oracle, fx.cat->state(), rng, /*probes=*/4);
  // The stale capture, by design, does not see the late write.
  EXPECT_NE(before->live_successor(0, late), late);
}

TEST(Overlay, ApplyRejectsSentinelAndOversizedBatches) {
  Fixture fx;
  auto bad = fx.cat->apply({{{0, cat::kInfinity, Op::kInsert}}});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), coop::StatusCode::kInvalidArgument);

  std::vector<Mutation> huge(fx.cat->options().max_batch + 1);
  auto too_big = fx.cat->apply(huge);
  ASSERT_FALSE(too_big.ok());
  EXPECT_EQ(too_big.status().code(), coop::StatusCode::kInvalidArgument);

  auto bad_node = fx.cat->apply(
      {{{static_cast<std::uint32_t>(fx.tree.num_nodes()), 5, Op::kInsert}}});
  ASSERT_FALSE(bad_node.ok());
  EXPECT_EQ(bad_node.status().code(), coop::StatusCode::kInvalidArgument);
}

TEST(Overlay, ReadYourWritesAfterEveryAck) {
  Fixture fx;
  std::mt19937_64 rng(71);
  for (std::size_t i = 0; i < 50; ++i) {
    const auto v = static_cast<std::uint32_t>(rng() % fx.tree.num_nodes());
    const Key k = static_cast<Key>(rng() % kKeyRange) + 2 * kKeyRange;
    ASSERT_TRUE(fx.cat->apply({{{v, k, Op::kInsert}}}).ok());
    EXPECT_EQ(fx.cat->state()->live_successor(v, k), k);
    ASSERT_TRUE(fx.cat->apply({{{v, k, Op::kDelete}}}).ok());
    EXPECT_NE(fx.cat->state()->live_successor(v, k), k);
  }
}

/// Brute-force recount over every node of the State's depth bookkeeping:
/// max_depth and touched must equal the longest run list and the number
/// of nodes with any run, in the State and in stats().
void expect_exact_depth(const DynamicCatalog& cat, std::size_t num_nodes) {
  const StatePtr s = cat.state();
  std::size_t depth = 0;
  std::size_t touched = 0;
  for (std::uint32_t v = 0; v < num_nodes; ++v) {
    const std::size_t len = s->node_runs(v).size();
    depth = std::max(depth, len);
    touched += len > 0 ? 1 : 0;
  }
  EXPECT_EQ(s->max_depth, depth);
  EXPECT_EQ(s->touched, touched);
  const DynamicCatalog::Stats st = cat.stats();
  EXPECT_EQ(st.max_depth, depth);
  EXPECT_EQ(st.nodes_with_runs, touched);
}

/// Rebuild the generation `s` describes (its merged live keys over its
/// base topology), as the compactor does.
Snapshot rebuild(const dyn::State& s, std::size_t num_nodes) {
  cat::Tree tree(num_nodes);
  const auto& flat = s.base->flat();
  for (std::uint32_t v = 0; v < num_nodes; ++v) {
    for (std::uint32_t c = 0; c < flat.node(v).num_children; ++c) {
      tree.add_child(static_cast<cat::NodeId>(v),
                     static_cast<cat::NodeId>(flat.child(v, c)));
    }
  }
  for (std::uint32_t v = 0; v < num_nodes; ++v) {
    tree.set_catalog(static_cast<cat::NodeId>(v),
                     cat::Catalog::from_sorted_keys(s.live_keys(v)));
  }
  tree.finalize();
  const auto st = fc::Structure::build_checked(tree);
  EXPECT_TRUE(st.ok());
  auto f = serve::FlatCascade::compile(*st);
  EXPECT_TRUE(f.ok());
  return Snapshot::in_memory(f.take());
}

TEST(Overlay, CapturedStatesStayIsolatedAcrossChunkBoundaries) {
  // Height 6: 127 nodes, one full chunk and a partial last one.
  Fixture fx(/*seed=*/73, /*height=*/6, /*entries=*/1200,
             /*merge_threshold=*/3);
  const auto n = static_cast<std::uint32_t>(fx.tree.num_nodes());
  ASSERT_GT(n, dyn::kChunkNodes);
  ASSERT_NE(n % dyn::kChunkNodes, 0u);
  const std::vector<std::uint32_t> edges = {0, dyn::kChunkNodes - 1,
                                            dyn::kChunkNodes, n - 1};
  Oracle oracle(fx.tree);
  std::mt19937_64 rng(79);

  // Two mutations per listed node, last op per (node, key) wins.
  const auto apply_at = [&](const std::vector<std::uint32_t>& nodes) {
    std::vector<Mutation> batch;
    for (const std::uint32_t v : nodes) {
      for (int i = 0; i < 2; ++i) {
        batch.push_back({v, static_cast<Key>(rng() % (2 * kKeyRange)),
                         (rng() % 3 == 0) ? Op::kDelete : Op::kInsert});
      }
    }
    ASSERT_TRUE(fx.cat->apply(batch).ok());
    std::map<std::pair<std::uint32_t, Key>, Op> final_ops;
    for (const Mutation& m : batch) {
      final_ops[{m.node, m.key}] = m.op;
    }
    for (const auto& [nk, op] : final_ops) {
      oracle.apply({nk.first, nk.second, op});
    }
  };
  // Everything a reader can ask of the boundary nodes.
  std::vector<Key> probes = {0, kKeyRange / 2, kKeyRange, 2 * kKeyRange};
  for (int i = 0; i < 12; ++i) {
    probes.push_back(static_cast<Key>(rng() % (2 * kKeyRange)));
  }
  const auto answers = [&](const StatePtr& s) {
    std::vector<std::vector<Key>> out;
    for (const std::uint32_t v : edges) {
      out.push_back(s->live_keys(v));
      std::vector<Key> succ;
      for (const Key y : probes) {
        succ.push_back(s->live_successor(v, y));
      }
      out.push_back(std::move(succ));
    }
    return out;
  };

  apply_at(edges);
  expect_exact_depth(*fx.cat, n);
  const StatePtr captured = fx.cat->state();
  const auto captured_want = answers(captured);

  // A write to one chunk clones that chunk only.
  apply_at({0});
  EXPECT_NE(fx.cat->state()->chunks[0], captured->chunks[0]);
  EXPECT_EQ(fx.cat->state()->chunks[1], captured->chunks[1]);

  // Deepen every boundary node past the merge threshold.
  for (int round = 0; round < 6; ++round) {
    apply_at(edges);
    EXPECT_EQ(answers(captured), captured_want) << "round " << round;
    expect_exact_depth(*fx.cat, n);
  }
  EXPECT_GT(fx.cat->stats().merges_total, 0u);

  // Compact at a watermark that the last chunk's runs outlive: chunk 0
  // empties, the partial last chunk is rebuilt with its survivors.
  const StatePtr mid = fx.cat->state();
  const auto mid_want = answers(mid);
  apply_at({dyn::kChunkNodes, n - 1});
  auto installed =
      fx.cat->install_compacted(rebuild(*mid, n), mid->write_seq);
  ASSERT_TRUE(installed.ok()) << installed.status().to_string();
  expect_exact_depth(*fx.cat, n);
  EXPECT_EQ(fx.cat->stats().nodes_with_runs, 2u);
  EXPECT_EQ(fx.cat->stats().max_depth, 1u);
  EXPECT_EQ(fx.cat->state()->chunks[0], nullptr);
  EXPECT_EQ(answers(captured), captured_want);
  EXPECT_EQ(answers(mid), mid_want);
  fx.check_against(oracle, fx.cat->state(), rng, /*probes=*/6);

  // A full compaction empties the table; the captures still answer.
  dyn::Compactor compactor(*fx.cat, {});
  ASSERT_TRUE(compactor.compact_once().ok());
  expect_exact_depth(*fx.cat, n);
  EXPECT_EQ(fx.cat->stats().nodes_with_runs, 0u);
  EXPECT_EQ(answers(captured), captured_want);
  EXPECT_EQ(answers(mid), mid_want);
  fx.check_against(oracle, fx.cat->state(), rng, /*probes=*/6);
}

}  // namespace
