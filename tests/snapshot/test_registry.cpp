#include "snapshot/registry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "fc/build.hpp"
#include "geom/generators.hpp"
#include "helpers.hpp"

namespace {

using serve::PathQuery;
using serve::QueryEngine;
using snapshot::Registry;
using snapshot::Snapshot;

struct Fixture {
  cat::Tree tree;
  std::string snap_path;
  std::vector<PathQuery> queries;
  std::vector<std::vector<std::uint32_t>> expected;  ///< proper per node

  explicit Fixture(std::size_t num_queries, std::uint64_t seed = 31) {
    std::mt19937_64 rng(seed);
    tree = cat::make_balanced_binary(7, 15000, cat::CatalogShape::kRandom,
                                     rng);
    snap_path = testing::TempDir() + "coop_registry.snap";
    EXPECT_TRUE(snapshot::write(compile(), snap_path).ok());
    queries.resize(num_queries);
    expected.resize(num_queries);
    for (std::size_t qi = 0; qi < num_queries; ++qi) {
      queries[qi].path = test_helpers::random_root_leaf_path(tree, rng);
      queries[qi].y = test_helpers::random_query(tree, rng);
      for (const cat::NodeId v : queries[qi].path) {
        expected[qi].push_back(static_cast<std::uint32_t>(
            tree.catalog(v).find(queries[qi].y)));
      }
    }
  }
  ~Fixture() { std::remove(snap_path.c_str()); }

  [[nodiscard]] serve::FlatCascade compile() const {
    const auto s = fc::Structure::build_checked(tree);
    EXPECT_TRUE(s.ok());
    auto f = serve::FlatCascade::compile(*s);
    EXPECT_TRUE(f.ok());
    return f.take();
  }

  /// A freshly opened mmap-backed snapshot of the same content.
  [[nodiscard]] Snapshot open_snapshot() const {
    auto snap = snapshot::open(snap_path);
    EXPECT_TRUE(snap.ok()) << snap.status().to_string();
    return snap.take();
  }

  [[nodiscard]] std::size_t count_mismatches(
      const serve::PathAnswerSet& out) const {
    std::size_t bad = 0;
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      if (out[qi].proper_index.size() != expected[qi].size()) {
        ++bad;
        continue;
      }
      for (std::size_t i = 0; i < expected[qi].size(); ++i) {
        bad += out[qi].proper_index[i] != expected[qi][i] ? 1 : 0;
      }
    }
    return bad;
  }
};

TEST(Registry, EmptyRegistryHasNothingToServe) {
  Registry registry;
  EXPECT_EQ(registry.current_version(), 0u);
  const Registry::Pin pin = registry.pin();
  EXPECT_FALSE(pin.has_snapshot());

  const Fixture fx(10);
  QueryEngine engine(1);
  serve::PathAnswerSet out;
  const auto s =
      snapshot::serve_path_queries(registry, engine, fx.queries, out);
  EXPECT_EQ(s.code(), coop::StatusCode::kFailedPrecondition);
}

TEST(Registry, PublishInstallsMonotoneVersions) {
  const Fixture fx(0);
  Registry registry;
  EXPECT_EQ(registry.publish(fx.open_snapshot()), 1u);
  EXPECT_EQ(registry.current_version(), 1u);
  EXPECT_EQ(registry.publish(Snapshot::in_memory(fx.compile())), 2u);
  EXPECT_EQ(registry.current_version(), 2u);
  const Registry::Pin pin = registry.pin();
  ASSERT_TRUE(pin.has_snapshot());
  EXPECT_EQ(pin.version(), 2u);
}

TEST(Registry, PinKeepsRetiredVersionMappedUntilRelease) {
  const Fixture fx(50);
  Registry registry;
  registry.publish(fx.open_snapshot());

  Registry::Pin pin = registry.pin();
  ASSERT_TRUE(pin.has_snapshot());
  EXPECT_EQ(pin.version(), 1u);

  // Publish over the pinned version until the keep window (current plus
  // kKeepGenerations retained rollback targets) overflows and v1 truly
  // retires: it must stay mapped and fully servable through the existing
  // pin regardless.
  registry.publish(fx.open_snapshot());
  registry.publish(Snapshot::in_memory(fx.compile()));
  EXPECT_EQ(registry.current_version(), 3u);
  EXPECT_EQ(registry.retired_count(), 0u);  // v1, v2 merely displaced
  registry.publish(fx.open_snapshot());
  registry.publish(Snapshot::in_memory(fx.compile()));
  EXPECT_EQ(registry.current_version(), 5u);
  EXPECT_EQ(registry.retained_count(), 1u + Registry::kKeepGenerations);
  EXPECT_GE(registry.retired_count(), 1u);
  EXPECT_EQ(pin.version(), 1u);
  for (std::size_t qi = 0; qi < fx.queries.size(); ++qi) {
    const auto r =
        pin.snapshot().cascade.search(fx.queries[qi].path, fx.queries[qi].y);
    for (std::size_t i = 0; i < fx.expected[qi].size(); ++i) {
      ASSERT_EQ(r.proper_index[i], fx.expected[qi][i]);
    }
  }

  // Dropping the last pin drains the retired list (v2 was retired after
  // v1 but never pinned; both reclaim once no announced epoch is old
  // enough to reach them).
  pin.release();
  EXPECT_EQ(registry.retired_count(), 0u);

  // A fresh pin sees the current version.
  const Registry::Pin fresh = registry.pin();
  EXPECT_EQ(fresh.version(), 5u);
}

TEST(Registry, PublishStormWithPinnedReaderDoesNotAccumulateRetired) {
  // Regression: one long-lived pin must not block reclamation of every
  // generation retired after it announced.  Under a compaction-driven
  // publish storm, retired versions the pin provably does not hold (its
  // pinned_version names another generation) reclaim immediately, so
  // the retired list stays O(1) and retained mappings stay within the
  // keep window — while the pinned generation itself remains mapped and
  // servable throughout.
  const Fixture fx(25);
  Registry registry;
  registry.publish(fx.open_snapshot());

  Registry::Pin pin = registry.pin();
  ASSERT_TRUE(pin.has_snapshot());
  EXPECT_EQ(pin.version(), 1u);

  constexpr std::size_t kStorm = 50;
  for (std::size_t i = 0; i < kStorm; ++i) {
    registry.publish(Snapshot::in_memory(fx.compile()));
    // v1 is the only version any reader holds: everything else retired
    // by the storm frees despite the old announced epoch.
    EXPECT_LE(registry.retired_count(), 1u) << "at publish " << i;
    EXPECT_LE(registry.retained_count(), 1u + Registry::kKeepGenerations)
        << "at publish " << i;
  }
  EXPECT_EQ(registry.current_version(), 1u + kStorm);

  // The pinned generation survived the storm fully servable.
  EXPECT_EQ(pin.version(), 1u);
  for (std::size_t qi = 0; qi < fx.queries.size(); ++qi) {
    const auto r =
        pin.snapshot().cascade.search(fx.queries[qi].path, fx.queries[qi].y);
    for (std::size_t i = 0; i < fx.expected[qi].size(); ++i) {
      ASSERT_EQ(r.proper_index[i], fx.expected[qi][i]);
    }
  }

  pin.release();
  EXPECT_EQ(registry.retired_count(), 0u);
}

TEST(Registry, ServeHelpersRejectWrongKind) {
  std::mt19937_64 rng(13);
  const auto sub = geom::make_random_monotone(150, 8, rng);
  auto st = pointloc::SeparatorTree::build_checked(sub);
  ASSERT_TRUE(st.ok());
  auto flat = serve::FlatPointLocator::compile(*st);
  ASSERT_TRUE(flat.ok());

  Registry registry;
  registry.publish(Snapshot::in_memory(flat.take()));
  QueryEngine engine(1);

  const Fixture fx(5);
  serve::PathAnswerSet path_out;
  EXPECT_EQ(snapshot::serve_path_queries(registry, engine, fx.queries,
                                         path_out)
                .code(),
            coop::StatusCode::kFailedPrecondition);

  // And the converse: a cascade snapshot cannot serve point queries.
  Registry cascades;
  cascades.publish(Snapshot::in_memory(fx.compile()));
  std::vector<geom::Point> pts{{0, 0}};
  std::vector<std::size_t> pt_out;
  EXPECT_EQ(snapshot::serve_point_queries(cascades, engine, pts, pt_out)
                .code(),
            coop::StatusCode::kFailedPrecondition);

  // The right kind works.
  std::vector<geom::Point> qs;
  for (int i = 0; i < 100; ++i) {
    qs.push_back(geom::random_query_point(sub, rng));
  }
  std::vector<std::size_t> regions;
  ASSERT_TRUE(
      snapshot::serve_point_queries(registry, engine, qs, regions).ok());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    ASSERT_EQ(regions[i], sub.locate_brute(qs[i]));
  }
}

TEST(Registry, LastKnownGoodTracksScrubbedGenerations) {
  const Fixture fx(0);
  Registry registry;
  EXPECT_EQ(registry.last_known_good(), 0u);

  registry.publish(fx.open_snapshot());  // v1
  EXPECT_EQ(registry.last_known_good(), 0u);  // never scrubbed
  registry.mark_good(1);
  EXPECT_EQ(registry.last_known_good(), 1u);

  registry.publish(fx.open_snapshot());  // v2, v1 retained
  registry.mark_good(2);
  EXPECT_EQ(registry.last_known_good(), 2u);
  // The quarantine lookup skips the suspect itself.
  EXPECT_EQ(registry.last_known_good(/*excluding=*/2), 1u);
  EXPECT_EQ(registry.last_known_good(/*excluding=*/1), 2u);

  // Marking a generation that is no longer retained is a harmless no-op.
  registry.mark_good(99);
  EXPECT_EQ(registry.last_known_good(), 2u);
}

TEST(Registry, KeepWindowNeverSpillsTheNewestGoodGeneration) {
  const Fixture fx(0);
  Registry registry;
  registry.publish(fx.open_snapshot());  // v1
  registry.mark_good(1);
  // Publish far past the keep window without ever scrubbing the newer
  // generations: v1 is the only good one and must survive every spill.
  for (int i = 0; i < 6; ++i) {
    registry.publish(fx.open_snapshot());
  }
  EXPECT_EQ(registry.current_version(), 7u);
  EXPECT_EQ(registry.last_known_good(), 1u);
  EXPECT_TRUE(registry.rollback(1).ok());
  EXPECT_EQ(registry.current_version(), 1u);
}

TEST(Registry, RollbackReinstatesRetainedGeneration) {
  const Fixture fx(64);
  Registry registry;
  registry.publish(fx.open_snapshot());  // v1
  registry.mark_good(1);
  registry.publish(fx.open_snapshot());  // v2 (the one we will quarantine)

  // A reader is pinned to the soon-to-be-quarantined generation: the
  // rollback must not unmap it under the reader (ASan runs prove it).
  Registry::Pin reader = registry.pin();
  ASSERT_TRUE(reader.has_snapshot());
  EXPECT_EQ(reader.version(), 2u);

  // Guarded rollback: wrong if_current loses the race and is refused.
  EXPECT_EQ(registry.rollback(1, /*if_current=*/7).code(),
            coop::StatusCode::kFailedPrecondition);
  // Unknown target generation is refused.
  EXPECT_EQ(registry.rollback(42).code(),
            coop::StatusCode::kFailedPrecondition);
  // The real thing.
  ASSERT_TRUE(registry.rollback(1, /*if_current=*/2).ok());
  EXPECT_EQ(registry.current_version(), 1u);
  // Rolling back to the already-current generation is a trivial OK.
  EXPECT_TRUE(registry.rollback(1).ok());

  // The quarantined generation was retired, not freed: the pinned reader
  // still serves correct answers from it.
  EXPECT_GE(registry.retired_count(), 1u);
  for (std::size_t qi = 0; qi < fx.queries.size(); ++qi) {
    const auto r = reader.snapshot().cascade.search(fx.queries[qi].path,
                                                    fx.queries[qi].y);
    for (std::size_t i = 0; i < fx.expected[qi].size(); ++i) {
      ASSERT_EQ(r.proper_index[i], fx.expected[qi][i]);
    }
  }
  // Its good mark (if any) was cleared: it can no longer be a rollback
  // target even while a pin keeps it mapped.
  EXPECT_EQ(registry.last_known_good(/*excluding=*/1), 0u);

  // Draining the reader reclaims the quarantined mapping.
  reader.release();
  EXPECT_EQ(registry.retired_count(), 0u);

  // New traffic serves the reinstated generation.
  const Registry::Pin fresh = registry.pin();
  EXPECT_EQ(fresh.version(), 1u);
}

TEST(Registry, HotSwapUnderConcurrentLoad) {
  // The acceptance scenario: many publish cycles while reader threads
  // serve continuously.  Every batch must come back complete and correct
  // (the snapshots all carry the same content, so the oracle is
  // version-independent), with zero mismatches and zero use-after-unmap
  // (the latter is what ASan runs of this test prove).
  const Fixture fx(256);
  Registry registry;
  registry.publish(fx.open_snapshot());

  constexpr int kPublishes = 12;
  constexpr int kReaders = 3;
  std::atomic<bool> done{false};
  std::atomic<std::size_t> total_mismatches{0};
  std::atomic<std::size_t> total_batches{0};
  std::atomic<std::size_t> serve_failures{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      QueryEngine engine(2);
      std::uint64_t last_version = 0;
      while (!done.load(std::memory_order_relaxed)) {
        serve::PathAnswerSet out;
        serve::BatchReport report;
        std::uint64_t version = 0;
        const auto s = snapshot::serve_path_queries(
            registry, engine, fx.queries, out, &report, &version);
        if (!s.ok()) {
          serve_failures.fetch_add(1);
          continue;
        }
        // Versions served by one reader never go backwards.
        if (version < last_version) {
          serve_failures.fetch_add(1);
        }
        last_version = version;
        total_mismatches.fetch_add(fx.count_mismatches(out));
        total_batches.fetch_add(1);
      }
      (void)r;
    });
  }

  // Publisher: alternate mmap-backed reopens and fresh in-memory
  // compiles of the same tree, so both lifetimes cross the epoch
  // machinery while readers are mid-batch.
  for (int i = 0; i < kPublishes; ++i) {
    if (i % 2 == 0) {
      registry.publish(fx.open_snapshot());
    } else {
      registry.publish(Snapshot::in_memory(fx.compile()));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  done.store(true);
  for (auto& th : readers) {
    th.join();
  }

  EXPECT_EQ(registry.current_version(), 1u + kPublishes);
  EXPECT_EQ(total_mismatches.load(), 0u);
  EXPECT_EQ(serve_failures.load(), 0u);
  EXPECT_GT(total_batches.load(), 0u);
  // With every reader drained, the retired list reclaims completely.
  EXPECT_EQ(registry.retired_count(), 0u);
}

}  // namespace
