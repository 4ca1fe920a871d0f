#include "dyn/recovery.hpp"

#include <dirent.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "catalog/tree.hpp"
#include "dyn/compactor.hpp"
#include "dyn/overlay.hpp"
#include "dyn/wal.hpp"
#include "fc/build.hpp"
#include "robust/corrupt.hpp"
#include "snapshot/registry.hpp"
#include "snapshot/snapshot.hpp"

namespace {

using dyn::Compactor;
using dyn::DynamicCatalog;
using dyn::Key;
using dyn::Mutation;
using dyn::Op;
using snapshot::Registry;
using snapshot::Snapshot;

constexpr Key kKeyRange = 1'000'000'000;

/// Sentinel plan_boot fallback: "build the bootstrap base in memory".
constexpr const char* kBootstrap = "<in-memory-bootstrap>";

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "coop_recov_" + name;
  if (DIR* d = ::opendir(dir.c_str())) {
    std::vector<std::string> victims;
    while (dirent* e = ::readdir(d)) {
      const std::string n = e->d_name;
      if (n != "." && n != "..") {
        victims.push_back(dir + "/" + n);
      }
    }
    ::closedir(d);
    for (const std::string& v : victims) {
      ::unlink(v.c_str());
    }
    ::rmdir(dir.c_str());
  }
  return dir;
}

cat::Tree make_tree(std::uint64_t seed = 19) {
  std::mt19937_64 rng(seed);
  return cat::make_balanced_binary(4, 300, cat::CatalogShape::kRandom, rng,
                                   kKeyRange);
}

std::vector<Mutation> random_batch(const cat::Tree& tree,
                                   std::mt19937_64& rng,
                                   std::size_t n = 64) {
  std::vector<Mutation> batch;
  for (std::size_t i = 0; i < n; ++i) {
    batch.push_back({static_cast<std::uint32_t>(rng() % tree.num_nodes()),
                     static_cast<Key>(rng() % (2 * kKeyRange)),
                     (rng() % 3 == 0) ? Op::kDelete : Op::kInsert});
  }
  return batch;
}

/// One process lifetime of a durable catalog: boot exactly the way
/// coopserve does — plan_boot picks the base (the manifest's spooled
/// snapshot, or the in-memory bootstrap on a virgin directory), attach,
/// then recover_and_attach replays the log and hands over the WAL.
struct Boot {
  Registry registry;
  std::unique_ptr<DynamicCatalog> cat;
  dyn::RecoveryReport report;

  [[nodiscard]] coop::Status up(const cat::Tree& tree,
                                const dyn::DurabilityOptions& d) {
    auto plan = dyn::plan_boot(d.dir, kBootstrap);
    if (!plan.ok()) {
      return plan.status();
    }
    if (plan->snapshot_path == kBootstrap) {
      const auto s = fc::Structure::build_checked(tree);
      if (!s.ok()) {
        return s.status();
      }
      auto f = serve::FlatCascade::compile(*s);
      if (!f.ok()) {
        return f.status();
      }
      registry.mark_good(registry.publish(Snapshot::in_memory(f.take())));
    } else {
      auto snap = snapshot::open(plan->snapshot_path);
      if (!snap.ok()) {
        return snap.status();
      }
      registry.mark_good(registry.publish(snap.take()));
    }
    DynamicCatalog::Options opts;
    opts.merge_threshold = 4;
    auto attached = DynamicCatalog::attach(registry, opts);
    if (!attached.ok()) {
      return attached.status();
    }
    cat = attached.take();
    auto rep = dyn::recover_and_attach(*cat, d);
    if (!rep.ok()) {
      return rep.status();
    }
    report = rep.take();
    return coop::OkStatus();
  }
};

/// Every node's live key set — the differential oracle across restarts.
std::map<std::uint32_t, std::vector<Key>> all_live(const DynamicCatalog& cat,
                                                   std::size_t num_nodes) {
  const dyn::StatePtr s = cat.state();
  std::map<std::uint32_t, std::vector<Key>> out;
  for (std::uint32_t v = 0; v < num_nodes; ++v) {
    out[v] = s->live_keys(v);
  }
  return out;
}

std::string last_segment(const std::string& dir) {
  auto segs = dyn::list_wal_segments(dir);
  EXPECT_TRUE(segs.ok());
  EXPECT_FALSE(segs->empty());
  return segs->back().path;
}

TEST(Recovery, AckedWritesSurviveSimulatedKill) {
  const cat::Tree tree = make_tree();
  dyn::DurabilityOptions d;
  d.dir = fresh_dir("survive");

  Boot a;
  ASSERT_TRUE(a.up(tree, d).ok());
  EXPECT_EQ(a.report.watermark, 0u);
  EXPECT_EQ(a.report.runs_replayed, 0u);
  std::mt19937_64 rng(7);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(a.cat->apply(random_batch(tree, rng, 80)).ok());
  }
  const auto want = all_live(*a.cat, tree.num_nodes());
  const std::uint64_t want_seq = a.cat->stats().write_seq;
  ASSERT_GT(want_seq, 0u);
  a.cat->wal()->simulate_crash();

  Boot b;
  ASSERT_TRUE(b.up(tree, d).ok());
  EXPECT_EQ(b.report.watermark, 0u);
  EXPECT_EQ(b.report.recovered_seq, want_seq);
  EXPECT_GT(b.report.runs_replayed, 0u);
  EXPECT_GT(b.report.mutations_replayed, 0u);
  EXPECT_EQ(b.report.torn_bytes, 0u);
  EXPECT_EQ(b.cat->stats().write_seq, want_seq);
  EXPECT_EQ(all_live(*b.cat, tree.num_nodes()), want);
  // The reopened log accepts new writes from the recovered cursor.
  ASSERT_TRUE(b.cat->apply(random_batch(tree, rng, 16)).ok());
  EXPECT_GT(b.cat->stats().write_seq, want_seq);
}

TEST(Recovery, PowerLossUnderFsyncNoneRollsBackToLastSync) {
  const cat::Tree tree = make_tree();
  dyn::DurabilityOptions d;
  d.dir = fresh_dir("powerloss");
  d.wal.fsync = dyn::FsyncPolicy::kNone;

  Boot a;
  ASSERT_TRUE(a.up(tree, d).ok());
  std::mt19937_64 rng(23);
  ASSERT_TRUE(a.cat->apply(random_batch(tree, rng, 60)).ok());
  ASSERT_TRUE(a.cat->wal()->sync_now().ok());
  const auto want = all_live(*a.cat, tree.num_nodes());
  const std::uint64_t synced_seq = a.cat->stats().write_seq;
  const std::string seg = last_segment(d.dir);
  struct stat st{};
  ASSERT_EQ(::stat(seg.c_str(), &st), 0);
  const off_t synced_bytes = st.st_size;

  // Acked under fsync=none: in the kernel, not on the platter.  Power
  // loss (unlike kill -9) destroys the page cache — model it by cutting
  // the file back to the last fsync'd byte.
  ASSERT_TRUE(a.cat->apply(random_batch(tree, rng, 60)).ok());
  ASSERT_GT(a.cat->stats().write_seq, synced_seq);
  a.cat->wal()->simulate_crash();
  ASSERT_EQ(::truncate(seg.c_str(), synced_bytes), 0);

  Boot b;
  ASSERT_TRUE(b.up(tree, d).ok());
  EXPECT_EQ(b.cat->stats().write_seq, synced_seq);
  EXPECT_EQ(all_live(*b.cat, tree.num_nodes()), want);
}

TEST(Recovery, TornTailTruncatedUnlessStrict) {
  const cat::Tree tree = make_tree();
  dyn::DurabilityOptions d;
  d.dir = fresh_dir("torn");

  Boot a;
  ASSERT_TRUE(a.up(tree, d).ok());
  std::mt19937_64 rng(31);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(a.cat->apply(random_batch(tree, rng, 40)).ok());
  }
  const std::uint64_t full_seq = a.cat->stats().write_seq;
  a.cat->wal()->simulate_crash();
  ASSERT_TRUE(
      robust::corrupt_wal_file(last_segment(d.dir),
                               robust::CorruptionKind::kWalTornTail, 5)
          .ok());

  // Forensics mode refuses the tear and leaves the overlay untouched.
  dyn::DurabilityOptions strict = d;
  strict.recovery.strict_tail = true;
  Boot refused;
  const coop::Status st = refused.up(tree, strict);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), coop::StatusCode::kCorrupted) << st.to_string();
  ASSERT_NE(refused.cat, nullptr);
  EXPECT_EQ(refused.cat->stats().write_seq, 0u);
  EXPECT_EQ(refused.cat->state()->pending, 0u);
  EXPECT_EQ(refused.cat->wal(), nullptr);

  // Default mode: truncate the tear, replay the clean prefix, serve.
  Boot b;
  ASSERT_TRUE(b.up(tree, d).ok());
  EXPECT_GT(b.report.torn_bytes, 0u);
  EXPECT_FALSE(b.report.tail.ok());
  EXPECT_LT(b.report.recovered_seq, full_seq);
  EXPECT_EQ(b.cat->stats().write_seq, b.report.recovered_seq);
  ASSERT_TRUE(b.cat->apply(random_batch(tree, rng, 16)).ok());
}

TEST(Recovery, MidLogDamageRejectedTypedWithNoPartialState) {
  for (const robust::CorruptionKind kind :
       {robust::CorruptionKind::kWalRecordBitFlip,
        robust::CorruptionKind::kWalSeqRegression}) {
    SCOPED_TRACE(robust::to_string(kind));
    const cat::Tree tree = make_tree();
    dyn::DurabilityOptions d;
    d.dir = fresh_dir(std::string("damage_") +
                      std::to_string(static_cast<int>(kind)));

    Boot a;
    ASSERT_TRUE(a.up(tree, d).ok());
    std::mt19937_64 rng(41);
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(a.cat->apply(random_batch(tree, rng, 40)).ok());
    }
    a.cat->wal()->simulate_crash();
    ASSERT_TRUE(
        robust::corrupt_wal_file(last_segment(d.dir), kind, 9).ok());

    Boot b;
    const coop::Status st = b.up(tree, d);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), coop::StatusCode::kCorrupted) << st.to_string();
    // All-or-nothing replay: the overlay never saw a single run.
    ASSERT_NE(b.cat, nullptr);
    EXPECT_EQ(b.cat->stats().write_seq, 0u);
    EXPECT_EQ(b.cat->state()->pending, 0u);
    EXPECT_EQ(b.cat->state()->touched, 0u);
    EXPECT_EQ(b.cat->wal(), nullptr);
  }
}

TEST(Recovery, CompactedBaseBootsAndOrphanSpoolIsSwept) {
  const cat::Tree tree = make_tree();
  dyn::DurabilityOptions d;
  d.dir = fresh_dir("compacted");

  Boot a;
  ASSERT_TRUE(a.up(tree, d).ok());
  std::mt19937_64 rng(53);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(a.cat->apply(random_batch(tree, rng, 60)).ok());
  }
  Compactor compactor(*a.cat, {});
  ASSERT_TRUE(compactor.compact_once().ok());
  const std::uint64_t watermark = a.cat->stats().watermark;
  ASSERT_GT(watermark, 0u);

  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(a.cat->apply(random_batch(tree, rng, 60)).ok());
  }
  const auto want = all_live(*a.cat, tree.num_nodes());
  const std::uint64_t want_seq = a.cat->stats().write_seq;
  // A second compaction that died after spooling but before the manifest
  // commit leaves an orphan base the manifest never names.
  const std::string orphan = a.cat->wal()->base_path_for(want_seq);
  {
    std::ofstream out(orphan, std::ios::binary);
    out << "half-written spool";
  }
  a.cat->wal()->simulate_crash();

  Boot b;
  ASSERT_TRUE(b.up(tree, d).ok());
  EXPECT_EQ(b.report.watermark, watermark);
  EXPECT_FALSE(b.report.base_file.empty());
  EXPECT_EQ(b.report.recovered_seq, want_seq);
  EXPECT_EQ(b.cat->stats().write_seq, want_seq);
  EXPECT_EQ(b.cat->stats().watermark, watermark);
  EXPECT_EQ(all_live(*b.cat, tree.num_nodes()), want);
  EXPECT_NE(::access(orphan.c_str(), F_OK), 0);  // swept at recovery
}

TEST(Recovery, EmptyFinalSegmentFromRotationCrash) {
  const cat::Tree tree = make_tree();
  dyn::DurabilityOptions d;
  d.dir = fresh_dir("rotcrash");

  Boot a;
  ASSERT_TRUE(a.up(tree, d).ok());
  std::mt19937_64 rng(61);
  ASSERT_TRUE(a.cat->apply(random_batch(tree, rng, 60)).ok());
  const auto want = all_live(*a.cat, tree.num_nodes());
  const std::uint64_t want_seq = a.cat->stats().write_seq;
  a.cat->wal()->simulate_crash();

  // A kill between creating the rotation target and writing its first
  // record leaves a zero-byte final segment.
  char digits[32];
  std::snprintf(digits, sizeof(digits), "%020llu",
                static_cast<unsigned long long>(want_seq + 1));
  const std::string empty_seg = d.dir + "/" + dyn::kWalSegmentPrefix +
                                digits + dyn::kWalSegmentSuffix;
  { std::ofstream out(empty_seg, std::ios::binary); }

  Boot b;
  ASSERT_TRUE(b.up(tree, d).ok());
  EXPECT_EQ(b.report.recovered_seq, want_seq);
  EXPECT_EQ(all_live(*b.cat, tree.num_nodes()), want);
  ASSERT_TRUE(b.cat->apply(random_batch(tree, rng, 16)).ok());
}

// Differential restart soak: write, kill, recover, verify every node's
// live key set, repeat — with compactions mixed in so the base keeps
// moving under the log.  DYN_SOAK_MS extends the run (CI leg).
TEST(Recovery, RestartSoakSurvivesRepeatedKills) {
  const cat::Tree tree = make_tree(67);
  dyn::DurabilityOptions d;
  d.dir = fresh_dir("soak");

  std::uint64_t budget_ms = 0;
  if (const char* e = std::getenv("DYN_SOAK_MS")) {
    budget_ms = std::strtoull(e, nullptr, 10);
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(budget_ms);

  std::mt19937_64 rng(71);
  std::map<std::uint32_t, std::vector<Key>> want;
  std::uint64_t want_seq = 0;
  std::uint64_t cycle = 0;
  while (cycle < 6 || std::chrono::steady_clock::now() < deadline) {
    Boot b;
    ASSERT_TRUE(b.up(tree, d).ok()) << "cycle " << cycle;
    EXPECT_EQ(b.cat->stats().write_seq, want_seq) << "cycle " << cycle;
    if (cycle > 0) {
      EXPECT_EQ(all_live(*b.cat, tree.num_nodes()), want)
          << "cycle " << cycle;
    }
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(b.cat->apply(random_batch(tree, rng, 50)).ok());
    }
    if (cycle % 3 == 1) {
      Compactor compactor(*b.cat, {});
      ASSERT_TRUE(compactor.compact_once().ok()) << "cycle " << cycle;
      ASSERT_TRUE(b.cat->apply(random_batch(tree, rng, 20)).ok());
    }
    want = all_live(*b.cat, tree.num_nodes());
    want_seq = b.cat->stats().write_seq;
    b.cat->wal()->simulate_crash();
    ++cycle;
  }
  SUCCEED() << cycle << " kill/recover cycles";
}

}  // namespace
