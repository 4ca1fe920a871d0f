#include "robust/corrupt.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <string>

#include "catalog/tree.hpp"
#include "dyn/wal.hpp"
#include "core/structure.hpp"
#include "fc/build.hpp"
#include "geom/generators.hpp"
#include "pointloc/separator_tree.hpp"
#include "robust/validate.hpp"

namespace {

using robust::CorruptionKind;

cat::Tree good_tree(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  return cat::make_balanced_binary(4, 300, cat::CatalogShape::kRandom, rng);
}

// Large enough that hop blocks carry >= 2 skeleton trees (m >= 2), which
// the skeleton-monotonicity corruption needs a pair of to disorder.
cat::Tree big_tree(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  return cat::make_balanced_binary(6, 20000, cat::CatalogShape::kRandom, rng);
}

constexpr std::uint64_t kSeeds[] = {1, 2, 3, 4, 5};

TEST(Corrupt, UnsortedCatalogIsCaughtByTreeValidator) {
  for (const auto seed : kSeeds) {
    auto t = good_tree(seed);
    ASSERT_TRUE(robust::validate_tree(t).ok());
    ASSERT_TRUE(robust::corrupt(t, CorruptionKind::kUnsortedCatalog, seed)
                    .ok());
    const auto s = robust::validate_tree(t);
    EXPECT_FALSE(s.ok()) << "seed " << seed;
    EXPECT_EQ(s.code(), coop::StatusCode::kCorrupted);
  }
}

TEST(Corrupt, EveryFcCorruptionIsCaughtByFcValidator) {
  constexpr CorruptionKind kinds[] = {
      CorruptionKind::kMissingTerminal,
      CorruptionKind::kCrossingBridges,
      CorruptionKind::kBridgeOutOfRange,
      CorruptionKind::kWrongProper,
  };
  for (const auto kind : kinds) {
    for (const auto seed : kSeeds) {
      const auto t = good_tree(seed);
      auto s = fc::Structure::build(t);
      ASSERT_TRUE(robust::validate_fc(s).ok());
      const auto applied = robust::corrupt(s, kind, seed);
      ASSERT_TRUE(applied.ok())
          << robust::to_string(kind) << ": " << applied.to_string();
      const auto v = robust::validate_fc(s);
      EXPECT_FALSE(v.ok())
          << robust::to_string(kind) << " seed " << seed << " undetected";
      EXPECT_EQ(v.code(), coop::StatusCode::kCorrupted);
    }
  }
}

TEST(Corrupt, EveryCoopCorruptionIsCaughtByCoopValidator) {
  constexpr CorruptionKind kinds[] = {
      CorruptionKind::kSkeletonNonMonotone,
      CorruptionKind::kSkeletonOutOfRange,
      CorruptionKind::kBlockMapDangling,
  };
  for (const auto kind : kinds) {
    for (const auto seed : kSeeds) {
      const auto t = big_tree(seed);
      const auto s = fc::Structure::build(t);
      auto cs = coop::CoopStructure::build(s);
      ASSERT_TRUE(robust::validate(cs).ok());
      const auto applied = robust::corrupt(cs, kind, seed);
      ASSERT_TRUE(applied.ok())
          << robust::to_string(kind) << ": " << applied.to_string();
      const auto v = robust::validate(cs);
      EXPECT_FALSE(v.ok())
          << robust::to_string(kind) << " seed " << seed << " undetected";
      EXPECT_EQ(v.code(), coop::StatusCode::kCorrupted);
    }
  }
}

TEST(Corrupt, GapBreakpointDisorderIsCaughtBySeparatorValidator) {
  for (const auto seed : kSeeds) {
    std::mt19937_64 rng(seed);
    const auto sub = geom::make_random_monotone(8, 4, rng);
    pointloc::SeparatorTree st(sub);
    st.precompute_gap_branches();
    ASSERT_TRUE(robust::validate(st).ok());
    const auto applied =
        robust::corrupt(st, CorruptionKind::kGapBreakpointDisorder, seed);
    ASSERT_TRUE(applied.ok()) << applied.to_string();
    const auto v = robust::validate(st);
    EXPECT_FALSE(v.ok()) << "seed " << seed;
    EXPECT_EQ(v.code(), coop::StatusCode::kCorrupted);
  }
}

TEST(Corrupt, GapBreakpointDisorderNeedsPrecompute) {
  std::mt19937_64 rng(1);
  const auto sub = geom::make_random_monotone(4, 2, rng);
  pointloc::SeparatorTree st(sub);
  const auto applied =
      robust::corrupt(st, CorruptionKind::kGapBreakpointDisorder, 1);
  EXPECT_EQ(applied.code(), coop::StatusCode::kFailedPrecondition);
}

// The paper-level guarantee of the harness: for EVERY kind there is a
// structure it applies to, and the top-level separator-tree validator
// (which subsumes tree, fc and coop checks) catches each kind injected
// through the separator tree.
TEST(Corrupt, EveryKindIsCaughtThroughTheSeparatorTree) {
  // Sized so hop blocks carry >= 2 skeleton trees (m >= 2); see above.
  std::mt19937_64 sub_rng(42);
  const auto sub = geom::make_random_monotone(48, 128, sub_rng);
  for (const auto kind : robust::kAllCorruptionKinds) {
    pointloc::SeparatorTree st(sub);
    st.precompute_gap_branches();
    ASSERT_TRUE(robust::validate(st).ok()) << robust::to_string(kind);
    const auto applied = robust::corrupt(st, kind, 9);
    ASSERT_TRUE(applied.ok())
        << robust::to_string(kind) << ": " << applied.to_string();
    EXPECT_FALSE(robust::validate(st).ok())
        << robust::to_string(kind) << " undetected";
  }
}

// --- WAL-segment faults (corrupt_wal_file): each kind must leave the
// scan signature its name promises, so recovery can be tested against
// exactly the failure mode intended — a tear that truncates, damage
// that types kCorrupted, and a seq forgery only replay can see.

/// A clean two-plus-record WAL segment in a scratch dir; returns the
/// segment path.
std::string make_wal_segment(const std::string& tag, int records) {
  const std::string dir = testing::TempDir() + "coop_corrupt_wal_" + tag;
  std::remove((dir + "/" + dyn::kWalManifestName).c_str());
  auto segs = dyn::list_wal_segments(dir);
  if (segs.ok()) {
    for (const auto& s : *segs) {
      std::remove(s.path.c_str());
    }
  }
  auto wal = dyn::Wal::open(dir);
  EXPECT_TRUE(wal.ok()) << wal.status().to_string();
  std::uint64_t seq = 1;
  for (int i = 0; i < records; ++i) {
    dyn::Run r;
    r.node = static_cast<std::uint32_t>(i);
    r.min_seq = seq;
    r.max_seq = seq + 2;
    const auto key = static_cast<cat::Key>(seq);
    r.entries = {{10 + key, 0}, {20 + key, 0}, {30 + key, 1}};
    seq += 3;
    EXPECT_TRUE(wal.value()->append({&r, 1}).ok());
    EXPECT_TRUE(wal.value()->wait_durable(r.max_seq).ok());
  }
  auto listed = dyn::list_wal_segments(dir);
  EXPECT_TRUE(listed.ok());
  EXPECT_EQ(listed->size(), 1u);
  return listed->front().path;
}

TEST(Corrupt, WalTornTailLeavesACleanShorterPrefix) {
  for (const auto seed : kSeeds) {
    const std::string seg = make_wal_segment("torn", 3);
    ASSERT_TRUE(robust::corrupt_wal_file(
                    seg, CorruptionKind::kWalTornTail, seed)
                    .ok());
    auto scan = dyn::scan_wal_segment(seg);
    ASSERT_TRUE(scan.ok());
    EXPECT_TRUE(scan->torn) << "seed " << seed;
    EXPECT_TRUE(scan->damage.ok()) << "seed " << seed;
    EXPECT_EQ(scan->runs.size(), 2u) << "seed " << seed;
    EXPECT_LT(scan->valid_bytes, scan->file_bytes) << "seed " << seed;
  }
}

TEST(Corrupt, WalRecordBitFlipIsDamageNeverATear) {
  for (const auto seed : kSeeds) {
    const std::string seg = make_wal_segment("flip", 3);
    ASSERT_TRUE(robust::corrupt_wal_file(
                    seg, CorruptionKind::kWalRecordBitFlip, seed)
                    .ok());
    auto scan = dyn::scan_wal_segment(seg);
    ASSERT_TRUE(scan.ok());
    EXPECT_FALSE(scan->torn) << "seed " << seed;
    EXPECT_FALSE(scan->damage.ok()) << "seed " << seed;
    EXPECT_EQ(scan->damage.code(), coop::StatusCode::kCorrupted);
  }
}

TEST(Corrupt, WalSeqRegressionIsChecksumCleanButNonContiguous) {
  for (const auto seed : kSeeds) {
    const std::string seg = make_wal_segment("seq", 4);
    ASSERT_TRUE(robust::corrupt_wal_file(
                    seg, CorruptionKind::kWalSeqRegression, seed)
                    .ok());
    // Every checksum still verifies — the scan sees a pristine segment —
    // yet the stamps no longer form one contiguous range.  Only replay's
    // contiguity check can refuse this one.
    auto scan = dyn::scan_wal_segment(seg);
    ASSERT_TRUE(scan.ok());
    EXPECT_FALSE(scan->torn) << "seed " << seed;
    EXPECT_TRUE(scan->damage.ok()) << "seed " << seed;
    ASSERT_EQ(scan->runs.size(), 4u);
    bool contiguous = true;
    for (std::size_t i = 1; i < scan->runs.size(); ++i) {
      contiguous &=
          scan->runs[i].min_seq == scan->runs[i - 1].max_seq + 1;
    }
    EXPECT_FALSE(contiguous) << "seed " << seed;
  }
}

TEST(Corrupt, WalFaultsRefusedWhenTheFileCannotHostThem) {
  // One record: a non-final-record fault has nowhere to land.
  const std::string seg = make_wal_segment("small", 1);
  EXPECT_EQ(robust::corrupt_wal_file(
                seg, CorruptionKind::kWalRecordBitFlip, 1)
                .code(),
            coop::StatusCode::kFailedPrecondition);
  EXPECT_EQ(robust::corrupt_wal_file(
                seg, CorruptionKind::kWalSeqRegression, 1)
                .code(),
            coop::StatusCode::kFailedPrecondition);
  // Not a WAL segment at all.
  const std::string junk = testing::TempDir() + "coop_corrupt_wal_junk";
  {
    std::ofstream out(junk, std::ios::binary);
    out << "not a wal segment";
  }
  EXPECT_EQ(robust::corrupt_wal_file(
                junk, CorruptionKind::kWalTornTail, 1)
                .code(),
            coop::StatusCode::kFailedPrecondition);
  // Missing file.
  EXPECT_EQ(robust::corrupt_wal_file(
                testing::TempDir() + "coop_corrupt_wal_missing",
                CorruptionKind::kWalTornTail, 1)
                .code(),
            coop::StatusCode::kInvalidArgument);
}

TEST(Corrupt, WrongKindOnWrongTargetIsRefusedNotApplied) {
  auto t = good_tree(1);
  EXPECT_EQ(robust::corrupt(t, CorruptionKind::kCrossingBridges, 1).code(),
            coop::StatusCode::kFailedPrecondition);
  auto s = fc::Structure::build(t);
  EXPECT_EQ(robust::corrupt(s, CorruptionKind::kUnsortedCatalog, 1).code(),
            coop::StatusCode::kFailedPrecondition);
  EXPECT_TRUE(robust::validate_tree(t).ok());
  EXPECT_TRUE(robust::validate_fc(s).ok());
}

}  // namespace
