// Satellite of the snapshot subsystem: every file-level fault kind the
// robust harness can inject must be rejected by snapshot::open with a
// descriptive Status — a damaged snapshot can never reach
// Registry::publish, because publish only ever receives the value side
// of open()'s Expected.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <iterator>
#include <tuple>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "fc/build.hpp"
#include "geom/generators.hpp"
#include "robust/corrupt.hpp"
#include "snapshot/format.hpp"
#include "snapshot/snapshot.hpp"

namespace {

using robust::CorruptionKind;

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "coop_" + name;
}

/// Write a fresh, known-good snapshot (the corruption target; re-written
/// for every fault so faults never compound).
void write_good_snapshot(const std::string& path) {
  std::mt19937_64 rng(17);
  const auto t = cat::make_balanced_binary(5, 4000, cat::CatalogShape::kRandom,
                                           rng);
  const auto s = fc::Structure::build_checked(t);
  ASSERT_TRUE(s.ok());
  auto flat = serve::FlatCascade::compile(*s);
  ASSERT_TRUE(flat.ok());
  ASSERT_TRUE(snapshot::write(*flat, path).ok());
}

TEST(SnapshotCorruption, EveryFaultKindIsRejectedByOpen) {
  const std::string path = tmp_path("victim.snap");
  for (const CorruptionKind kind : robust::kAllSnapshotFaultKinds) {
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      SCOPED_TRACE(std::string(robust::to_string(kind)) + " seed " +
                   std::to_string(seed));
      write_good_snapshot(path);
      {
        auto good = snapshot::open(path);
        ASSERT_TRUE(good.ok()) << good.status().to_string();
      }
      const auto injected = robust::corrupt_file(path, kind, seed);
      ASSERT_TRUE(injected.ok()) << injected.to_string();
      auto snap = snapshot::open(path);
      ASSERT_FALSE(snap.ok())
          << "undetected " << robust::to_string(kind) << " fault";
      // Descriptive Status: a real code and a message naming the damage,
      // prefixed with the offending path.
      EXPECT_NE(snap.status().code(), coop::StatusCode::kOk);
      EXPECT_NE(snap.status().code(), coop::StatusCode::kInternal)
          << snap.status().to_string();
      EXPECT_FALSE(snap.status().message().empty());
      EXPECT_NE(snap.status().message().find(path), std::string::npos)
          << snap.status().to_string();
    }
  }
  std::remove(path.c_str());
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(SnapshotCorruption, SectionKindsAimAtTheEntryPool) {
  // On even seeds the cut, the flipped bit and the forged offset all
  // land on the kEntries section, the pool every query reads; odd seeds
  // keep random sites, so some land elsewhere in the file.
  const std::string path = tmp_path("entries_victim.snap");
  write_good_snapshot(path);
  std::uint64_t off = 0, len = 0;
  {
    auto good = snapshot::open(path);
    ASSERT_TRUE(good.ok());
    const auto ext =
        snapshot::section_extent(*good, snapshot::SectionId::kEntries);
    ASSERT_TRUE(ext.ok()) << ext.status().to_string();
    std::tie(off, len) = *ext;
  }
  const std::vector<char> original = slurp(path);
  const auto in_entries = [&](std::uint64_t at) {
    return at >= off && at < off + len;
  };
  bool cut_elsewhere = false, flip_elsewhere = false, forge_elsewhere = false;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const bool aimed = seed % 2 == 0;
    write_good_snapshot(path);
    ASSERT_TRUE(
        robust::corrupt_file(path, CorruptionKind::kSnapshotTruncated, seed)
            .ok());
    const std::size_t cut = slurp(path).size();
    if (aimed) {
      EXPECT_TRUE(in_entries(cut)) << cut;
    } else {
      cut_elsewhere |= !in_entries(cut);
    }

    write_good_snapshot(path);
    ASSERT_TRUE(
        robust::corrupt_file(path, CorruptionKind::kSnapshotSectionCrc, seed)
            .ok());
    const std::vector<char> flipped = slurp(path);
    ASSERT_EQ(flipped.size(), original.size());
    for (std::size_t i = 0; i < flipped.size(); ++i) {
      if (flipped[i] != original[i]) {
        if (aimed) {
          EXPECT_TRUE(in_entries(i)) << i;
        } else {
          flip_elsewhere |= !in_entries(i);
        }
      }
    }

    write_good_snapshot(path);
    ASSERT_TRUE(robust::corrupt_file(
                    path, CorruptionKind::kSnapshotSectionOffset, seed)
                    .ok());
    const std::vector<char> forged = slurp(path);
    snapshot::FileHeader h;
    std::memcpy(&h, forged.data(), sizeof(h));
    for (std::uint32_t i = 0; i < h.section_count; ++i) {
      snapshot::SectionRecord rec;
      std::memcpy(&rec, forged.data() + sizeof(h) + i * sizeof(rec),
                  sizeof(rec));
      if (rec.offset < forged.size()) {
        continue;
      }
      const bool entries =
          rec.id == static_cast<std::uint32_t>(snapshot::SectionId::kEntries);
      if (aimed) {
        EXPECT_TRUE(entries) << rec.id;
      } else {
        forge_elsewhere |= !entries;
      }
    }
  }
  EXPECT_TRUE(cut_elsewhere);
  EXPECT_TRUE(flip_elsewhere);
  EXPECT_TRUE(forge_elsewhere);
  std::remove(path.c_str());
}

TEST(SnapshotCorruption, PointLocatorSnapshotsAreCoveredToo) {
  // The fault kinds are format-level, so they apply to pointloc files
  // unchanged; spot-check one seed of each kind.
  std::mt19937_64 rng(23);
  const auto sub = geom::make_random_monotone(200, 8, rng);
  auto st = pointloc::SeparatorTree::build_checked(sub);
  ASSERT_TRUE(st.ok());
  auto flat = serve::FlatPointLocator::compile(*st);
  ASSERT_TRUE(flat.ok());
  const std::string path = tmp_path("victim_pl.snap");
  for (const CorruptionKind kind : robust::kAllSnapshotFaultKinds) {
    SCOPED_TRACE(robust::to_string(kind));
    ASSERT_TRUE(snapshot::write(*flat, path).ok());
    ASSERT_TRUE(robust::corrupt_file(path, kind, 3).ok());
    auto snap = snapshot::open(path);
    EXPECT_FALSE(snap.ok());
  }
  std::remove(path.c_str());
}

TEST(SnapshotCorruption, FaultKindsHaveNames) {
  for (const CorruptionKind kind : robust::kAllSnapshotFaultKinds) {
    EXPECT_NE(robust::to_string(kind), nullptr);
    EXPECT_NE(std::string(robust::to_string(kind)).find("snapshot"),
              std::string::npos);
  }
}

TEST(SnapshotCorruption, CorruptFileRejectsNonSnapshots) {
  const std::string path = tmp_path("not_snap.txt");
  std::ofstream(path) << "just some text, definitely not COOPSNAP-framed";
  const auto s = robust::corrupt_file(path, CorruptionKind::kSnapshotTruncated,
                                      1);
  EXPECT_EQ(s.code(), coop::StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(SnapshotCorruption, CorruptFileRejectsMissingFile) {
  const auto s = robust::corrupt_file(tmp_path("nope.snap"),
                                      CorruptionKind::kSnapshotTruncated, 1);
  EXPECT_EQ(s.code(), coop::StatusCode::kInvalidArgument);
}

TEST(SnapshotCorruption, StructureKindsDoNotApplyToFiles) {
  const std::string path = tmp_path("victim2.snap");
  write_good_snapshot(path);
  const auto s = robust::corrupt_file(path, CorruptionKind::kUnsortedCatalog,
                                      1);
  EXPECT_EQ(s.code(), coop::StatusCode::kFailedPrecondition);
  // And the file is untouched: still opens.
  EXPECT_TRUE(snapshot::open(path).ok());
  std::remove(path.c_str());
}

}  // namespace
