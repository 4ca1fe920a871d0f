#include "snapshot/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "fc/search.hpp"
#include "geom/generators.hpp"
#include "helpers.hpp"
#include "legacy_format.hpp"
#include "pointloc/separator_tree.hpp"
#include "serve/flat_pointloc.hpp"
#include "snapshot/format.hpp"

namespace {

using cat::CatalogShape;
using serve::FlatCascade;
using serve::FlatPointLocator;

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "coop_" + name;
}

serve::FlatCascade compile_tree(const cat::Tree& t) {
  const auto s = fc::Structure::build_checked(t);
  EXPECT_TRUE(s.ok()) << s.status().to_string();
  auto f = FlatCascade::compile(*s);
  EXPECT_TRUE(f.ok()) << f.status().to_string();
  return f.take();
}

/// Round-trip fidelity oracle: the mmap-loaded cascade must answer every
/// query bit-identically (aug AND proper index) to the in-memory arena it
/// was written from, and both must agree with the tree's own binary
/// search.
void expect_round_trip_identical(const cat::Tree& t, const FlatCascade& mem,
                                 const FlatCascade& loaded,
                                 std::uint64_t seed) {
  ASSERT_EQ(loaded.num_nodes(), mem.num_nodes());
  ASSERT_EQ(loaded.total_entries(), mem.total_entries());
  ASSERT_EQ(loaded.fanout_bound(), mem.fanout_bound());
  std::mt19937_64 rng(seed);
  for (int round = 0; round < 200; ++round) {
    const auto path = test_helpers::random_root_leaf_path(t, rng);
    const cat::Key y = test_helpers::random_query(t, rng);
    const auto a = mem.search(path, y);
    const auto b = loaded.search(path, y);
    for (std::size_t i = 0; i < path.size(); ++i) {
      ASSERT_EQ(a.aug_index[i], b.aug_index[i]) << "round " << round;
      ASSERT_EQ(a.proper_index[i], b.proper_index[i]) << "round " << round;
      ASSERT_EQ(b.proper_index[i], t.catalog(path[i]).find(y));
    }
  }
}

TEST(Snapshot, CascadeRoundTripAcrossShapes) {
  struct Case {
    const char* name;
    std::uint32_t height;
    std::size_t entries;
    CatalogShape shape;
  };
  const Case cases[] = {
      {"tiny", 1, 4, CatalogShape::kRandom},
      {"random", 7, 20000, CatalogShape::kRandom},
      {"root_heavy", 5, 8000, CatalogShape::kRootHeavy},
      {"skewed", 6, 12000, CatalogShape::kSkewed},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::mt19937_64 rng(42);
    const auto t = cat::make_balanced_binary(c.height, c.entries, c.shape,
                                             rng);
    const auto mem = compile_tree(t);
    const std::string path = tmp_path(std::string("rt_") + c.name + ".snap");
    ASSERT_TRUE(snapshot::write(mem, path).ok());
    auto snap = snapshot::open(path);
    ASSERT_TRUE(snap.ok()) << snap.status().to_string();
    EXPECT_EQ(snap->kind, snapshot::SnapshotKind::kCascade);
    EXPECT_TRUE(snap->mapping.mapped());
    expect_round_trip_identical(t, mem, snap->cascade, 7);
    std::remove(path.c_str());
  }
}

TEST(Snapshot, GeneralTreeRoundTrip) {
  // Non-binary topologies exercise the bridge-row and child-slot layout
  // checks with num_children > 2.
  std::mt19937_64 rng(5);
  const auto t = cat::make_random_tree(200, 6, 10000, CatalogShape::kRandom,
                                       rng);
  const auto mem = compile_tree(t);
  const std::string path = tmp_path("rt_general.snap");
  ASSERT_TRUE(snapshot::write(mem, path).ok());
  auto snap = snapshot::open(path);
  ASSERT_TRUE(snap.ok()) << snap.status().to_string();
  expect_round_trip_identical(t, mem, snap->cascade, 11);
  std::remove(path.c_str());
}

TEST(Snapshot, PointLocatorRoundTrip) {
  std::mt19937_64 rng(9);
  const auto sub = geom::make_random_monotone(400, 16, rng);
  auto st = pointloc::SeparatorTree::build_checked(sub);
  ASSERT_TRUE(st.ok()) << st.status().to_string();
  auto mem = FlatPointLocator::compile(*st);
  ASSERT_TRUE(mem.ok()) << mem.status().to_string();

  const std::string path = tmp_path("rt_pointloc.snap");
  ASSERT_TRUE(snapshot::write(*mem, path).ok());
  auto snap = snapshot::open(path);
  ASSERT_TRUE(snap.ok()) << snap.status().to_string();
  ASSERT_EQ(snap->kind, snapshot::SnapshotKind::kPointLocator);
  ASSERT_TRUE(snap->pointloc.has_value());
  EXPECT_EQ(snap->pointloc->num_regions(), mem->num_regions());

  for (int round = 0; round < 500; ++round) {
    const auto q = geom::random_query_point(sub, rng);
    const std::size_t got = snap->pointloc->locate(q);
    ASSERT_EQ(got, mem->locate(q)) << "round " << round;
    ASSERT_EQ(got, sub.locate_brute(q)) << "round " << round;
  }
  std::remove(path.c_str());
}

TEST(Snapshot, ReopenedFileIsByteStable) {
  // Writing the same arena twice produces identical bytes (no timestamps
  // or randomness in the format) — a differential guard for the CI
  // save -> reopen -> save comparison.
  std::mt19937_64 rng(3);
  const auto t = cat::make_balanced_binary(5, 3000, CatalogShape::kRandom,
                                           rng);
  const auto mem = compile_tree(t);
  const std::string p1 = tmp_path("stable1.snap");
  const std::string p2 = tmp_path("stable2.snap");
  ASSERT_TRUE(snapshot::write(mem, p1).ok());
  ASSERT_TRUE(snapshot::write(mem, p2).ok());
  std::ifstream f1(p1, std::ios::binary), f2(p2, std::ios::binary);
  const std::string b1((std::istreambuf_iterator<char>(f1)),
                       std::istreambuf_iterator<char>());
  const std::string b2((std::istreambuf_iterator<char>(f2)),
                       std::istreambuf_iterator<char>());
  EXPECT_FALSE(b1.empty());
  EXPECT_EQ(b1, b2);
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(Snapshot, WriteRejectsEmptyCascade) {
  const FlatCascade empty;
  const auto s = snapshot::write(empty, tmp_path("never.snap"));
  EXPECT_EQ(s.code(), coop::StatusCode::kFailedPrecondition);
}

TEST(Snapshot, WriteToUnwritablePathFails) {
  std::mt19937_64 rng(1);
  const auto t = cat::make_balanced_binary(2, 50, CatalogShape::kRandom, rng);
  const auto mem = compile_tree(t);
  const auto s = snapshot::write(mem, "/no/such/dir/x.snap");
  EXPECT_FALSE(s.ok());
}

TEST(Snapshot, OpenRejectsMissingFile) {
  auto snap = snapshot::open(tmp_path("does_not_exist.snap"));
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), coop::StatusCode::kInvalidArgument);
}

TEST(Snapshot, OpenRejectsNonSnapshotFiles) {
  // Empty, too-short, and wrong-magic files must all be descriptive
  // Status failures, never crashes or false opens.
  const std::string path = tmp_path("not_a_snapshot");
  for (const std::string& content :
       {std::string(), std::string("short"), std::string(4096, 'x')}) {
    std::ofstream(path, std::ios::binary) << content;
    auto snap = snapshot::open(path);
    ASSERT_FALSE(snap.ok()) << content.size() << " bytes";
    EXPECT_EQ(snap.status().code(), coop::StatusCode::kCorrupted);
    EXPECT_FALSE(snap.status().message().empty());
  }
  std::remove(path.c_str());
}

TEST(Snapshot, OpenRejectsFutureFormatVersion) {
  // Versioning rule (DESIGN.md §8): readers refuse files from a newer
  // format instead of guessing at their layout.
  std::mt19937_64 rng(1);
  const auto t = cat::make_balanced_binary(2, 50, CatalogShape::kRandom, rng);
  const std::string path = tmp_path("future.snap");
  ASSERT_TRUE(snapshot::write(compile_tree(t), path).ok());

  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  snapshot::FileHeader h;
  f.read(reinterpret_cast<char*>(&h), sizeof(h));
  h.version = snapshot::kMaxFormatVersion + 1;
  h.header_crc = snapshot::header_crc(h);
  f.seekp(0);
  f.write(reinterpret_cast<const char*>(&h), sizeof(h));
  f.close();

  auto snap = snapshot::open(path);
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), coop::StatusCode::kFailedPrecondition);
  EXPECT_NE(snap.status().message().find("version"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Snapshot, InMemoryWrapsCompiledStructures) {
  std::mt19937_64 rng(2);
  const auto t = cat::make_balanced_binary(4, 1000, CatalogShape::kRandom,
                                           rng);
  auto snap = snapshot::Snapshot::in_memory(compile_tree(t));
  EXPECT_EQ(snap.kind, snapshot::SnapshotKind::kCascade);
  EXPECT_FALSE(snap.mapping.mapped());
  const auto path = test_helpers::random_root_leaf_path(t, rng);
  const auto r = snap.cascade.search(path, 500);
  for (std::size_t i = 0; i < path.size(); ++i) {
    EXPECT_EQ(r.proper_index[i], t.catalog(path[i]).find(500));
  }
}

/// Every answer a loaded snapshot gives on a fixed probe set: find at
/// every node for each probe key, and for a point locator locate() on
/// each probe point as well.
std::vector<std::uint64_t> probe_answers(const snapshot::Snapshot& snap,
                                         const std::vector<cat::Key>& keys,
                                         const std::vector<geom::Point>& pts) {
  std::vector<std::uint64_t> out{static_cast<std::uint64_t>(snap.kind)};
  const FlatCascade& c = snap.kind == snapshot::SnapshotKind::kCascade
                             ? snap.cascade
                             : snap.pointloc->cascade();
  for (std::uint32_t v = 0; v < c.num_nodes(); ++v) {
    for (const cat::Key y : keys) {
      out.push_back(c.find(v, y));
    }
  }
  if (snap.kind == snapshot::SnapshotKind::kPointLocator) {
    for (const geom::Point& q : pts) {
      out.push_back(snap.pointloc->locate(q));
    }
  }
  return out;
}

// The decoder contract (ROADMAP aim 3) for snapshots: a file with any one
// byte inverted either fails to open with a typed Status, or opens into a
// structure that answers every probe exactly as the pristine file does.
TEST(Snapshot, EveryByteFlipIsRejectedOrHarmless) {
  std::mt19937_64 rng(7);
  const cat::Tree tree =
      cat::make_balanced_binary(3, 200, CatalogShape::kRandom, rng);
  const auto sub = geom::make_random_monotone(12, 6, rng);
  auto septree = pointloc::SeparatorTree::build_checked(sub);
  ASSERT_TRUE(septree.ok()) << septree.status().to_string();
  auto ploc = FlatPointLocator::compile(*septree);
  ASSERT_TRUE(ploc.ok()) << ploc.status().to_string();

  std::vector<cat::Key> keys{-1, 0, 1, 250'000'000, 500'000'000,
                             999'999'999, 1'000'000'000};
  for (int i = 0; i < 16; ++i) {
    keys.push_back(static_cast<cat::Key>(rng() % 1'000'000'000));
  }
  std::vector<geom::Point> pts;
  for (int i = 0; i < 64; ++i) {
    pts.push_back(geom::random_query_point(sub, rng));
  }

  // A cascade whose nodes mix 32-bit key offsets with high words, probed
  // at keys of every width.
  const cat::Tree mixed = test_helpers::mixed_width_tree(3, 200, rng);
  std::vector<cat::Key> mixed_keys;
  for (int i = 0; i < 24; ++i) {
    mixed_keys.push_back(test_helpers::mixed_width_query(mixed, rng));
  }

  const std::string path = tmp_path("byte_flip.snap");
  // Today's files, for a cascade, a point locator and a mixed-width
  // cascade, and the v1 and v2 files older writers left behind, which
  // are converted on load: damage anywhere must be refused by the CRCs
  // and the structural checks, or change no answer.
  enum class What { kCascade, kPointLocator, kMixed };
  const std::pair<What, std::uint32_t> variants[] = {
      {What::kCascade, 3},      {What::kCascade, 2},
      {What::kCascade, 1},      {What::kPointLocator, 3},
      {What::kPointLocator, 2}, {What::kPointLocator, 1},
      {What::kMixed, 3},        {What::kMixed, 1}};
  for (const auto& [what, version] : variants) {
    SCOPED_TRACE(std::string(what == What::kCascade        ? "cascade"
                             : what == What::kPointLocator ? "point locator"
                                                           : "mixed cascade") +
                 ", v" + std::to_string(version) + " file");
    const coop::Status written =
        what == What::kPointLocator
            ? snapshot::write(*ploc, path)
            : snapshot::write(
                  compile_tree(what == What::kMixed ? mixed : tree), path);
    ASSERT_TRUE(written.ok()) << written.to_string();
    if (version <= 2) {
      legacy_format::upgrade_to_v2(path);
    }
    if (version == 1) {
      legacy_format::downgrade_to_v1(path);
    }
    const bool cascade = what != What::kPointLocator;
    const std::vector<cat::Key>& probe_keys =
        what == What::kMixed ? mixed_keys : keys;
    std::vector<char> original;
    {
      std::ifstream f(path, std::ios::binary);
      original.assign(std::istreambuf_iterator<char>(f),
                      std::istreambuf_iterator<char>());
    }
    ASSERT_FALSE(original.empty());
    auto pristine = snapshot::open(path);
    ASSERT_TRUE(pristine.ok()) << pristine.status().to_string();
    const std::vector<std::uint64_t> want =
        probe_answers(*pristine, probe_keys, pts);

    std::size_t rejected = 0;
    for (std::size_t pos = 0; pos < original.size(); ++pos) {
      std::vector<char> mutated = original;
      mutated[pos] = static_cast<char>(mutated[pos] ^ 0xFF);
      {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
      }
      auto snap = snapshot::open(path);
      if (!snap.ok()) {
        EXPECT_NE(snap.status().code(), coop::StatusCode::kOk);
        ++rejected;
        continue;
      }
      ASSERT_EQ(probe_answers(*snap, probe_keys, pts), want)
          << (cascade ? "cascade" : "point locator") << " flip at byte "
          << pos;
    }
    // The CRC ladder does the work: nearly every byte is covered.
    EXPECT_GT(rejected, original.size() * 3 / 4);
  }
  std::remove(path.c_str());
}

// Pins the CRC-32C polynomial of each kernel: the standard check value of
// "123456789".  The table kernel is checked in every build, whichever
// kernel crc32() dispatches to; the SSE4.2 kernel where the CPU has it.
TEST(Snapshot, Crc32cKnownAnswer) {
  const auto* check = reinterpret_cast<const unsigned char*>("123456789");
  EXPECT_EQ(~snapshot::crc32c_table(~0u, check, 9), 0xE3069283u);
#if defined(COOPSEARCH_CRC32C_SSE42)
  if (snapshot::crc32c_has_sse42()) {
    EXPECT_EQ(~snapshot::crc32c_sse42(~0u, check, 9), 0xE3069283u);
  }
#endif
  EXPECT_EQ(snapshot::crc32("123456789", 9), 0xE3069283u);
}

/// Bit-at-a-time CRC-32C register update: the reference both kernels
/// must reproduce.
std::uint32_t crc32c_bitwise(std::uint32_t crc, const unsigned char* p,
                             std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? (0x82F63B78u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return crc;
}

// Both kernels against the bitwise reference and each other, over every
// length 0..257 (the SSE4.2 kernel's 8-byte body and its byte tail), each
// start offset 0..7 (unaligned loads) and several chained seeds.
TEST(Snapshot, Crc32cKernelsAgree) {
  std::mt19937_64 rng(2024);
  std::vector<unsigned char> buf(257 + 8);
  for (int round = 0; round < 3; ++round) {
    for (auto& b : buf) {
      b = static_cast<unsigned char>(rng());
    }
    for (const std::uint32_t seed :
         {0u, 0xFFFFFFFFu, 0xE3069283u, static_cast<std::uint32_t>(rng())}) {
      for (std::size_t off = 0; off < 8; ++off) {
        for (std::size_t n = 0; n <= 257; ++n) {
          const unsigned char* p = buf.data() + off;
          const std::uint32_t want = crc32c_bitwise(~seed, p, n);
          ASSERT_EQ(snapshot::crc32c_table(~seed, p, n), want)
              << "table, n=" << n << " off=" << off << " seed=" << seed;
#if defined(COOPSEARCH_CRC32C_SSE42)
          if (snapshot::crc32c_has_sse42()) {
            ASSERT_EQ(snapshot::crc32c_sse42(~seed, p, n), want)
                << "sse4.2, n=" << n << " off=" << off << " seed=" << seed;
          }
#endif
          ASSERT_EQ(snapshot::crc32(p, n, seed), ~want)
              << "dispatched, n=" << n << " off=" << off << " seed=" << seed;
        }
      }
    }
  }
}

}  // namespace
