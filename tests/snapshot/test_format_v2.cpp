// Snapshot format versions.  Today's writer emits the v1 section set: no
// search layout on disk; every catalog is searched by binary search.
// v2 files — crafted here byte-for-byte by legacy_format::upgrade_to_v2,
// which appends the per-node layout sections older writers stored — and
// v1 files both keep loading and answer exactly like a fresh file.

#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "fc/build.hpp"
#include "geom/generators.hpp"
#include "legacy_format.hpp"
#include "pointloc/separator_tree.hpp"
#include "serve/flat_pointloc.hpp"
#include "snapshot/format.hpp"
#include "snapshot/snapshot.hpp"

namespace {

using legacy_format::downgrade_to_v1;
using legacy_format::slurp;
using legacy_format::upgrade_to_v2;
using snapshot::SectionId;
using snapshot::SectionRecord;

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "coop_" + name;
}

serve::FlatCascade build_cascade(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto t =
      cat::make_balanced_binary(5, 3000, cat::CatalogShape::kRandom, rng);
  const auto s = fc::Structure::build(t);
  auto flat = serve::FlatCascade::compile(s);
  EXPECT_TRUE(flat.ok());
  return flat.take();
}

serve::FlatPointLocator build_pointloc(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto sub = geom::make_random_monotone(200, 8, rng);
  auto st = pointloc::SeparatorTree::build_checked(sub);
  EXPECT_TRUE(st.ok());
  auto flat = serve::FlatPointLocator::compile(*st);
  EXPECT_TRUE(flat.ok());
  return flat.take();
}

/// The root-to-v path (every served path starts at the root).
std::vector<cat::NodeId> path_to(const serve::FlatCascade& f,
                                 std::uint32_t v) {
  std::vector<cat::NodeId> path;
  for (std::int32_t w = static_cast<std::int32_t>(v); w >= 0;
       w = f.node(static_cast<std::uint32_t>(w)).parent) {
    path.insert(path.begin(), w);
  }
  return path;
}

/// find and the root-to-v path query at every node v answer exactly as
/// `reference` does.
void expect_serves_identically(const serve::FlatCascade& opened,
                               const serve::FlatCascade& reference,
                               std::uint64_t seed) {
  ASSERT_EQ(opened.num_nodes(), reference.num_nodes());
  std::mt19937_64 rng(seed);
  for (std::uint32_t v = 0; v < opened.num_nodes(); ++v) {
    const std::vector<cat::NodeId> path = path_to(reference, v);
    for (int i = 0; i < 20; ++i) {
      const auto y = static_cast<cat::Key>(rng() % 2'000'000'000);
      EXPECT_EQ(opened.find(v, y), reference.find(v, y))
          << "node " << v << " y=" << y;
      const auto got = opened.search(path, y);
      const auto ref = reference.search(path, y);
      EXPECT_EQ(got.aug_index, ref.aug_index) << "node " << v << " y=" << y;
      EXPECT_EQ(got.proper_index, ref.proper_index)
          << "node " << v << " y=" << y;
    }
  }
}

std::vector<std::uint32_t> section_ids(const std::string& path) {
  std::vector<std::uint32_t> ids;
  for (const SectionRecord& rec : legacy_format::table_of(slurp(path))) {
    ids.push_back(rec.id);
  }
  return ids;
}

bool has_layout_section(const std::vector<std::uint32_t>& ids) {
  for (const std::uint32_t id : ids) {
    if (id == static_cast<std::uint32_t>(SectionId::kSimdKeys) ||
        id == static_cast<std::uint32_t>(SectionId::kSimdPos) ||
        id == static_cast<std::uint32_t>(SectionId::kSimdOff)) {
      return true;
    }
  }
  return false;
}

TEST(SnapshotFormatV2, NewFilesCarryNoSearchLayout) {
  const std::string path = tmp_path("no_layout.snap");
  const serve::FlatCascade flat = build_cascade(30);
  ASSERT_TRUE(snapshot::write(flat, path).ok());
  EXPECT_EQ(legacy_format::header_of(slurp(path)).version,
            snapshot::kFormatVersion);
  EXPECT_FALSE(has_layout_section(section_ids(path)));

  ASSERT_TRUE(snapshot::write(build_pointloc(30), path).ok());
  EXPECT_FALSE(has_layout_section(section_ids(path)));
  std::remove(path.c_str());
}

TEST(SnapshotFormatV2, ArenaIsTheFivePools) {
  const serve::FlatCascade flat = build_cascade(29);
  const auto lines = [](std::size_t bytes) {
    return (bytes + serve::kCacheLine - 1) / serve::kCacheLine *
           serve::kCacheLine;
  };
  std::size_t bridge = 0, child = 0;
  for (std::uint32_t v = 0; v < flat.num_nodes(); ++v) {
    bridge += std::size_t{flat.node(v).key_count} * flat.node(v).num_children;
    child += flat.node(v).num_children;
  }
  const std::size_t keys = flat.total_entries();
  // The node, key, proper, bridge and child pools, each rounded to its
  // cache line; no search layout beside them.
  EXPECT_EQ(flat.arena_bytes(),
            lines(flat.num_nodes() * sizeof(serve::FlatNode)) +
                lines(keys * sizeof(cat::Key)) + lines(keys * 4) +
                lines(bridge * 4) + lines(child * 4));
}

TEST(SnapshotFormatV2, V2FilesServeLikeNewFiles) {
  const std::string fresh_path = tmp_path("v2_compat_fresh.snap");
  const std::string path = tmp_path("v2_compat.snap");
  const serve::FlatCascade flat = build_cascade(31);
  ASSERT_TRUE(snapshot::write(flat, fresh_path).ok());
  auto fresh = snapshot::open(fresh_path);
  ASSERT_TRUE(fresh.ok()) << fresh.status().to_string();

  ASSERT_TRUE(snapshot::write(flat, path).ok());
  upgrade_to_v2(path);
  EXPECT_EQ(legacy_format::header_of(slurp(path)).version, 2u);
  EXPECT_TRUE(has_layout_section(section_ids(path)));
  auto old = snapshot::open(path);
  ASSERT_TRUE(old.ok()) << old.status().to_string();
  ASSERT_EQ(old->kind, snapshot::SnapshotKind::kCascade);
  expect_serves_identically(old->cascade, fresh->cascade, 77);
  expect_serves_identically(old->cascade, flat, 77);

  // The point-locator flavour carries the same sections.
  const serve::FlatPointLocator loc = build_pointloc(31);
  ASSERT_TRUE(snapshot::write(loc, path).ok());
  upgrade_to_v2(path);
  auto old_loc = snapshot::open(path);
  ASSERT_TRUE(old_loc.ok()) << old_loc.status().to_string();
  ASSERT_EQ(old_loc->kind, snapshot::SnapshotKind::kPointLocator);
  expect_serves_identically(old_loc->pointloc->cascade(), loc.cascade(), 78);
  std::remove(path.c_str());
  std::remove(fresh_path.c_str());
}

TEST(SnapshotFormatV2, V1FilesLoadViaTransparentRelayout) {
  const std::string path = tmp_path("v1_compat.snap");
  const serve::FlatCascade flat = build_cascade(32);
  ASSERT_TRUE(snapshot::write(flat, path).ok());
  const std::vector<unsigned char> written = slurp(path);
  upgrade_to_v2(path);
  downgrade_to_v1(path);
  // A v1 file is exactly what today's writer emits.
  EXPECT_EQ(slurp(path), written);

  auto snap = snapshot::open(path);
  ASSERT_TRUE(snap.ok()) << snap.status().to_string();
  ASSERT_EQ(snap->kind, snapshot::SnapshotKind::kCascade);
  expect_serves_identically(snap->cascade, flat, 78);
  std::remove(path.c_str());
}

TEST(SnapshotFormatV2, RewriteTurnsV2FilesIntoTodaysFormat) {
  // In place (IN == OUT) and to a second file, for both kinds: the v2
  // file comes out stamped v1 with no layout section, byte-identical to
  // what today's writer emits, and serves identical answers.
  const std::string path = tmp_path("rewrite_v2.snap");
  const std::string out = tmp_path("rewrite_v2_out.snap");
  const serve::FlatCascade flat = build_cascade(35);
  ASSERT_TRUE(snapshot::write(flat, path).ok());
  const std::vector<unsigned char> written = slurp(path);
  for (const std::string& target : {path, out}) {
    SCOPED_TRACE(target);
    ASSERT_TRUE(snapshot::write(flat, path).ok());
    upgrade_to_v2(path);
    ASSERT_EQ(legacy_format::header_of(slurp(path)).version, 2u);
    ASSERT_TRUE(snapshot::rewrite(path, target).ok());
    EXPECT_EQ(legacy_format::header_of(slurp(target)).version, 1u);
    EXPECT_FALSE(has_layout_section(section_ids(target)));
    EXPECT_EQ(slurp(target), written);
    auto snap = snapshot::open(target);
    ASSERT_TRUE(snap.ok()) << snap.status().to_string();
    ASSERT_EQ(snap->kind, snapshot::SnapshotKind::kCascade);
    expect_serves_identically(snap->cascade, flat, 79);
  }

  const serve::FlatPointLocator loc = build_pointloc(35);
  ASSERT_TRUE(snapshot::write(loc, path).ok());
  upgrade_to_v2(path);
  ASSERT_TRUE(snapshot::rewrite(path, path).ok());
  EXPECT_EQ(legacy_format::header_of(slurp(path)).version, 1u);
  EXPECT_FALSE(has_layout_section(section_ids(path)));
  auto snap = snapshot::open(path);
  ASSERT_TRUE(snap.ok()) << snap.status().to_string();
  ASSERT_EQ(snap->kind, snapshot::SnapshotKind::kPointLocator);
  expect_serves_identically(snap->pointloc->cascade(), loc.cascade(), 80);

  // A damaged input is refused and writes nothing.
  std::vector<unsigned char> bytes = slurp(path);
  bytes[bytes.size() / 2] ^= 0xFF;
  legacy_format::spit(path, bytes);
  std::remove(out.c_str());
  EXPECT_FALSE(snapshot::rewrite(path, out).ok());
  EXPECT_FALSE(snapshot::open(out).ok());
  std::remove(path.c_str());
}

TEST(SnapshotFormatV2, FutureVersionsAreRejected) {
  const std::string path = tmp_path("v3_future.snap");
  const serve::FlatCascade flat = build_cascade(34);
  ASSERT_TRUE(snapshot::write(flat, path).ok());
  std::vector<unsigned char> bytes = slurp(path);
  snapshot::FileHeader header = legacy_format::header_of(bytes);
  header.version = snapshot::kMaxFormatVersion + 1;
  header.header_crc = snapshot::header_crc(header);
  std::memcpy(bytes.data(), &header, sizeof(header));
  legacy_format::spit(path, bytes);
  auto snap = snapshot::open(path);
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), coop::StatusCode::kFailedPrecondition);
  EXPECT_NE(snap.status().message().find("version"), std::string::npos)
      << snap.status().to_string();
  std::remove(path.c_str());
}

}  // namespace
