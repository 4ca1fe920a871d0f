// Snapshot format versions.  Today's writer emits v3: one pool of 8-byte
// entries (key offset from the node's base key, proper index) and no
// search layout on disk.  v1 files (int64 keys and a separate proper
// pool, crafted here by legacy_format::downgrade_v3_to_v1) and v2 files
// (v1 plus the per-node layout sections older writers stored, crafted by
// legacy_format::upgrade_to_v2) both keep loading, converted on load,
// and answer exactly like a fresh file.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "fc/build.hpp"
#include "geom/generators.hpp"
#include "helpers.hpp"
#include "legacy_format.hpp"
#include "pointloc/separator_tree.hpp"
#include "robust/loaders.hpp"
#include "serve/flat_pointloc.hpp"
#include "snapshot/format.hpp"
#include "snapshot/snapshot.hpp"

namespace {

using legacy_format::downgrade_to_v1;
using legacy_format::downgrade_v3_to_v1;
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
/// `reference` does, for keys in [0, 2 * 10^9) or, given `keys_of`, keys
/// drawn by test_helpers::mixed_width_query from that tree.
void expect_serves_identically(const serve::FlatCascade& opened,
                               const serve::FlatCascade& reference,
                               std::uint64_t seed,
                               const cat::Tree* keys_of = nullptr) {
  ASSERT_EQ(opened.num_nodes(), reference.num_nodes());
  std::mt19937_64 rng(seed);
  for (std::uint32_t v = 0; v < opened.num_nodes(); ++v) {
    const std::vector<cat::NodeId> path = path_to(reference, v);
    for (int i = 0; i < 20; ++i) {
      const auto y =
          keys_of != nullptr
              ? test_helpers::mixed_width_query(*keys_of, rng)
              : static_cast<cat::Key>(rng() % 2'000'000'000);
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
  // One entries section in place of the int64 keys and the proper pool,
  // and no high words when every key offset fits 32 bits.
  const std::vector<std::uint32_t> ids = section_ids(path);
  const auto has = [&](SectionId id) {
    return std::find(ids.begin(), ids.end(), static_cast<std::uint32_t>(id)) !=
           ids.end();
  };
  EXPECT_TRUE(has(SectionId::kEntries));
  EXPECT_FALSE(has(SectionId::kKeys));
  EXPECT_FALSE(has(SectionId::kProper));
  EXPECT_FALSE(has(SectionId::kHi));

  ASSERT_TRUE(snapshot::write(build_pointloc(30), path).ok());
  EXPECT_FALSE(has_layout_section(section_ids(path)));
  std::remove(path.c_str());
}

TEST(SnapshotFormatV2, ArenaIsTheFourPools) {
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
  // The node, entry, bridge and child pools, each rounded to its cache
  // line; no search layout beside them, and no high words when every
  // node's keys span less than 2^32 - 1.
  EXPECT_EQ(flat.arena_bytes(),
            lines(flat.num_nodes() * sizeof(serve::FlatNode)) +
                lines(keys * sizeof(serve::FlatEntry)) + lines(bridge * 4) +
                lines(child * 4));
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
  downgrade_v3_to_v1(path);
  const std::vector<unsigned char> v1 = slurp(path);
  EXPECT_EQ(legacy_format::header_of(v1).version, 1u);
  // v1 -> v2 -> v1 is the identity: the crafted formats agree.
  upgrade_to_v2(path);
  downgrade_to_v1(path);
  EXPECT_EQ(slurp(path), v1);

  auto snap = snapshot::open(path);
  ASSERT_TRUE(snap.ok()) << snap.status().to_string();
  ASSERT_EQ(snap->kind, snapshot::SnapshotKind::kCascade);
  expect_serves_identically(snap->cascade, flat, 78);
  std::remove(path.c_str());
}

TEST(SnapshotFormatV2, RewriteTurnsV2FilesIntoTodaysFormat) {
  // In place (IN == OUT) and to a second file, for both kinds: the v2
  // file comes out stamped with today's version and no layout section,
  // byte-identical to what today's writer emits, and serves identical
  // answers.
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
    EXPECT_EQ(legacy_format::header_of(slurp(target)).version,
              snapshot::kFormatVersion);
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
  EXPECT_EQ(legacy_format::header_of(slurp(path)).version,
            snapshot::kFormatVersion);
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

TEST(SnapshotFormatV2, WideNodesSurviveEveryVersion) {
  // A cascade with narrow and wide nodes keeps its high words in kHiOff
  // and kHi; as a v1 or v2 file (absolute int64 keys) it converts back to
  // the same pools on load, and rewrite turns it into today's bytes.
  std::mt19937_64 rng(36);
  const cat::Tree tree = test_helpers::mixed_width_tree(5, 1500, rng);
  auto built = serve::FlatCascade::compile_tree(tree);
  ASSERT_TRUE(built.ok()) << built.status().to_string();
  const serve::FlatCascade& flat = *built;
  const std::string path = tmp_path("wide.snap");
  const std::string out = tmp_path("wide_out.snap");
  ASSERT_TRUE(snapshot::write(flat, path).ok());
  const std::vector<unsigned char> written = slurp(path);
  const std::vector<std::uint32_t> ids = section_ids(path);
  for (const SectionId id :
       {SectionId::kEntries, SectionId::kHiOff, SectionId::kHi}) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), static_cast<std::uint32_t>(id)),
              ids.end());
  }
  for (int version = 3; version >= 1; --version) {
    SCOPED_TRACE("version " + std::to_string(version));
    ASSERT_TRUE(snapshot::write(flat, path).ok());
    if (version <= 2) {
      upgrade_to_v2(path);
    }
    if (version == 1) {
      downgrade_to_v1(path);
    }
    ASSERT_EQ(legacy_format::header_of(slurp(path)).version,
              static_cast<std::uint32_t>(version));
    auto snap = snapshot::open(path);
    ASSERT_TRUE(snap.ok()) << snap.status().to_string();
    expect_serves_identically(snap->cascade, flat, 81, &tree);
    ASSERT_TRUE(snapshot::rewrite(path, out).ok());
    EXPECT_EQ(slurp(out), written);
  }
  std::remove(path.c_str());
  std::remove(out.c_str());
}

TEST(SnapshotFormatV2, V1FixtureFromAnOlderWriterServesIdentically) {
  // fixtures/v1_tree.snap was written by the v1 writer itself (the
  // `snapshot save` of the commit before the entry layout) from
  // fixtures/v1_tree.txt.  It loads converted, answers as a fresh compile
  // of the tree, and rewrites to today's bytes, as its v2 form does.
  const std::string dir = COOP_FIXTURE_DIR;
  auto tree = robust::load_tree_file(dir + "/v1_tree.txt");
  ASSERT_TRUE(tree.ok()) << tree.status().to_string();
  auto fresh = serve::FlatCascade::compile_tree(*tree);
  ASSERT_TRUE(fresh.ok()) << fresh.status().to_string();
  const std::string path = tmp_path("v1_fixture.snap");
  const std::string out = tmp_path("v1_fixture_out.snap");
  ASSERT_TRUE(snapshot::write(*fresh, out).ok());
  const std::vector<unsigned char> today = slurp(out);
  const std::vector<unsigned char> fixture = slurp(dir + "/v1_tree.snap");
  ASSERT_EQ(legacy_format::header_of(fixture).version, 1u);
  for (const std::uint32_t version : {1u, 2u}) {
    SCOPED_TRACE("version " + std::to_string(version));
    legacy_format::spit(path, fixture);
    if (version == 2) {
      upgrade_to_v2(path);
    }
    auto snap = snapshot::open(path);
    ASSERT_TRUE(snap.ok()) << snap.status().to_string();
    EXPECT_EQ(snap->format_version, version);
    expect_serves_identically(snap->cascade, *fresh, 82);
    ASSERT_TRUE(snapshot::rewrite(path, out).ok());
    EXPECT_EQ(slurp(out), today);
  }
  std::remove(path.c_str());
  std::remove(out.c_str());
}

TEST(SnapshotFormatV2, FutureVersionsAreRejected) {
  const std::string path = tmp_path("future_version.snap");
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
