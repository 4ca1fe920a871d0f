#include "serve/scrubber.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <utility>

#include "fc/build.hpp"
#include "helpers.hpp"
#include "snapshot/legacy_format.hpp"
#include "snapshot/snapshot.hpp"

namespace {

using serve::Scrubber;
using serve::ScrubberOptions;
using snapshot::Registry;

struct Fixture {
  cat::Tree tree;
  std::string snap_path;

  explicit Fixture(std::uint64_t seed = 23) {
    std::mt19937_64 rng(seed);
    tree = cat::make_balanced_binary(5, 4000, cat::CatalogShape::kRandom, rng);
    const auto s = fc::Structure::build_checked(tree);
    EXPECT_TRUE(s.ok());
    auto f = serve::FlatCascade::compile(*s);
    EXPECT_TRUE(f.ok());
    snap_path = testing::TempDir() + "coop_scrubber.snap";
    EXPECT_TRUE(snapshot::write(*f, snap_path).ok());
  }
  ~Fixture() { std::remove(snap_path.c_str()); }

  /// Publish a fresh copy-on-write serving copy (stores never reach disk).
  void publish_writable(Registry& registry) const {
    auto snap =
        snapshot::open(snap_path, snapshot::OpenMode::kWritableCopy);
    ASSERT_TRUE(snap.ok()) << snap.status().to_string();
    registry.publish(snap.take());
  }

  [[nodiscard]] serve::ScrubOracle oracle() const {
    return [this](std::uint32_t node, cat::Key y) {
      return static_cast<std::uint32_t>(
          tree.catalog(cat::NodeId(node)).find(y));
    };
  }

  /// Extent of the kEntries section of the *current* (pristine)
  /// generation.
  static std::pair<std::uint64_t, std::uint64_t> entries_extent(
      const Registry& registry) {
    const Registry::Pin pin = registry.pin();
    const auto ext = snapshot::section_extent(pin.snapshot(),
                                              snapshot::SectionId::kEntries);
    EXPECT_TRUE(ext.ok()) << ext.status().to_string();
    return *ext;
  }
};

TEST(Scrubber, CleanPassesMarkTheGenerationGood) {
  const Fixture fx;
  Registry registry;
  Scrubber scrubber(registry, ScrubberOptions{}, fx.oracle());

  // Nothing published: a pass is a no-op, not an error.
  EXPECT_TRUE(scrubber.run_pass().ok());

  fx.publish_writable(registry);
  EXPECT_EQ(registry.last_known_good(), 0u);
  EXPECT_TRUE(scrubber.run_pass().ok());
  EXPECT_EQ(registry.last_known_good(), 1u);

  const auto stats = scrubber.stats();
  EXPECT_EQ(stats.passes, 2u);
  // The empty pass is not a "clean pass" of any generation.
  EXPECT_EQ(stats.clean_passes, 1u);
  EXPECT_EQ(stats.quarantines, 0u);
}

TEST(Scrubber, CrcRotQuarantinesAndRollsBack) {
  const Fixture fx;
  Registry registry;
  ScrubberOptions opts;
  opts.samples = 8;
  Scrubber scrubber(registry, opts, fx.oracle());

  // Two generations, both scrubbed good; the flip target is computed
  // while generation 2 is still pristine (section_extent re-runs the CRC
  // ladder itself).
  fx.publish_writable(registry);
  EXPECT_TRUE(scrubber.run_pass().ok());
  fx.publish_writable(registry);
  const auto [off, len] = Fixture::entries_extent(registry);
  ASSERT_GE(len, sizeof(serve::FlatEntry));
  EXPECT_TRUE(scrubber.run_pass().ok());
  EXPECT_EQ(registry.last_known_good(), 2u);

  // Flip one bit in the low byte of the final +inf terminal's key offset
  // in the served copy: provably answer-preserving for in-range queries, yet
  // CRC-fatal — the leading-indicator case the scrubber exists for.
  {
    const Registry::Pin pin = registry.pin();
    unsigned char* bytes = pin.snapshot().mapping.mutable_data();
    ASSERT_NE(bytes, nullptr);
    bytes[off + len - sizeof(serve::FlatEntry)] ^= 0x01;
  }

  const auto st = scrubber.run_pass();
  EXPECT_EQ(st.code(), coop::StatusCode::kCorrupted)
      << st.to_string();
  EXPECT_NE(st.message().find("generation 2"), std::string::npos)
      << st.message();

  const auto stats = scrubber.stats();
  EXPECT_EQ(stats.crc_failures, 1u);
  EXPECT_EQ(stats.differential_failures, 0u);
  EXPECT_EQ(stats.quarantines, 1u);
  EXPECT_EQ(stats.rollbacks, 1u);
  EXPECT_EQ(stats.last_bad_version, 2u);
  EXPECT_EQ(stats.last_rollback_to, 1u);

  // The registry now serves the reinstated generation, and the
  // quarantined one is no longer a rollback target.
  EXPECT_EQ(registry.current_version(), 1u);
  EXPECT_EQ(registry.last_known_good(), 1u);
}

TEST(Scrubber, DifferentialSamplingCatchesRotWhenCrcIsDisabled) {
  const Fixture fx;
  Registry registry;
  ScrubberOptions opts;
  opts.verify_crc = false;  // isolate the differential detector
  opts.samples = 32;
  Scrubber scrubber(registry, opts, fx.oracle());

  fx.publish_writable(registry);
  EXPECT_TRUE(scrubber.run_pass().ok());
  fx.publish_writable(registry);
  const auto [off, len] = Fixture::entries_extent(registry);
  ASSERT_GT(len, 2 * sizeof(serve::FlatEntry));
  EXPECT_TRUE(scrubber.run_pass().ok());

  // Rot the whole entry pool (except the final +inf terminal) to
  // 0x7F7F…: every corrupted key offset is far above the sampled keys, so
  // binary search stays in bounds (memory-safe even under ASan) while
  // every sampled proper index detaches from the oracle.
  {
    const Registry::Pin pin = registry.pin();
    unsigned char* bytes = pin.snapshot().mapping.mutable_data();
    ASSERT_NE(bytes, nullptr);
    std::memset(bytes + off, 0x7F,
                static_cast<std::size_t>(len - sizeof(serve::FlatEntry)));
  }

  const auto st = scrubber.run_pass();
  EXPECT_EQ(st.code(), coop::StatusCode::kCorrupted) << st.to_string();
  EXPECT_NE(st.message().find("differential mismatch"), std::string::npos)
      << st.message();

  const auto stats = scrubber.stats();
  EXPECT_EQ(stats.crc_failures, 0u);
  EXPECT_EQ(stats.differential_failures, 1u);
  EXPECT_EQ(stats.quarantines, 1u);
  EXPECT_EQ(stats.rollbacks, 1u);
  EXPECT_EQ(registry.current_version(), 1u);
}

TEST(Scrubber, CrcCoversThePoolsAV1FileWasConvertedInto) {
  const Fixture fx;
  legacy_format::downgrade_v3_to_v1(fx.snap_path);
  Registry registry;
  ScrubberOptions opts;
  opts.samples = 8;
  Scrubber scrubber(registry, opts, fx.oracle());

  fx.publish_writable(registry);
  EXPECT_TRUE(scrubber.run_pass().ok());
  fx.publish_writable(registry);
  EXPECT_TRUE(scrubber.run_pass().ok());
  EXPECT_EQ(registry.last_known_good(), 2u);

  // The mapped int64 keys were converted at open() and are never read
  // again: a flip there changes no answer and is not a CRC failure.
  {
    const Registry::Pin pin = registry.pin();
    ASSERT_EQ(pin.snapshot().format_version, 1u);
    const auto ext = snapshot::section_extent(pin.snapshot(),
                                              snapshot::SectionId::kKeys);
    ASSERT_TRUE(ext.ok()) << ext.status().to_string();
    unsigned char* bytes = pin.snapshot().mapping.mutable_data();
    ASSERT_NE(bytes, nullptr);
    bytes[ext->first] ^= 0x01;
  }
  EXPECT_TRUE(scrubber.run_pass().ok());
  EXPECT_EQ(scrubber.stats().crc_failures, 0u);

  // The converted entry pool is what answers.  Flip the low bit of its
  // final +inf terminal's key offset (answer-preserving for the sampled
  // keys): the converted pools' CRC catches it.
  {
    const Registry::Pin pin = registry.pin();
    const serve::FlatCascade& c = pin.snapshot().cascade;
    auto* entries =
        const_cast<serve::FlatEntry*>(c.kernel_view().entries);
    entries[c.total_entries() - 1].key ^= 0x01;
  }
  const auto st = scrubber.run_pass();
  EXPECT_EQ(st.code(), coop::StatusCode::kCorrupted) << st.to_string();
  EXPECT_NE(st.message().find("generation 2"), std::string::npos)
      << st.message();
  const auto stats = scrubber.stats();
  EXPECT_EQ(stats.crc_failures, 1u);
  EXPECT_EQ(stats.differential_failures, 0u);
  EXPECT_EQ(stats.rollbacks, 1u);
  EXPECT_EQ(registry.current_version(), 1u);
}

TEST(Scrubber, NoRollbackTargetIsAFailureCounterNotACrash) {
  const Fixture fx;
  Registry registry;
  Scrubber scrubber(registry, ScrubberOptions{}, fx.oracle());

  // Only one generation, never scrubbed before the rot: detection works
  // but there is nowhere to roll back to — keep serving, count it.
  fx.publish_writable(registry);
  const auto [off, len] = Fixture::entries_extent(registry);
  {
    const Registry::Pin pin = registry.pin();
    unsigned char* bytes = pin.snapshot().mapping.mutable_data();
    bytes[off + len - sizeof(serve::FlatEntry)] ^= 0x01;
  }
  EXPECT_EQ(scrubber.run_pass().code(), coop::StatusCode::kCorrupted);
  const auto stats = scrubber.stats();
  EXPECT_EQ(stats.quarantines, 1u);
  EXPECT_EQ(stats.rollbacks, 0u);
  EXPECT_EQ(stats.rollback_failures, 1u);
  EXPECT_EQ(registry.current_version(), 1u);  // still serving
}

TEST(Scrubber, BackgroundThreadScrubsOnItsOwnCadence) {
  const Fixture fx;
  Registry registry;
  fx.publish_writable(registry);
  ScrubberOptions opts;
  opts.interval = std::chrono::milliseconds(2);
  Scrubber scrubber(registry, opts, fx.oracle());
  scrubber.start();
  scrubber.start();  // idempotent
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (scrubber.stats().clean_passes < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  scrubber.stop();
  scrubber.stop();  // idempotent
  EXPECT_GE(scrubber.stats().clean_passes, 3u);
  EXPECT_EQ(registry.last_known_good(), 1u);
}

}  // namespace
