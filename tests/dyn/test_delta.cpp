#include "dyn/delta.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "dyn/run_format.hpp"
#include "robust/corrupt.hpp"

namespace {

using dyn::Mutation;
using dyn::Op;
using dyn::RunEntry;

dyn::Run make_run(std::uint32_t node = 3) {
  dyn::Run r;
  r.node = node;
  r.min_seq = 10;
  r.max_seq = 17;
  r.entries = {
      {100, dyn::kOpInsert}, {250, dyn::kOpDelete}, {251, dyn::kOpInsert},
      {900, dyn::kOpInsert}, {1200, dyn::kOpDelete},
  };
  return r;
}

TEST(DeltaCodec, RoundTripsEveryField) {
  const dyn::Run in = make_run();
  const std::vector<std::uint8_t> bytes = dyn::encode_run(in);
  EXPECT_EQ(bytes.size(), dyn::run_encoded_size(5));

  auto out = dyn::decode_run(bytes);
  ASSERT_TRUE(out.ok()) << out.status().to_string();
  EXPECT_EQ(out->node, in.node);
  EXPECT_EQ(out->min_seq, in.min_seq);
  EXPECT_EQ(out->max_seq, in.max_seq);
  ASSERT_EQ(out->entries.size(), in.entries.size());
  for (std::size_t i = 0; i < in.entries.size(); ++i) {
    EXPECT_EQ(out->entries[i].key, in.entries[i].key);
    EXPECT_EQ(out->entries[i].tombstone, in.entries[i].tombstone);
  }
}

TEST(DeltaCodec, EmptyRunRoundTrips) {
  dyn::Run in;
  in.node = 0;
  const auto bytes = dyn::encode_run(in);
  auto out = dyn::decode_run(bytes);
  ASSERT_TRUE(out.ok()) << out.status().to_string();
  EXPECT_TRUE(out->entries.empty());
}

TEST(DeltaCodec, RejectsBadMagicAndVersion) {
  auto bytes = dyn::encode_run(make_run());
  bytes[0] ^= 0xFF;
  auto bad_magic = dyn::decode_run(bytes);
  ASSERT_FALSE(bad_magic.ok());
  EXPECT_EQ(bad_magic.status().code(), coop::StatusCode::kCorrupted);
  EXPECT_NE(bad_magic.status().message().find("magic"), std::string::npos);

  bytes = dyn::encode_run(make_run());
  bytes[4] = 0x7F;  // version field
  auto bad_version = dyn::decode_run(bytes);
  ASSERT_FALSE(bad_version.ok());
  EXPECT_NE(bad_version.status().message().find("version"),
            std::string::npos);
}

TEST(DeltaValidate, RejectsInfinitySentinelTarget) {
  dyn::Run r = make_run();
  r.entries.push_back({cat::kInfinity, dyn::kOpInsert});
  const auto st = dyn::validate_run(r);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("+inf sentinel"), std::string::npos);
}

TEST(DeltaValidate, RejectsInvertedSeqRange) {
  dyn::Run r = make_run();
  r.min_seq = 20;
  r.max_seq = 10;
  const auto st = dyn::validate_run(r);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("seq range inverted"), std::string::npos);
}

TEST(DeltaValidate, RejectsDuplicateKeys) {
  dyn::Run r = make_run();
  r.entries[2].key = r.entries[1].key;
  const auto st = dyn::validate_run(r);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("out of order"), std::string::npos);
}

TEST(DeltaGrouping, LastOpWinsSortedPerNode) {
  const std::vector<Mutation> muts = {
      {5, 300, Op::kInsert}, {2, 10, Op::kInsert}, {5, 100, Op::kDelete},
      {5, 300, Op::kDelete},  // overwrites the first op on (5, 300)
      {2, 5, Op::kInsert},
  };
  const auto runs = dyn::runs_from_mutations(muts);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].node, 2u);
  ASSERT_EQ(runs[0].entries.size(), 2u);
  EXPECT_EQ(runs[0].entries[0].key, 5);
  EXPECT_EQ(runs[0].entries[1].key, 10);
  EXPECT_EQ(runs[1].node, 5u);
  ASSERT_EQ(runs[1].entries.size(), 2u);
  EXPECT_EQ(runs[1].entries[0].key, 100);
  EXPECT_EQ(runs[1].entries[0].tombstone, dyn::kOpDelete);
  EXPECT_EQ(runs[1].entries[1].key, 300);
  EXPECT_EQ(runs[1].entries[1].tombstone, dyn::kOpDelete);
  for (const dyn::Run& r : runs) {
    EXPECT_TRUE(dyn::validate_run(r).ok());
  }
}

// --- robust::corrupt_run fault kinds: every injected fault must be
// rejected by decode_run with a descriptive Status (satellite: the
// overlay validator rejects truncated runs, bit-flipped tombstones, and
// out-of-order run keys). ---

TEST(DeltaCorruption, EveryFaultKindIsRejectedAcrossSeeds) {
  for (const robust::CorruptionKind kind : robust::kAllDeltaFaultKinds) {
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
      auto bytes = dyn::encode_run(make_run());
      const auto inject = robust::corrupt_run(bytes, kind, seed);
      ASSERT_TRUE(inject.ok())
          << robust::to_string(kind) << " seed " << seed << ": "
          << inject.to_string();
      const auto decoded = dyn::decode_run(bytes);
      ASSERT_FALSE(decoded.ok())
          << robust::to_string(kind) << " seed " << seed
          << " was not detected";
      EXPECT_EQ(decoded.status().code(), coop::StatusCode::kCorrupted)
          << robust::to_string(kind) << " seed " << seed;
      EXPECT_FALSE(decoded.status().message().empty());
    }
  }
}

TEST(DeltaCorruption, TruncationNamesTheDefect) {
  auto bytes = dyn::encode_run(make_run());
  bytes.resize(10);  // under the header floor
  const auto decoded = dyn::decode_run(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("truncated"), std::string::npos);
}

TEST(DeltaCorruption, TombstoneBitFlipIsCaughtByCrc) {
  auto bytes = dyn::encode_run(make_run());
  ASSERT_TRUE(robust::corrupt_run(
                  bytes, robust::CorruptionKind::kDeltaTombstoneBitFlip, 7)
                  .ok());
  const auto decoded = dyn::decode_run(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("CRC mismatch"),
            std::string::npos);
}

TEST(DeltaCorruption, CrcMismatchNamesBothCrcsInFull) {
  auto bytes = dyn::encode_run(make_run());
  std::uint32_t stored = 0;
  std::memcpy(&stored, bytes.data() + bytes.size() - sizeof(stored),
              sizeof(stored));
  bytes[sizeof(dyn::RunHeader)] ^= 0xFF;  // first entry's key, CRC-covered
  const std::uint32_t computed =
      snapshot::crc32(bytes.data(), bytes.size() - sizeof(stored));
  ASSERT_NE(stored, computed);
  const auto decoded = dyn::decode_run(bytes);
  ASSERT_FALSE(decoded.ok());
  char want[64];
  std::snprintf(want, sizeof(want), "stored 0x%08x computed 0x%08x", stored,
                computed);
  EXPECT_NE(decoded.status().message().find(want), std::string::npos)
      << decoded.status().message();
}

// Every decoder that takes bytes from outside the process has two
// outcomes for any input: a typed refusal, or a load identical to the
// original.  Flip every byte of a multi-entry run in turn.
TEST(DeltaCorruption, EveryByteFlipIsRejectedOrHarmless) {
  const dyn::Run original = make_run();
  const std::vector<std::uint8_t> pristine = dyn::encode_run(original);
  std::size_t rejected = 0;
  for (std::size_t pos = 0; pos < pristine.size(); ++pos) {
    std::vector<std::uint8_t> mutated = pristine;
    mutated[pos] ^= 0xFF;
    const auto decoded = dyn::decode_run(mutated);
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), coop::StatusCode::kCorrupted)
          << "flip at byte " << pos << ": " << decoded.status().to_string();
      ++rejected;
      continue;
    }
    EXPECT_EQ(decoded->node, original.node) << "flip at byte " << pos;
    EXPECT_EQ(decoded->min_seq, original.min_seq) << "flip at byte " << pos;
    EXPECT_EQ(decoded->max_seq, original.max_seq) << "flip at byte " << pos;
    ASSERT_EQ(decoded->entries.size(), original.entries.size())
        << "flip at byte " << pos;
    for (std::size_t i = 0; i < original.entries.size(); ++i) {
      EXPECT_EQ(decoded->entries[i].key, original.entries[i].key)
          << "flip at byte " << pos << " entry " << i;
      EXPECT_EQ(decoded->entries[i].tombstone, original.entries[i].tombstone)
          << "flip at byte " << pos << " entry " << i;
    }
  }
  // The CRC-32C trailer covers every byte, and a single-byte flip is a
  // burst it always detects.
  EXPECT_EQ(rejected, pristine.size());
}

TEST(DeltaCorruption, KeyDisorderSurvivesCrcButNotTheValidator) {
  auto bytes = dyn::encode_run(make_run());
  ASSERT_TRUE(robust::corrupt_run(
                  bytes, robust::CorruptionKind::kDeltaRunKeyDisorder, 3)
                  .ok());
  // The CRC was re-forged: only the ordering validator can object.
  const auto decoded = dyn::decode_run(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("out of order"),
            std::string::npos);
}

TEST(DeltaCorruption, KindsRefuseHostsTooSmall) {
  dyn::Run empty;
  empty.node = 1;
  auto bytes = dyn::encode_run(empty);
  EXPECT_EQ(robust::corrupt_run(
                bytes, robust::CorruptionKind::kDeltaTombstoneBitFlip, 1)
                .code(),
            coop::StatusCode::kFailedPrecondition);
  EXPECT_EQ(robust::corrupt_run(
                bytes, robust::CorruptionKind::kDeltaRunKeyDisorder, 1)
                .code(),
            coop::StatusCode::kFailedPrecondition);
  std::vector<std::uint8_t> not_a_run = {1, 2, 3};
  EXPECT_EQ(robust::corrupt_run(
                not_a_run, robust::CorruptionKind::kDeltaTruncatedRun, 1)
                .code(),
            coop::StatusCode::kFailedPrecondition);
}

}  // namespace
