#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "catalog/tree.hpp"
#include "core/structure.hpp"
#include "fc/build.hpp"
#include "geom/primitives.hpp"
#include "pointloc/separator_tree.hpp"
#include "robust/status.hpp"

namespace robust {

/// Fault-injection harness: each kind deliberately breaks one invariant
/// class of one structure, so tests can assert the validators catch every
/// class (and, dually, that a structure passing validate() has none of
/// these defects).  `seed` picks *where* the fault lands, so repeated runs
/// cover different nodes/entries.
enum class CorruptionKind : int {
  // cat::Tree
  kUnsortedCatalog = 0,   ///< swap two adjacent keys in one catalog
  // fc::Structure
  kMissingTerminal = 1,   ///< demote an augmented +inf terminal
  kCrossingBridges = 2,   ///< make two adjacent bridges cross (property 3)
  kBridgeOutOfRange = 3,  ///< point a bridge past the child's catalog
  kWrongProper = 4,       ///< break the aug -> proper index map
  // coop::CoopStructure
  kSkeletonNonMonotone = 5,  ///< break the back-sample position order
  kSkeletonOutOfRange = 6,   ///< skeleton position past the aug catalog
  kBlockMapDangling = 7,     ///< block_of points at the wrong/no block
  // pointloc::SeparatorTree
  kGapBreakpointDisorder = 8,  ///< unsort one gap's (level, dir) list
  // snapshot files on disk (corrupt_file; snapshot::open must reject)
  // On even seeds the section kinds aim at the kEntries section (the
  // arena's entry pool) when the file has one; odd seeds, and files
  // without one, get a random site.
  kSnapshotTruncated = 9,       ///< cut the file short at a random byte
                                ///  (inside the entry pool on even seeds)
  kSnapshotHeaderBitFlip = 10,  ///< flip one bit inside the 64-byte header
  kSnapshotSectionCrc = 11,     ///< flip one bit inside a section payload
  kSnapshotSectionOffset = 12,  ///< point a section past end-of-file,
                                ///  with the table CRC re-forged so only
                                ///  the bounds check can catch it
  // net wire frames in memory (corrupt_frame; net::decode_frame must
  // reject each with a descriptive Status)
  kWireTruncated = 13,  ///< cut the encoded frame short at a random byte
  kWireLengthLie = 14,  ///< rewrite the length prefix to disagree with
                        ///  the header's payload_len
  kWireBitFlip = 15,    ///< flip one payload bit (CRC trailer catches it)
  // 16 is retired: it forged the per-node search layout that snapshots
  // no longer carry.
  // dyn delta-log runs in memory (corrupt_run; dyn::decode_run must
  // reject each with a descriptive Status)
  kDeltaTruncatedRun = 17,      ///< cut the encoded run short at a
                                ///  random byte
  kDeltaTombstoneBitFlip = 18,  ///< flip one bit of one entry's op byte
                                ///  (the CRC trailer catches it)
  kDeltaRunKeyDisorder = 19,    ///< swap two adjacent entry keys, with
                                ///  the CRC re-forged so only the key
                                ///  order validator can catch it
  // dyn write-ahead-log segment files on disk (corrupt_wal_file; WAL
  // recovery must truncate the torn tail and reject everything else
  // typed, with no partial overlay state)
  kWalTornTail = 20,       ///< cut the final record short (recovery
                           ///  truncates at the last valid record)
  kWalRecordBitFlip = 21,  ///< flip one payload bit of a non-final
                           ///  record, CRC left stale (mid-log damage:
                           ///  kCorrupted, never a truncation)
  kWalSeqRegression = 22,  ///< restamp a record's seq range to duplicate
                           ///  its predecessor's, every CRC re-forged so
                           ///  only replay's contiguity check catches it
};

inline constexpr CorruptionKind kAllCorruptionKinds[] = {
    CorruptionKind::kUnsortedCatalog,      CorruptionKind::kMissingTerminal,
    CorruptionKind::kCrossingBridges,      CorruptionKind::kBridgeOutOfRange,
    CorruptionKind::kWrongProper,          CorruptionKind::kSkeletonNonMonotone,
    CorruptionKind::kSkeletonOutOfRange,   CorruptionKind::kBlockMapDangling,
    CorruptionKind::kGapBreakpointDisorder,
};

/// The file-level kinds (targets of corrupt_file, not of the in-memory
/// corrupt overloads).
inline constexpr CorruptionKind kAllSnapshotFaultKinds[] = {
    CorruptionKind::kSnapshotTruncated,
    CorruptionKind::kSnapshotHeaderBitFlip,
    CorruptionKind::kSnapshotSectionCrc,
    CorruptionKind::kSnapshotSectionOffset,
};

/// The wire-level kinds (targets of corrupt_frame).
inline constexpr CorruptionKind kAllWireFaultKinds[] = {
    CorruptionKind::kWireTruncated,
    CorruptionKind::kWireLengthLie,
    CorruptionKind::kWireBitFlip,
};

/// The delta-log kinds (targets of corrupt_run).
inline constexpr CorruptionKind kAllDeltaFaultKinds[] = {
    CorruptionKind::kDeltaTruncatedRun,
    CorruptionKind::kDeltaTombstoneBitFlip,
    CorruptionKind::kDeltaRunKeyDisorder,
};

/// The WAL-segment kinds (targets of corrupt_wal_file).
inline constexpr CorruptionKind kAllWalFaultKinds[] = {
    CorruptionKind::kWalTornTail,
    CorruptionKind::kWalRecordBitFlip,
    CorruptionKind::kWalSeqRegression,
};

[[nodiscard]] const char* to_string(CorruptionKind k);

/// Apply the corruption in place.  Returns OK when the fault was injected;
/// kFailedPrecondition when this kind does not target this structure type
/// or the structure is too small/regular to host it (callers should skip,
/// not fail).  All mutations go through public rebuild APIs or the
/// StructureAccess backdoor below — no UB is involved in *injecting* the
/// fault; detecting it is the validators' job.
[[nodiscard]] coop::Status corrupt(cat::Tree& t, CorruptionKind kind,
                                   std::uint64_t seed);
[[nodiscard]] coop::Status corrupt(fc::Structure& s, CorruptionKind kind,
                                   std::uint64_t seed);
[[nodiscard]] coop::Status corrupt(coop::CoopStructure& cs,
                                   CorruptionKind kind, std::uint64_t seed);
[[nodiscard]] coop::Status corrupt(pointloc::SeparatorTree& st,
                                   CorruptionKind kind, std::uint64_t seed);

/// Apply a file-level fault (one of kAllSnapshotFaultKinds) to a
/// snapshot file on disk, in place.  The file must be a structurally
/// valid snapshot (it is parsed just enough to aim the fault — e.g. the
/// section-offset kind rewrites the table and re-forges its CRC so the
/// damage is only catchable by snapshot::open's bounds checks, not by a
/// checksum).  kFailedPrecondition when the file is too small or not a
/// snapshot; kInvalidArgument when it cannot be opened.
[[nodiscard]] coop::Status corrupt_file(const std::string& path,
                                        CorruptionKind kind,
                                        std::uint64_t seed);

/// Apply a wire-level fault (one of kAllWireFaultKinds) to an encoded
/// net frame in place.  `frame` must be a complete frame as produced by
/// net::encode_frame (length prefix + header + payload + CRC trailer) —
/// it is parsed just enough to aim the fault (e.g. the bit-flip lands in
/// the payload so only the CRC trailer can catch it, and the length lie
/// keeps the prefix plausible so the framing layer reads the frame and
/// the *decoder* has to spot the disagreement).  kFailedPrecondition
/// when the buffer is too small to be a frame or cannot host the kind.
[[nodiscard]] coop::Status corrupt_frame(std::vector<std::uint8_t>& frame,
                                         CorruptionKind kind,
                                         std::uint64_t seed);

/// Apply a delta-log fault (one of kAllDeltaFaultKinds) to an encoded
/// run in place.  `run` must be a complete blob as produced by
/// dyn::encode_run (header + packed entries + CRC trailer) — it is
/// parsed just enough to aim the fault (the bit flip lands in an op
/// byte so the CRC trailer has to catch it; the key-disorder kind
/// re-forges the CRC so only dyn::validate_run's ordering check can).
/// kFailedPrecondition when the blob is too small or has too few
/// entries to host the kind.
[[nodiscard]] coop::Status corrupt_run(std::vector<std::uint8_t>& run,
                                       CorruptionKind kind,
                                       std::uint64_t seed);

/// Apply a WAL-segment fault (one of kAllWalFaultKinds) to a segment
/// file on disk, in place.  The file must be a structurally valid
/// segment as written by dyn::Wal (a flat concatenation of
/// [WalRecordHeader][encode_run payload] records) — it is parsed just
/// enough to aim the fault: the torn tail cuts strictly inside the last
/// record's region so recovery must truncate exactly there; the bit
/// flip lands in a *non*-final record's payload with the CRC left
/// stale, so recovery must classify it as mid-log damage rather than a
/// tear; the seq regression restamps one record's run to duplicate its
/// predecessor's seq range with the run trailer CRC and both WAL CRCs
/// re-forged, so only the replay contiguity check can reject it.
/// kFailedPrecondition when the segment has too few records to host the
/// kind; kInvalidArgument when it cannot be opened.
[[nodiscard]] coop::Status corrupt_wal_file(const std::string& path,
                                            CorruptionKind kind,
                                            std::uint64_t seed);

/// The backdoor the corruption harness (and the deep validators) use to
/// reach otherwise-encapsulated state.  Befriended by CoopStructure and
/// SeparatorTree; kept to trivial accessors so the invariants live in
/// validate.cpp / corrupt.cpp, not here.
struct StructureAccess {
  static std::vector<coop::Substructure>& substructures(
      coop::CoopStructure& cs) {
    return cs.subs_;
  }
  static const std::vector<coop::Substructure>& substructures(
      const coop::CoopStructure& cs) {
    return cs.subs_;
  }

  using GapBreakpoints = std::vector<std::pair<geom::Coord, std::uint8_t>>;
  static std::vector<std::vector<GapBreakpoints>>& gap_branches(
      pointloc::SeparatorTree& st) {
    return st.gap_branch_;
  }
  static const std::vector<std::vector<GapBreakpoints>>& gap_branches(
      const pointloc::SeparatorTree& st) {
    return st.gap_branch_;
  }
  static coop::CoopStructure& coop_structure(pointloc::SeparatorTree& st) {
    return *st.coop_;
  }
  static fc::Structure& cascade(pointloc::SeparatorTree& st) {
    return *st.fc_;
  }
  static cat::Tree& tree(pointloc::SeparatorTree& st) { return *st.tree_; }
};

}  // namespace robust
