#pragma once

// On-disk layout of serving-arena snapshots (DESIGN.md §8).
//
//   [FileHeader 64 B][SectionRecord x section_count][pad][section payloads]
//
// Everything is explicit little-endian (enforced at compile time in
// serve/arena.hpp: the pools these bytes are reinterpreted as are native
// LE), every payload starts on a 64-byte boundary so a PROT_READ mmap of
// the file yields cache-line-aligned arena views with zero copying, and
// every region is covered by a CRC32 (header -> header_crc, section table
// -> table_crc, each payload -> SectionRecord::crc32) so a truncated or
// bit-flipped file is rejected by snapshot::open before it can be served.
//
// This header is deliberately self-contained (constants, PODs, CRC32 —
// no snapshot library types) so robust/corrupt.cpp can craft targeted
// file-level faults against the format without linking the snapshot
// library.

#include <array>
#include <cstddef>
#include <cstdint>

namespace snapshot {

/// "COOPSNAP" — first 8 bytes of every snapshot file.
inline constexpr std::array<char, 8> kMagic = {'C', 'O', 'O', 'P',
                                               'S', 'N', 'A', 'P'};

/// Writers stamp kFormatVersion; snapshot::open reads every version in
/// [kMinFormatVersion, kMaxFormatVersion] and rejects anything newer (no
/// best-effort parsing of unknown layouts).  Bump on any incompatible
/// layout change.
///
/// v3 files hold every augmented entry as 8 bytes (key offset from the
/// node's base key, proper index: section kEntries) beside 32-byte nodes
/// that carry the base, and the high words of wide nodes in kHiOff/kHi.
/// v1 files held int64 keys (kKeys) and proper indices (kProper) beside
/// 24-byte nodes (FlatNodeV1); v2 files add a blocked multiway copy of
/// every node's keys — sections kSimdKeys/kSimdPos/kSimdOff, CRC-checked
/// and never read — and a 64-byte meta whose last field counts its slots.
/// snapshot::open converts v1 and v2 files to the v3 pools on load
/// (DESIGN.md §8).
inline constexpr std::uint32_t kFormatVersion = 3;
inline constexpr std::uint32_t kMinFormatVersion = 1;
inline constexpr std::uint32_t kMaxFormatVersion = 3;

/// Written natively by an LE writer; reads as 0x04030201 on a big-endian
/// reader, turning a cross-endian file into a descriptive Status instead
/// of silently byte-swapped garbage.
inline constexpr std::uint32_t kEndianTag = 0x01020304;

/// Payload alignment within the file (== serve::kCacheLine, asserted in
/// snapshot.cpp): mmapped sections land cache-line-aligned.
inline constexpr std::uint64_t kSectionAlign = 64;

/// Hard cap on section_count; a header claiming more is corrupt.
inline constexpr std::uint32_t kMaxSections = 32;

/// What structure the file carries (FileHeader::kind).
enum class SnapshotKind : std::uint32_t {
  kCascade = 1,       ///< serve::FlatCascade
  kPointLocator = 2,  ///< serve::FlatPointLocator (cascade + geometry)
  kRoutingMap = 3,    ///< cluster::RoutingMap (shard ownership + local ids)
};

/// Section ids.  A reader locates sections by id, so optional sections
/// can be added without a version bump; unknown ids are ignored.
enum class SectionId : std::uint32_t {
  kMeta = 1,      ///< one ArenaMeta
  kNodes = 2,     ///< serve::FlatNode[num_nodes] (FlatNodeV1 before v3)
  kKeys = 3,      ///< int64 keys, node-major (v1/v2 files only)
  kProper = 4,    ///< uint32 aug -> proper map (v1/v2 files only)
  kBridge = 5,    ///< uint32 bridge rows
  kChild = 6,     ///< uint32 flattened child lists
  // FlatPointLocator extension sections:
  kEntryOff = 7,  ///< uint32 per-node offset into the entry pools
  kSep = 8,       ///< int32 separator index per node
  kLoX = 9,       ///< int64 edge endpoint pools...
  kLoY = 10,
  kHiX = 11,
  kHiY = 12,
  kMaxSep = 13,   ///< int32 running-max pool
  // Per-node blocked multiway key layout, v2 files only (CRC-checked,
  // never read; DESIGN.md §12):
  kSimdKeys = 14,  ///< int64 layout slots, node-major, 8-slot blocks
  kSimdPos = 15,   ///< uint32 rank per slot (n for padding slots)
  kSimdOff = 16,   ///< uint32 per-node first-slot offset
  // Cluster routing map (SnapshotKind::kRoutingMap; src/cluster):
  kRoutingMeta = 17,      ///< one RoutingMeta
  kRoutingOwner = 18,     ///< uint32 owner shard per global node
  kRoutingLocal = 19,     ///< uint32 local -> global ids, shard-major
  kRoutingShardOff = 20,  ///< uint64[num_shards+1] offsets into kRoutingLocal
  // The v3 entry layout:
  kEntries = 21,  ///< serve::FlatEntry[num_keys], node-major
  kHiOff = 22,    ///< uint32 per node: first high word or serve::kNarrow;
                  ///  present only when num_hi > 0
  kHi = 23,       ///< uint32 high words of wide nodes' key offsets
};

/// The 24-byte node record of v1 and v2 files: serve::FlatNode without
/// the base key (their keys were absolute int64s).
struct FlatNodeV1 {
  std::uint32_t key_off = 0;
  std::uint32_t key_count = 0;
  std::uint32_t bridge_off = 0;
  std::uint32_t child_off = 0;
  std::int32_t parent = -1;
  std::uint16_t num_children = 0;
  std::uint16_t slot = 0;
};
static_assert(sizeof(FlatNodeV1) == 24);

/// 64-byte file header.  header_crc covers these 64 bytes with the
/// header_crc field itself zeroed; table_crc covers the section table
/// that immediately follows.
struct FileHeader {
  std::array<char, 8> magic = kMagic;
  std::uint32_t version = kFormatVersion;
  std::uint32_t endian_tag = kEndianTag;
  std::uint32_t kind = 0;           ///< SnapshotKind
  std::uint32_t section_count = 0;
  std::uint64_t file_size = 0;      ///< total bytes; truncation guard
  std::uint32_t header_crc = 0;
  std::uint32_t table_crc = 0;
  std::uint8_t reserved[24] = {};
};
static_assert(sizeof(FileHeader) == 64);

/// One section-table entry (table starts at byte 64).
struct SectionRecord {
  std::uint32_t id = 0;         ///< SectionId
  std::uint32_t elem_size = 0;  ///< bytes per element (sanity check)
  std::uint64_t offset = 0;     ///< from file start; kSectionAlign-aligned
  std::uint64_t length = 0;     ///< payload bytes (multiple of elem_size)
  std::uint32_t crc32 = 0;      ///< CRC of the payload bytes
  std::uint32_t reserved = 0;
};
static_assert(sizeof(SectionRecord) == 32);

/// Payload of SectionId::kMeta: pool sizes (element counts, not bytes) the
/// reader cross-checks against every section's length, plus the scalar
/// arena state.  Pointloc fields are zero for kCascade files.
struct ArenaMeta {
  std::uint64_t num_nodes = 0;
  std::uint64_t num_keys = 0;    ///< augmented entries
  std::uint64_t num_bridge = 0;
  std::uint64_t num_child = 0;
  std::uint32_t fanout_bound = 0;
  std::uint32_t pad = 0;
  std::uint64_t num_entries = 0;  ///< pointloc edge-geometry pool elements
  std::uint64_t num_regions = 0;  ///< pointloc region count
  std::uint64_t num_hi = 0;       ///< kHi elements (v3; 0 if no wide node)
};
static_assert(sizeof(ArenaMeta) == 64);

/// Size of the kMeta payload in v1 files: ArenaMeta up to num_regions.
inline constexpr std::uint32_t kArenaMetaSizeV1 = 56;
/// Size of the kMeta payload in v2 files: the v1 fields followed by the
/// (unused) layout slot count where v3 keeps num_hi.
inline constexpr std::uint32_t kArenaMetaSizeV2 = 64;

/// Payload of SectionId::kRoutingMeta (SnapshotKind::kRoutingMap files).
/// The reader cross-checks these counts against every routing section's
/// length exactly like ArenaMeta gates the arena sections.
struct RoutingMeta {
  std::uint64_t num_nodes = 0;   ///< global nodes (kRoutingOwner elements)
  std::uint64_t num_shards = 0;  ///< shards (kRoutingShardOff has +1)
  std::uint64_t total_kept = 0;  ///< kRoutingLocal elements, all shards
  std::uint8_t reserved[40] = {};
};
static_assert(sizeof(RoutingMeta) == 64);

// CRC-32C (Castagnoli, reflected poly 0x82F63B78) — chosen over IEEE
// CRC-32 because x86 has a dedicated instruction for it, which is what
// keeps snapshot::open's whole-file verification out of the startup
// budget (DESIGN.md §8).  Two kernels compute it; each advances the
// running register `crc` over p[0..n), which crc32() inverts on the way
// in and out.

/// Table kernel, one byte a step: the only kernel off x86-64 and on a
/// CPU without SSE4.2.
[[nodiscard]] inline std::uint32_t crc32c_table(
    std::uint32_t crc, const unsigned char* p, std::size_t n) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  for (std::size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define COOPSEARCH_CRC32C_SSE42 1
/// SSE4.2 kernel (the crc32 instruction, 8 bytes per issue).  Compiled
/// with a per-function target so the translation unit needs no global
/// -msse4.2; call it only when crc32c_has_sse42().
__attribute__((target("sse4.2"))) inline std::uint32_t crc32c_sse42(
    std::uint32_t crc, const unsigned char* p, std::size_t n) {
  std::uint64_t c = crc;
  while (n >= 8) {
    std::uint64_t v;
    __builtin_memcpy(&v, p, 8);
    c = __builtin_ia32_crc32di(c, v);
    p += 8;
    n -= 8;
  }
  crc = static_cast<std::uint32_t>(c);
  while (n > 0) {
    crc = __builtin_ia32_crc32qi(crc, *p++);
    --n;
  }
  return crc;
}
#endif

/// True when crc32() runs crc32c_sse42: an x86-64 build on a CPU with
/// SSE4.2.
[[nodiscard]] inline bool crc32c_has_sse42() {
#if defined(COOPSEARCH_CRC32C_SSE42)
  return __builtin_cpu_supports("sse4.2");
#else
  return false;
#endif
}

/// CRC-32C of data[0..n), continuing from `seed` (a previous result).
[[nodiscard]] inline std::uint32_t crc32(const void* data, std::size_t n,
                                         std::uint32_t seed = 0) {
  const auto* p = static_cast<const unsigned char*>(data);
#if defined(COOPSEARCH_CRC32C_SSE42)
  if (crc32c_has_sse42()) {
    return ~crc32c_sse42(~seed, p, n);
  }
#endif
  return ~crc32c_table(~seed, p, n);
}

/// CRC of a FileHeader with its header_crc field zeroed.
[[nodiscard]] inline std::uint32_t header_crc(FileHeader h) {
  h.header_crc = 0;
  return crc32(&h, sizeof(h));
}

[[nodiscard]] inline std::uint64_t align_up(std::uint64_t v,
                                            std::uint64_t a) {
  return (v + a - 1) / a * a;
}

}  // namespace snapshot
