#pragma once

// Binary arena persistence (DESIGN.md §8): serialize a compiled serving
// structure once, then bring it up in any process with a zero-copy mmap
// instead of re-paying fc::build + serve::compile.
//
//   snapshot::write(flat, "r42.snap");            // offline / build box
//   auto s = snapshot::open("r42.snap");          // serving box, ~O(CRC)
//   if (!s.ok()) ...                              // torn file -> Status
//   registry.publish(s.take());                   // hot-swap (registry.hpp)
//
// open() maps the file PROT_READ and points serve::Pool views straight
// into it — the pools are never copied; the page cache is the arena.
// Before anything can be served, open() verifies the full robust
// discipline: magic/version/endian header with its own CRC, a CRC'd
// section table, per-section CRC32 over every payload byte, and a
// structural bounds pass (offsets, counts, bridge targets, topology) so
// even a file that forges valid checksums cannot make the assert-free
// hot loop read outside its pools.  Any violation is a descriptive
// coop::Status — a truncated or bit-flipped snapshot can never be
// published.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "robust/status.hpp"
#include "serve/flat_cascade.hpp"
#include "serve/flat_pointloc.hpp"
#include "snapshot/format.hpp"

namespace snapshot {

/// RAII read-only mapping of a whole file.  Move-only; unmaps on
/// destruction — lifetime is managed by the Snapshot that owns it (and,
/// under traffic, by the Registry's epoch reclamation).
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();
  MappedFile(MappedFile&& o) noexcept;
  MappedFile& operator=(MappedFile&& o) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Map `path` read-only, or — with `writable` — as a PROT_WRITE
  /// MAP_PRIVATE copy-on-write mapping whose stores never reach the file
  /// (the chaos harness uses this to rot a *served copy* in place while
  /// the on-disk snapshot stays pristine).  Fails with kInvalidArgument
  /// if the file cannot be opened/mapped; an empty file maps to
  /// {nullptr, 0}.
  [[nodiscard]] static coop::Expected<MappedFile> map(const std::string& path,
                                                      bool writable = false);

  [[nodiscard]] const unsigned char* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool mapped() const { return data_ != nullptr; }

  /// Non-null only for writable (copy-on-write) mappings.
  [[nodiscard]] unsigned char* mutable_data() const {
    return writable_ ? data_ : nullptr;
  }
  [[nodiscard]] bool writable() const { return writable_; }

 private:
  unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
  bool writable_ = false;
};

/// A loaded serving structure plus the mapping backing its arena views.
/// Queries go through cascade() / pointloc(); the mapping must stay alive
/// (and stays alive, via Registry epochs) while any query is in flight.
struct Snapshot {
  SnapshotKind kind = SnapshotKind::kCascade;
  serve::FlatCascade cascade;  ///< kCascade payload (views into mapping)
  std::optional<serve::FlatPointLocator> pointloc;  ///< kPointLocator payload
  MappedFile mapping;  ///< unmapped state for in-memory snapshots
  /// Format version of the file it was opened from (0 in memory).  v1
  /// and v2 files are converted on load into owning node and entry pools;
  /// the mapped sections they came from are given back to the kernel.
  std::uint32_t format_version = 0;
  /// CRC-32C of those converted pools, taken at open(); verify()
  /// re-checks it (0 unless converted).
  std::uint32_t converted_crc = 0;

  /// Wrap an in-memory compile result (owning pools, no file) so freshly
  /// built and mmap-loaded structures publish through the same Registry.
  [[nodiscard]] static Snapshot in_memory(serve::FlatCascade f);
  [[nodiscard]] static Snapshot in_memory(serve::FlatPointLocator f);
};

/// Serialize to `path` (atomically: written to path + ".tmp", fsync'd,
/// renamed, then the parent directory is fsync'd — so a crashed writer
/// never leaves a half-snapshot under the published name and a completed
/// write survives power loss, not just process death).  The structure
/// must be non-empty (compiled).
[[nodiscard]] coop::Status write(const serve::FlatCascade& f,
                                 const std::string& path);
[[nodiscard]] coop::Status write(const serve::FlatPointLocator& f,
                                 const std::string& path);

/// Open `in` with full verification and write what it serves to `out` in
/// the current format, atomically as write() does (`in` may equal
/// `out`): a file from an older writer, e.g. a v1 or v2 file with int64
/// keys, comes out as today's writer would have written it.
[[nodiscard]] coop::Status rewrite(const std::string& in,
                                   const std::string& out);

/// fsync the directory containing `path`, making a just-renamed (or
/// just-created/unlinked) entry durable.  The tmp+rename dance alone
/// survives a writer crash but not power loss without this; the dyn WAL
/// reuses it for segment creation and manifest commits.
[[nodiscard]] coop::Status sync_parent_dir(const std::string& path);

/// How open() maps the file.
enum class OpenMode {
  kReadOnly = 0,
  /// PROT_WRITE MAP_PRIVATE: a copy-on-write serving copy.  Stores into
  /// the mapping (fault injection) are private to this Snapshot and never
  /// reach the file.  Validation is identical to kReadOnly.
  kWritableCopy = 1,
};

/// Map `path` and reconstruct the arena zero-copy.  Every header,
/// checksum, and bounds violation is a Status (kCorrupted for a damaged
/// file, kInvalidArgument for an unopenable one, kFailedPrecondition for
/// a cross-endian file) — see the file comment for the validation
/// ladder.
[[nodiscard]] coop::Expected<Snapshot> open(
    const std::string& path, OpenMode mode = OpenMode::kReadOnly);

/// Re-run the checksum half of the validation ladder over a *live*
/// mapping (header, table, and per-section payload CRCs — the scrubber's
/// detection primitive for in-memory rot).  The structural pass is not
/// repeated: it proved bounds at open() time and those bytes are covered
/// by the CRCs re-checked here.  For a converted v1/v2 file, the CRC of
/// the converted pools it serves stands in for the CRCs of the sections
/// they replaced.  In-memory snapshots (no mapping) verify trivially OK.
[[nodiscard]] coop::Status verify(const Snapshot& snap);

/// Byte extent (offset, length) of section `id` inside the snapshot's
/// mapping — lets the chaos harness and targeted tests flip payload bytes
/// of a specific section without re-parsing the format.  Fails with
/// kFailedPrecondition for in-memory snapshots and kCorrupted when the
/// section is absent.
[[nodiscard]] coop::Expected<std::pair<std::uint64_t, std::uint64_t>>
section_extent(const Snapshot& snap, SectionId id);

}  // namespace snapshot
