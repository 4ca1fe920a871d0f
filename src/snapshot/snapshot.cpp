#include "snapshot/snapshot.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

namespace snapshot {

static_assert(kSectionAlign == serve::kCacheLine,
              "snapshot payload alignment must preserve the arena's "
              "cache-line alignment through a page-aligned mmap");

/// The codec's backdoor into the serving arenas (robust::StructureAccess
/// idiom): trivial accessors for write(), and assembly of view-backed
/// structures for open().  All invariant checking stays in this file.
struct ArenaAccess {
  using FC = serve::FlatCascade;
  using FPL = serve::FlatPointLocator;

  static const serve::Pool<serve::FlatNode>& nodes(const FC& f) {
    return f.nodes_;
  }
  static const serve::Pool<serve::FlatEntry>& entries(const FC& f) {
    return f.entries_;
  }
  static const serve::Pool<std::uint32_t>& bridge(const FC& f) {
    return f.bridge_;
  }
  static const serve::Pool<std::uint32_t>& child(const FC& f) {
    return f.child_;
  }
  static const serve::Pool<std::uint32_t>& hi_off(const FC& f) {
    return f.hi_off_;
  }
  static const serve::Pool<std::uint32_t>& hi(const FC& f) { return f.hi_; }
  /// The pools of one cascade, as open() installs them.
  struct CascadePools {
    serve::Pool<serve::FlatNode> nodes;
    serve::Pool<serve::FlatEntry> entries;
    serve::Pool<std::uint32_t> bridge;
    serve::Pool<std::uint32_t> child;
    serve::Pool<std::uint32_t> hi_off;
    serve::Pool<std::uint32_t> hi;
  };
  /// A v1/v2 cascade converted to the v3 pools: 24-byte nodes with int64
  /// keys and a separate proper pool become nodes with base keys and
  /// 8-byte entries, packed as compile() packs them.  Checks what the
  /// conversion itself reads — node slices inside the pools, ascending
  /// keys ending at +inf — and leaves the rest to validate_cascade.
  /// `m.num_hi` is set to the high words it made.
  static coop::Status convert_legacy(const FlatNodeV1* old, ArenaMeta& m,
                                     const cat::Key* keys,
                                     const std::uint32_t* proper,
                                     CascadePools& out) {
    using coop::Status;
    const auto at_node = [](std::uint64_t v) {
      return " at node " + std::to_string(v);
    };
    FC f;
    f.nodes_ = serve::Pool<serve::FlatNode>(m.num_nodes);
    std::uint64_t key_off = 0;
    for (std::uint64_t vi = 0; vi < m.num_nodes; ++vi) {
      const FlatNodeV1& o = old[vi];
      if (o.key_off != key_off || o.key_count == 0 ||
          o.key_count > m.num_keys - key_off) {
        return Status::corrupted("key slice breaks sequential packing" +
                                 at_node(vi));
      }
      const cat::Key* k = keys + key_off;
      for (std::uint32_t i = 1; i < o.key_count; ++i) {
        if (k[i - 1] >= k[i]) {
          return Status::corrupted("augmented keys not strictly increasing" +
                                   at_node(vi));
        }
      }
      if (k[o.key_count - 1] != cat::kInfinity) {
        return Status::corrupted("augmented catalog missing +inf terminal" +
                                 at_node(vi));
      }
      serve::FlatNode& nd = f.nodes_[vi];
      nd.key_off = o.key_off;
      nd.key_count = o.key_count;
      nd.bridge_off = o.bridge_off;
      nd.child_off = o.child_off;
      nd.parent = o.parent;
      nd.num_children = o.num_children;
      nd.slot = o.slot;
      key_off += o.key_count;
    }
    if (Status s = f.pack_entries(
            [&](std::size_t v) { return keys + old[v].key_off; },
            [&](std::size_t v, std::uint32_t i) {
              return proper[old[v].key_off + i];
            });
        !s.ok()) {
      return Status::corrupted(s.message());
    }
    m.num_hi = f.hi_.size();
    out.nodes = std::move(f.nodes_);
    out.entries = std::move(f.entries_);
    out.hi_off = std::move(f.hi_off_);
    out.hi = std::move(f.hi_);
    return coop::OkStatus();
  }
  static FC assemble_cascade(CascadePools p, std::uint32_t fanout_bound) {
    FC f;
    f.nodes_ = std::move(p.nodes);
    f.entries_ = std::move(p.entries);
    f.bridge_ = std::move(p.bridge);
    f.child_ = std::move(p.child);
    f.hi_off_ = std::move(p.hi_off);
    f.hi_ = std::move(p.hi);
    f.b_ = fanout_bound;
    return f;
  }

  static const FC& cascade(const FPL& f) { return f.cascade_; }
  static const serve::Pool<std::uint32_t>& entry_off(const FPL& f) {
    return f.entry_off_;
  }
  static const serve::Pool<std::int32_t>& sep(const FPL& f) { return f.sep_; }
  static const serve::Pool<geom::Coord>& lo_x(const FPL& f) { return f.lo_x_; }
  static const serve::Pool<geom::Coord>& lo_y(const FPL& f) { return f.lo_y_; }
  static const serve::Pool<geom::Coord>& hi_x(const FPL& f) { return f.hi_x_; }
  static const serve::Pool<geom::Coord>& hi_y(const FPL& f) { return f.hi_y_; }
  static const serve::Pool<std::int32_t>& max_sep(const FPL& f) {
    return f.max_sep_;
  }

  static FPL assemble_pointloc(FC cascade,
                               serve::Pool<std::uint32_t> entry_off,
                               serve::Pool<std::int32_t> sep,
                               serve::Pool<geom::Coord> lo_x,
                               serve::Pool<geom::Coord> lo_y,
                               serve::Pool<geom::Coord> hi_x,
                               serve::Pool<geom::Coord> hi_y,
                               serve::Pool<std::int32_t> max_sep,
                               std::size_t num_regions) {
    FPL f;
    f.cascade_ = std::move(cascade);
    f.entry_off_ = std::move(entry_off);
    f.sep_ = std::move(sep);
    f.lo_x_ = std::move(lo_x);
    f.lo_y_ = std::move(lo_y);
    f.hi_x_ = std::move(hi_x);
    f.hi_y_ = std::move(hi_y);
    f.max_sep_ = std::move(max_sep);
    f.num_regions_ = num_regions;
    return f;
  }
};

namespace {

using coop::Status;

// ---------------------------------------------------------------------------
// Writing

struct SectionDesc {
  SectionId id;
  std::uint32_t elem_size;
  const void* data;
  std::uint64_t bytes;
};

Status write_file(SnapshotKind kind, const std::vector<SectionDesc>& sections,
                  const std::string& path) {
  // Lay out: header | table | aligned payloads.
  std::vector<SectionRecord> table(sections.size());
  std::uint64_t off = align_up(
      sizeof(FileHeader) + sections.size() * sizeof(SectionRecord),
      kSectionAlign);
  for (std::size_t i = 0; i < sections.size(); ++i) {
    const SectionDesc& s = sections[i];
    table[i].id = static_cast<std::uint32_t>(s.id);
    table[i].elem_size = s.elem_size;
    table[i].offset = off;
    table[i].length = s.bytes;
    table[i].crc32 = crc32(s.data, s.bytes);
    off = align_up(off + s.bytes, kSectionAlign);
  }

  FileHeader h;
  h.kind = static_cast<std::uint32_t>(kind);
  h.section_count = static_cast<std::uint32_t>(sections.size());
  h.file_size = sections.empty() ? sizeof(FileHeader)
                                 : table.back().offset + table.back().length;
  h.table_crc = crc32(table.data(), table.size() * sizeof(SectionRecord));
  h.header_crc = header_crc(h);

  // Write to path.tmp and rename so a crash mid-write never leaves a
  // half-snapshot under the published name.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::invalid_argument("cannot open " + tmp + " for writing");
  }
  const auto put = [&](const void* data, std::size_t n) {
    return n == 0 || std::fwrite(data, 1, n, f) == n;
  };
  static const char zeros[kSectionAlign] = {};
  bool ok = put(&h, sizeof(h)) &&
            put(table.data(), table.size() * sizeof(SectionRecord));
  std::uint64_t pos = sizeof(FileHeader) +
                      table.size() * sizeof(SectionRecord);
  for (std::size_t i = 0; ok && i < sections.size(); ++i) {
    ok = put(zeros, table[i].offset - pos) &&
         put(sections[i].data, sections[i].bytes);
    pos = table[i].offset + sections[i].bytes;
  }
  // fflush moves bytes to the kernel; fsync moves them to the device.
  // Without the latter a power cut after rename can publish a name whose
  // content never hit disk.
  ok = ok && std::fflush(f) == 0 && ::fsync(fileno(f)) == 0;
  if (std::fclose(f) != 0) {
    ok = false;
  }
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::internal("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::internal("cannot rename " + tmp + " to " + path);
  }
  return sync_parent_dir(path);
}

void append_cascade_sections(const serve::FlatCascade& f,
                             std::vector<SectionDesc>& out) {
  using A = ArenaAccess;
  out.push_back({SectionId::kNodes, sizeof(serve::FlatNode),
                 A::nodes(f).data(),
                 A::nodes(f).size() * sizeof(serve::FlatNode)});
  out.push_back({SectionId::kEntries, sizeof(serve::FlatEntry),
                 A::entries(f).data(),
                 A::entries(f).size() * sizeof(serve::FlatEntry)});
  out.push_back({SectionId::kBridge, 4, A::bridge(f).data(),
                 A::bridge(f).size() * 4});
  out.push_back({SectionId::kChild, 4, A::child(f).data(),
                 A::child(f).size() * 4});
  if (A::hi(f).size() > 0) {
    out.push_back({SectionId::kHiOff, 4, A::hi_off(f).data(),
                   A::hi_off(f).size() * 4});
    out.push_back({SectionId::kHi, 4, A::hi(f).data(), A::hi(f).size() * 4});
  }
}

ArenaMeta cascade_meta(const serve::FlatCascade& f) {
  using A = ArenaAccess;
  ArenaMeta m;
  m.num_nodes = A::nodes(f).size();
  m.num_keys = A::entries(f).size();
  m.num_bridge = A::bridge(f).size();
  m.num_child = A::child(f).size();
  m.fanout_bound = f.fanout_bound();
  m.num_hi = A::hi(f).size();
  return m;
}

// ---------------------------------------------------------------------------
// Reading

/// Parsed + CRC-verified file: the section table and the mapping it
/// points into.  Produced by parse_and_verify, consumed by the loaders.
struct Parsed {
  FileHeader header;
  std::vector<SectionRecord> table;
  const unsigned char* base = nullptr;
};

/// The sections open() converts from a v1 or v2 file into owning pools:
/// their mapped bytes are never read again.
bool is_converted_section(std::uint32_t id) {
  return id == static_cast<std::uint32_t>(SectionId::kNodes) ||
         id == static_cast<std::uint32_t>(SectionId::kKeys) ||
         id == static_cast<std::uint32_t>(SectionId::kProper);
}

/// `converted`: the file was converted at open(), so the payload CRCs of
/// its converted sections are not re-checked (the converted pools' CRC
/// is, by verify()).
Status parse_and_verify(const MappedFile& map, Parsed& out,
                        bool converted = false) {
  if (map.size() < sizeof(FileHeader)) {
    return Status::corrupted("snapshot file too small for a header (" +
                             std::to_string(map.size()) + " bytes)");
  }
  FileHeader h;
  std::memcpy(&h, map.data(), sizeof(h));
  if (h.magic != kMagic) {
    return Status::corrupted("bad magic — not a snapshot file");
  }
  if (h.endian_tag != kEndianTag) {
    return Status::failed_precondition(
        "snapshot was written on a different-endian platform");
  }
  if (h.version < kMinFormatVersion || h.version > kMaxFormatVersion) {
    return Status::failed_precondition(
        "unsupported snapshot format version " + std::to_string(h.version) +
        " (this build reads versions " + std::to_string(kMinFormatVersion) +
        " through " + std::to_string(kMaxFormatVersion) + ")");
  }
  if (header_crc(h) != h.header_crc) {
    return Status::corrupted("header CRC mismatch — snapshot damaged");
  }
  if (h.kind != static_cast<std::uint32_t>(SnapshotKind::kCascade) &&
      h.kind != static_cast<std::uint32_t>(SnapshotKind::kPointLocator)) {
    return Status::corrupted("unknown snapshot kind " +
                             std::to_string(h.kind));
  }
  if (h.section_count == 0 || h.section_count > kMaxSections) {
    return Status::corrupted("implausible section count " +
                             std::to_string(h.section_count));
  }
  if (h.file_size != map.size()) {
    return Status::corrupted(
        "file size mismatch: header says " + std::to_string(h.file_size) +
        " bytes, file has " + std::to_string(map.size()) + " (truncated?)");
  }
  const std::uint64_t table_bytes =
      std::uint64_t{h.section_count} * sizeof(SectionRecord);
  if (sizeof(FileHeader) + table_bytes > map.size()) {
    return Status::corrupted("section table extends past end of file");
  }
  std::vector<SectionRecord> table(h.section_count);
  std::memcpy(table.data(), map.data() + sizeof(FileHeader), table_bytes);
  if (crc32(table.data(), table_bytes) != h.table_crc) {
    return Status::corrupted("section table CRC mismatch — snapshot damaged");
  }
  for (std::size_t i = 0; i < table.size(); ++i) {
    const SectionRecord& r = table[i];
    const std::string which =
        "section " + std::to_string(i) + " (id " + std::to_string(r.id) + ")";
    if (r.offset % kSectionAlign != 0) {
      return Status::corrupted(which + " offset not 64-byte aligned");
    }
    if (r.offset > map.size() || r.length > map.size() - r.offset) {
      return Status::corrupted(which + " extends past end of file (offset " +
                               std::to_string(r.offset) + ", length " +
                               std::to_string(r.length) + ")");
    }
    if (r.elem_size == 0 || r.length % r.elem_size != 0) {
      return Status::corrupted(which + " length is not a whole number of " +
                               std::to_string(r.elem_size) + "-byte elements");
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (table[j].id == r.id) {
        return Status::corrupted("duplicate section id " +
                                 std::to_string(r.id));
      }
    }
    if (!(converted && is_converted_section(r.id)) &&
        crc32(map.data() + r.offset, r.length) != r.crc32) {
      return Status::corrupted(which + " payload CRC mismatch — snapshot "
                               "damaged");
    }
  }
  out.header = h;
  out.table = std::move(table);
  out.base = map.data();
  return coop::OkStatus();
}

/// Locate section `id` and check it holds exactly `count` elements of
/// `elem_size` bytes.  Returns the payload pointer via `out`.
Status get_section(const Parsed& p, SectionId id, std::uint32_t elem_size,
                   std::uint64_t count, const void*& out) {
  for (const SectionRecord& r : p.table) {
    if (r.id != static_cast<std::uint32_t>(id)) {
      continue;
    }
    if (r.elem_size != elem_size) {
      return Status::corrupted("section id " + std::to_string(r.id) +
                               " has element size " +
                               std::to_string(r.elem_size) + ", expected " +
                               std::to_string(elem_size));
    }
    if (r.length != count * elem_size) {
      return Status::corrupted(
          "section id " + std::to_string(r.id) + " holds " +
          std::to_string(r.length / elem_size) + " elements, meta expects " +
          std::to_string(count));
    }
    out = p.base + r.offset;
    return coop::OkStatus();
  }
  return Status::corrupted("missing section id " +
                           std::to_string(static_cast<std::uint32_t>(id)));
}

/// Structural pass over the cascade pools: every offset, count, child id
/// and bridge target the assert-free hot loop will dereference is proved
/// in-bounds here, so even a file with forged-valid CRCs cannot cause an
/// out-of-pool read.  Layout is required to be exactly the sequential
/// node-major packing compile() emits, in its canonical form (each node's
/// first offset 0, high words only where the keys need them), so a file
/// that loads serves what its writer compiled.
Status validate_cascade(const serve::FlatNode* nodes, const ArenaMeta& m,
                        const serve::FlatEntry* entries,
                        const std::uint32_t* hi_off, const std::uint32_t* hi,
                        const std::uint32_t* bridge,
                        const std::uint32_t* child,
                        const std::uint32_t* entry_off) {
  using serve::FlatCascade;
  const auto at_node = [](std::uint64_t v) {
    return " at node " + std::to_string(v);
  };
  std::uint64_t key_off = 0, bridge_off = 0, child_off = 0, hi_at = 0;
  for (std::uint64_t vi = 0; vi < m.num_nodes; ++vi) {
    const serve::FlatNode& nd = nodes[vi];
    if (nd.key_off != key_off || nd.bridge_off != bridge_off ||
        nd.child_off != child_off) {
      return Status::corrupted("node offsets break sequential packing" +
                               at_node(vi));
    }
    if (nd.key_count == 0) {
      return Status::corrupted("empty augmented catalog" + at_node(vi));
    }
    if (nd.key_count > m.num_keys - key_off) {
      return Status::corrupted("key slice exceeds pool" + at_node(vi));
    }
    const std::uint64_t row_cells =
        std::uint64_t{nd.key_count} * nd.num_children;
    if (row_cells > m.num_bridge - bridge_off) {
      return Status::corrupted("bridge rows exceed pool" + at_node(vi));
    }
    if (nd.num_children > m.num_child - child_off) {
      return Status::corrupted("child slice exceeds pool" + at_node(vi));
    }
    if (vi == 0) {
      if (nd.parent != -1) {
        return Status::corrupted("node 0 is not a root (parent " +
                                 std::to_string(nd.parent) + ")");
      }
    } else {
      // Parents precede children in id order — that is what makes one
      // forward pass sufficient and rules out topology cycles.
      if (nd.parent < 0 || static_cast<std::uint64_t>(nd.parent) >= vi) {
        return Status::corrupted("parent id out of order" + at_node(vi));
      }
      const serve::FlatNode& pn = nodes[nd.parent];
      if (nd.slot >= pn.num_children ||
          child[pn.child_off + nd.slot] != vi) {
        return Status::corrupted("child slot does not match parent's list" +
                                 at_node(vi));
      }
    }
    for (std::uint32_t e = 0; e < nd.num_children; ++e) {
      const std::uint32_t w = child[child_off + e];
      if (w >= m.num_nodes || w <= vi) {
        return Status::corrupted("child id out of range" + at_node(vi));
      }
    }
    // High words: wide nodes take consecutive runs of the kHi pool.
    const std::uint32_t* h = nullptr;
    if (hi_off != nullptr && hi_off[vi] != serve::kNarrow) {
      if (hi_off[vi] != hi_at || nd.key_count > m.num_hi - hi_at) {
        return Status::corrupted("high words break sequential packing" +
                                 at_node(vi));
      }
      h = hi + hi_at;
      hi_at += nd.key_count;
    }
    const serve::FlatEntry* e = entries + key_off;
    const std::uint32_t last = nd.key_count - 1;
    for (std::uint32_t i = 1; i < nd.key_count; ++i) {
      if (FlatCascade::entry_offset(e, h, i - 1) >=
          FlatCascade::entry_offset(e, h, i)) {
        return Status::corrupted("augmented keys not strictly increasing" +
                                 at_node(vi));
      }
    }
    const std::uint64_t terminal =
        h == nullptr ? serve::kTerminalOffset : ~std::uint64_t{0};
    if (FlatCascade::entry_offset(e, h, last) != terminal) {
      return Status::corrupted("augmented catalog missing +inf terminal" +
                               at_node(vi));
    }
    if (last > 0) {
      // The base is the node's smallest key, every real key lies below
      // +inf, and only keys that need them keep high words.
      const std::uint64_t top = FlatCascade::entry_offset(e, h, last - 1);
      if (FlatCascade::entry_offset(e, h, 0) != 0 ||
          top >= static_cast<std::uint64_t>(cat::kInfinity) -
                     static_cast<std::uint64_t>(nd.base) ||
          (h != nullptr) != (top >= serve::kTerminalOffset)) {
        return Status::corrupted("key offsets do not fit the base key" +
                                 at_node(vi));
      }
    } else if (h != nullptr) {
      return Status::corrupted("high words on a terminal-only catalog" +
                               at_node(vi));
    }
    // proper[] indexes the node's own original catalog.  Without the
    // catalog the exact-successor property is the writer's (CRC-covered)
    // word; the bound below is what in-process consumers rely on: the
    // pointloc entry pools are indexed entry_off[v] + proper, so cap by
    // the node's entry span when one exists, else by the (larger)
    // augmented count.
    const std::uint64_t prop_bound =
        entry_off != nullptr
            ? (vi + 1 < m.num_nodes ? entry_off[vi + 1] : m.num_entries) -
                  entry_off[vi]
            : nd.key_count;
    for (std::uint32_t i = 0; i < nd.key_count; ++i) {
      if (e[i].proper >= prop_bound) {
        return Status::corrupted("proper index out of range" + at_node(vi));
      }
    }
    for (std::uint32_t c = 0; c < nd.num_children; ++c) {
      const std::uint32_t w = child[child_off + c];
      const std::uint32_t wc = nodes[w].key_count;
      const std::uint32_t* row =
          bridge + bridge_off + std::uint64_t{c} * nd.key_count;
      for (std::uint32_t i = 0; i < nd.key_count; ++i) {
        if (row[i] >= wc) {
          return Status::corrupted("bridge target past child catalog" +
                                   at_node(vi));
        }
      }
    }
    key_off += nd.key_count;
    bridge_off += row_cells;
    child_off += nd.num_children;
  }
  if (key_off != m.num_keys || bridge_off != m.num_bridge ||
      child_off != m.num_child || hi_at != m.num_hi) {
    return Status::corrupted("pool sizes do not match the node table");
  }
  return coop::OkStatus();
}

template <typename T>
serve::Pool<T> view_of(const void* data, std::uint64_t count) {
  return serve::Pool<T>::view(static_cast<const T*>(data), count);
}

}  // namespace

// ---------------------------------------------------------------------------
// MappedFile

MappedFile::~MappedFile() {
  if (data_ != nullptr) {
    ::munmap(data_, size_);
  }
}

MappedFile::MappedFile(MappedFile&& o) noexcept
    : data_(std::exchange(o.data_, nullptr)),
      size_(std::exchange(o.size_, 0)),
      writable_(std::exchange(o.writable_, false)) {}

MappedFile& MappedFile::operator=(MappedFile&& o) noexcept {
  if (this != &o) {
    if (data_ != nullptr) {
      ::munmap(data_, size_);
    }
    data_ = std::exchange(o.data_, nullptr);
    size_ = std::exchange(o.size_, 0);
    writable_ = std::exchange(o.writable_, false);
  }
  return *this;
}

coop::Expected<MappedFile> MappedFile::map(const std::string& path,
                                           bool writable) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::invalid_argument("cannot open " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::invalid_argument("cannot stat " + path);
  }
  MappedFile m;
  m.size_ = static_cast<std::size_t>(st.st_size);
  m.writable_ = writable;
  if (m.size_ > 0) {
    // MAP_POPULATE prefaults the whole mapping in one kernel pass — the
    // CRC verification walks every byte immediately anyway, and batching
    // the faults is measurably cheaper than taking them one by one.
    // A writable mapping stays MAP_PRIVATE: stores copy-on-write into
    // anonymous pages and never dirty the file.
    const int prot = writable ? PROT_READ | PROT_WRITE : PROT_READ;
    void* p = ::mmap(nullptr, m.size_, prot, MAP_PRIVATE | MAP_POPULATE,
                     fd, 0);
    if (p == MAP_FAILED) {
      ::close(fd);
      m.size_ = 0;
      return Status::invalid_argument("cannot mmap " + path);
    }
    m.data_ = static_cast<unsigned char*>(p);
  }
  ::close(fd);
  return m;
}

// ---------------------------------------------------------------------------
// Snapshot

Snapshot Snapshot::in_memory(serve::FlatCascade f) {
  Snapshot s;
  s.kind = SnapshotKind::kCascade;
  s.cascade = std::move(f);
  return s;
}

Snapshot Snapshot::in_memory(serve::FlatPointLocator f) {
  Snapshot s;
  s.kind = SnapshotKind::kPointLocator;
  s.pointloc.emplace(std::move(f));
  return s;
}

coop::Status sync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::invalid_argument("cannot open directory " + dir +
                                    " for fsync");
  }
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  if (!ok) {
    return Status::internal("fsync of directory " + dir + " failed");
  }
  return coop::OkStatus();
}

coop::Status write(const serve::FlatCascade& f, const std::string& path) {
  if (f.num_nodes() == 0) {
    return Status::failed_precondition(
        "cannot snapshot an empty (uncompiled) cascade");
  }
  const ArenaMeta meta = cascade_meta(f);
  std::vector<SectionDesc> sections;
  sections.push_back({SectionId::kMeta, sizeof(ArenaMeta), &meta,
                      sizeof(ArenaMeta)});
  append_cascade_sections(f, sections);
  return write_file(SnapshotKind::kCascade, sections, path);
}

coop::Status write(const serve::FlatPointLocator& f, const std::string& path) {
  using A = ArenaAccess;
  const serve::FlatCascade& c = A::cascade(f);
  if (c.num_nodes() == 0) {
    return Status::failed_precondition(
        "cannot snapshot an empty (uncompiled) point locator");
  }
  ArenaMeta meta = cascade_meta(c);
  meta.num_entries = A::lo_x(f).size();
  meta.num_regions = f.num_regions();
  std::vector<SectionDesc> sections;
  sections.push_back({SectionId::kMeta, sizeof(ArenaMeta), &meta,
                      sizeof(ArenaMeta)});
  append_cascade_sections(c, sections);
  sections.push_back({SectionId::kEntryOff, 4, A::entry_off(f).data(),
                      A::entry_off(f).size() * 4});
  sections.push_back({SectionId::kSep, 4, A::sep(f).data(),
                      A::sep(f).size() * 4});
  sections.push_back({SectionId::kLoX, sizeof(geom::Coord),
                      A::lo_x(f).data(),
                      A::lo_x(f).size() * sizeof(geom::Coord)});
  sections.push_back({SectionId::kLoY, sizeof(geom::Coord),
                      A::lo_y(f).data(),
                      A::lo_y(f).size() * sizeof(geom::Coord)});
  sections.push_back({SectionId::kHiX, sizeof(geom::Coord),
                      A::hi_x(f).data(),
                      A::hi_x(f).size() * sizeof(geom::Coord)});
  sections.push_back({SectionId::kHiY, sizeof(geom::Coord),
                      A::hi_y(f).data(),
                      A::hi_y(f).size() * sizeof(geom::Coord)});
  sections.push_back({SectionId::kMaxSep, 4, A::max_sep(f).data(),
                      A::max_sep(f).size() * 4});
  return write_file(SnapshotKind::kPointLocator, sections, path);
}

coop::Status rewrite(const std::string& in, const std::string& out) {
  // The mapping of `in` stays valid while `out` is renamed over it.
  auto snap = open(in);
  if (!snap.ok()) {
    return snap.status();
  }
  return snap->kind == SnapshotKind::kCascade ? write(snap->cascade, out)
                                              : write(*snap->pointloc, out);
}

namespace {

bool is_converted(const Snapshot& snap) {
  return snap.mapping.mapped() && snap.format_version < 3;
}

const serve::FlatCascade& served_cascade(const Snapshot& snap) {
  return snap.kind == SnapshotKind::kCascade
             ? snap.cascade
             : ArenaAccess::cascade(*snap.pointloc);
}

/// CRC-32C of the pools a v1/v2 file was converted into: nodes, entries
/// and high words.
std::uint32_t converted_pools_crc(const serve::FlatCascade& f) {
  using A = ArenaAccess;
  std::uint32_t c =
      crc32(A::nodes(f).data(), A::nodes(f).size() * sizeof(serve::FlatNode));
  c = crc32(A::entries(f).data(),
            A::entries(f).size() * sizeof(serve::FlatEntry), c);
  c = crc32(A::hi_off(f).data(), A::hi_off(f).size() * 4, c);
  return crc32(A::hi(f).data(), A::hi(f).size() * 4, c);
}

/// Hand the kernel back the whole pages of a converted file's converted
/// sections.  MADV_DONTNEED on a MAP_PRIVATE mapping drops them from RSS;
/// nothing reads them again (verify() skips their CRCs).
void release_converted(const MappedFile& map, const Parsed& p) {
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto base = reinterpret_cast<std::uintptr_t>(map.data());
  for (const SectionRecord& r : p.table) {
    if (!is_converted_section(r.id)) {
      continue;
    }
    const std::uintptr_t begin = (base + r.offset + page - 1) / page * page;
    const std::uintptr_t end = (base + r.offset + r.length) / page * page;
    if (begin < end) {
      ::madvise(reinterpret_cast<void*>(begin), end - begin, MADV_DONTNEED);
    }
  }
}

/// Seal a snapshot open() has assembled: a converted file's pools get
/// their CRC and its converted sections' pages are given back.
Snapshot seal(Snapshot snap, MappedFile map, const Parsed& p) {
  snap.mapping = std::move(map);
  if (is_converted(snap)) {
    snap.converted_crc = converted_pools_crc(served_cascade(snap));
    release_converted(snap.mapping, p);
  }
  return snap;
}

}  // namespace

coop::Expected<Snapshot> open(const std::string& path, OpenMode mode) {
  auto mapped = MappedFile::map(path, mode == OpenMode::kWritableCopy);
  if (!mapped.ok()) {
    return mapped.status();
  }
  MappedFile map = mapped.take();

  Parsed p;
  if (Status s = parse_and_verify(map, p); !s.ok()) {
    return Status::error(s.code(), path + ": " + s.message());
  }

  const auto fail = [&](const Status& s) {
    return Status::error(s.code(), path + ": " + s.message());
  };

  // v1 metas stop before num_hi; a v2 meta has the layout slot count
  // where v3 keeps num_hi.
  const std::uint32_t version = p.header.version;
  const std::uint32_t meta_size = version == 1   ? kArenaMetaSizeV1
                                  : version == 2 ? kArenaMetaSizeV2
                                                 : sizeof(ArenaMeta);
  const void* meta_raw = nullptr;
  if (Status s = get_section(p, SectionId::kMeta, meta_size, 1, meta_raw);
      !s.ok()) {
    return fail(s);
  }
  ArenaMeta meta{};
  std::memcpy(&meta, meta_raw,
              version < 3 ? kArenaMetaSizeV1 : sizeof(ArenaMeta));
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint32_t>::max();
  if (meta.num_nodes == 0 || meta.num_nodes > kMax ||
      meta.num_keys > kMax || meta.num_bridge > kMax ||
      meta.num_child > kMax || meta.num_entries > kMax ||
      meta.num_hi > kMax) {
    return fail(Status::corrupted("implausible pool sizes in meta section"));
  }

  const void *bridge_raw = nullptr, *child_raw = nullptr;
  if (Status s = get_section(p, SectionId::kBridge, 4, meta.num_bridge,
                             bridge_raw);
      !s.ok()) {
    return fail(s);
  }
  if (Status s = get_section(p, SectionId::kChild, 4, meta.num_child,
                             child_raw);
      !s.ok()) {
    return fail(s);
  }
  ArenaAccess::CascadePools pools;
  pools.bridge = view_of<std::uint32_t>(bridge_raw, meta.num_bridge);
  pools.child = view_of<std::uint32_t>(child_raw, meta.num_child);
  if (version >= 3) {
    const void *nodes_raw = nullptr, *entries_raw = nullptr;
    if (Status s = get_section(p, SectionId::kNodes, sizeof(serve::FlatNode),
                               meta.num_nodes, nodes_raw);
        !s.ok()) {
      return fail(s);
    }
    if (Status s = get_section(p, SectionId::kEntries,
                               sizeof(serve::FlatEntry), meta.num_keys,
                               entries_raw);
        !s.ok()) {
      return fail(s);
    }
    pools.nodes = view_of<serve::FlatNode>(nodes_raw, meta.num_nodes);
    pools.entries = view_of<serve::FlatEntry>(entries_raw, meta.num_keys);
    if (meta.num_hi > 0) {
      const void *hi_off_raw = nullptr, *hi_raw = nullptr;
      if (Status s = get_section(p, SectionId::kHiOff, 4, meta.num_nodes,
                                 hi_off_raw);
          !s.ok()) {
        return fail(s);
      }
      if (Status s = get_section(p, SectionId::kHi, 4, meta.num_hi, hi_raw);
          !s.ok()) {
        return fail(s);
      }
      pools.hi_off = view_of<std::uint32_t>(hi_off_raw, meta.num_nodes);
      pools.hi = view_of<std::uint32_t>(hi_raw, meta.num_hi);
    }
  } else {
    const void *nodes_raw = nullptr, *keys_raw = nullptr,
               *proper_raw = nullptr;
    if (Status s = get_section(p, SectionId::kNodes, sizeof(FlatNodeV1),
                               meta.num_nodes, nodes_raw);
        !s.ok()) {
      return fail(s);
    }
    if (Status s = get_section(p, SectionId::kKeys, sizeof(cat::Key),
                               meta.num_keys, keys_raw);
        !s.ok()) {
      return fail(s);
    }
    if (Status s = get_section(p, SectionId::kProper, 4, meta.num_keys,
                               proper_raw);
        !s.ok()) {
      return fail(s);
    }
    if (Status s = ArenaAccess::convert_legacy(
            static_cast<const FlatNodeV1*>(nodes_raw), meta,
            static_cast<const cat::Key*>(keys_raw),
            static_cast<const std::uint32_t*>(proper_raw), pools);
        !s.ok()) {
      return fail(s);
    }
  }
  const auto validate = [&](const std::uint32_t* entry_off) {
    return validate_cascade(
        pools.nodes.data(), meta, pools.entries.data(),
        pools.hi_off.size() == 0 ? nullptr : pools.hi_off.data(),
        pools.hi.data(), pools.bridge.data(), pools.child.data(), entry_off);
  };

  Snapshot snap;
  snap.kind = static_cast<SnapshotKind>(p.header.kind);
  snap.format_version = version;

  if (snap.kind == SnapshotKind::kCascade) {
    if (Status s = validate(nullptr); !s.ok()) {
      return fail(s);
    }
    snap.cascade =
        ArenaAccess::assemble_cascade(std::move(pools), meta.fanout_bound);
    return seal(std::move(snap), std::move(map), p);
  }

  // Point-locator extension sections.
  const void *eo_raw = nullptr, *sep_raw = nullptr, *lox_raw = nullptr,
             *loy_raw = nullptr, *hix_raw = nullptr, *hiy_raw = nullptr,
             *ms_raw = nullptr;
  if (Status s = get_section(p, SectionId::kEntryOff, 4, meta.num_nodes,
                             eo_raw);
      !s.ok()) {
    return fail(s);
  }
  if (Status s = get_section(p, SectionId::kSep, 4, meta.num_nodes, sep_raw);
      !s.ok()) {
    return fail(s);
  }
  if (Status s = get_section(p, SectionId::kLoX, sizeof(geom::Coord),
                             meta.num_entries, lox_raw);
      !s.ok()) {
    return fail(s);
  }
  if (Status s = get_section(p, SectionId::kLoY, sizeof(geom::Coord),
                             meta.num_entries, loy_raw);
      !s.ok()) {
    return fail(s);
  }
  if (Status s = get_section(p, SectionId::kHiX, sizeof(geom::Coord),
                             meta.num_entries, hix_raw);
      !s.ok()) {
    return fail(s);
  }
  if (Status s = get_section(p, SectionId::kHiY, sizeof(geom::Coord),
                             meta.num_entries, hiy_raw);
      !s.ok()) {
    return fail(s);
  }
  if (Status s = get_section(p, SectionId::kMaxSep, 4, meta.num_entries,
                             ms_raw);
      !s.ok()) {
    return fail(s);
  }
  const auto* entry_off = static_cast<const std::uint32_t*>(eo_raw);
  const auto* sep = static_cast<const std::int32_t*>(sep_raw);

  // Entry spans: monotone offsets within the entry pools; the cascade
  // validation below then caps every proper index by its node's span, so
  // branch_at's entry_off[v] + prop reads stay inside the pools.
  if (entry_off[0] != 0) {
    return fail(Status::corrupted("entry offsets do not start at 0"));
  }
  for (std::uint64_t vi = 0; vi < meta.num_nodes; ++vi) {
    const std::uint32_t lo = entry_off[vi];
    const std::uint64_t hi =
        vi + 1 < meta.num_nodes ? entry_off[vi + 1] : meta.num_entries;
    if (hi < lo || hi > meta.num_entries) {
      return fail(Status::corrupted("entry offsets not monotone at node " +
                                    std::to_string(vi)));
    }
    // Separator indices live in the padded power-of-two heap, so they can
    // exceed num_regions (padded separators sit at x = +inf) but never the
    // node count (sep < 2^H, num_nodes = 2^H - 1).  locate() only compares
    // sep values and returns one at a leaf — no pool is indexed by them —
    // so this bound is a sanity check, not a memory-safety requirement.
    if (sep[vi] < 0 ||
        static_cast<std::uint64_t>(sep[vi]) > meta.num_nodes) {
      return fail(Status::corrupted("separator index out of range at node " +
                                    std::to_string(vi)));
    }
  }
  if (Status s = validate(entry_off); !s.ok()) {
    return fail(s);
  }

  snap.pointloc.emplace(ArenaAccess::assemble_pointloc(
      ArenaAccess::assemble_cascade(std::move(pools), meta.fanout_bound),
      view_of<std::uint32_t>(eo_raw, meta.num_nodes),
      view_of<std::int32_t>(sep_raw, meta.num_nodes),
      view_of<geom::Coord>(lox_raw, meta.num_entries),
      view_of<geom::Coord>(loy_raw, meta.num_entries),
      view_of<geom::Coord>(hix_raw, meta.num_entries),
      view_of<geom::Coord>(hiy_raw, meta.num_entries),
      view_of<std::int32_t>(ms_raw, meta.num_entries),
      static_cast<std::size_t>(meta.num_regions)));
  return seal(std::move(snap), std::move(map), p);
}

coop::Status verify(const Snapshot& snap) {
  if (!snap.mapping.mapped()) {
    return coop::OkStatus();  // in-memory: owning pools, no file bytes to rot
  }
  Parsed p;
  if (Status s = parse_and_verify(snap.mapping, p, is_converted(snap));
      !s.ok()) {
    return s;
  }
  if (is_converted(snap) &&
      converted_pools_crc(served_cascade(snap)) != snap.converted_crc) {
    return Status::corrupted(
        "converted node and entry pools CRC mismatch — served arena "
        "damaged");
  }
  return coop::OkStatus();
}

coop::Expected<std::pair<std::uint64_t, std::uint64_t>> section_extent(
    const Snapshot& snap, SectionId id) {
  if (!snap.mapping.mapped()) {
    return Status::failed_precondition(
        "in-memory snapshot has no file sections");
  }
  // The mapping was fully verified at open(); re-parse just the header
  // and table (cheap) rather than caching parse results in Snapshot.
  Parsed p;
  if (Status s = parse_and_verify(snap.mapping, p, is_converted(snap));
      !s.ok()) {
    return s;
  }
  for (const SectionRecord& r : p.table) {
    if (r.id == static_cast<std::uint32_t>(id)) {
      return std::make_pair(r.offset, r.length);
    }
  }
  return Status::corrupted("missing section id " +
                           std::to_string(static_cast<std::uint32_t>(id)));
}

}  // namespace snapshot
