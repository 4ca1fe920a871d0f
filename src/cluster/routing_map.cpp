#include "cluster/routing_map.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "snapshot/format.hpp"

namespace cluster {

using coop::Status;

void RoutingMap::build_reverse() {
  global_to_local.assign(num_shards,
                         std::vector<std::int32_t>(owner.size(), -1));
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    const std::vector<std::uint32_t>& kept = local_to_global[s];
    for (std::size_t l = 0; l < kept.size(); ++l) {
      if (kept[l] < owner.size()) {
        global_to_local[s][kept[l]] = static_cast<std::int32_t>(l);
      }
    }
  }
}

coop::Expected<std::uint32_t> RoutingMap::route(
    std::span<std::uint32_t> path) const {
  if (path.empty()) {
    return Status::invalid_argument("empty query path");
  }
  // Node ids are signed on the client side; name them as it does.
  for (const std::uint32_t v : path) {
    if (v >= num_nodes()) {
      return Status::invalid_argument(
          "query path node " + std::to_string(static_cast<std::int32_t>(v)) +
          " out of range");
    }
  }
  const std::uint32_t shard = owner[path.back()];
  const std::vector<std::int32_t>& local = global_to_local[shard];
  for (std::uint32_t& v : path) {
    const std::int32_t l = local[v];
    if (l < 0) {
      return Status::invalid_argument(
          "query path node " + std::to_string(v) + " is not on shard " +
          std::to_string(shard) + " (paths must descend from the root)");
    }
    v = static_cast<std::uint32_t>(l);
  }
  return shard;
}

coop::Status RoutingMap::validate() const {
  if (num_shards == 0) {
    return Status::corrupted("routing map has zero shards");
  }
  if (owner.empty()) {
    return Status::corrupted("routing map covers zero nodes");
  }
  if (local_to_global.size() != num_shards ||
      global_to_local.size() != num_shards) {
    return Status::corrupted("routing map shard-list size mismatch");
  }
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    const std::vector<std::uint32_t>& kept = local_to_global[s];
    if (kept.empty() || kept[0] != 0) {
      return Status::corrupted("shard " + std::to_string(s) +
                               " kept set does not start at the root");
    }
    for (std::size_t l = 0; l < kept.size(); ++l) {
      if (kept[l] >= owner.size()) {
        return Status::corrupted("shard " + std::to_string(s) +
                                 " keeps out-of-range node " +
                                 std::to_string(kept[l]));
      }
      if (l > 0 && kept[l] <= kept[l - 1]) {
        return Status::corrupted("shard " + std::to_string(s) +
                                 " kept list is not strictly increasing");
      }
    }
  }
  for (std::size_t v = 0; v < owner.size(); ++v) {
    if (owner[v] >= num_shards) {
      return Status::corrupted("node " + std::to_string(v) +
                               " owned by out-of-range shard " +
                               std::to_string(owner[v]));
    }
    if (global_to_local[owner[v]][v] < 0) {
      return Status::corrupted("node " + std::to_string(v) +
                               " is not kept by its owning shard " +
                               std::to_string(owner[v]));
    }
  }
  return coop::OkStatus();
}

namespace {

void append_bytes(std::vector<std::uint8_t>& out, const void* p,
                  std::size_t n) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  out.insert(out.end(), b, b + n);
}

void pad_to(std::vector<std::uint8_t>& out, std::uint64_t align) {
  out.resize(snapshot::align_up(out.size(), align), 0);
}

}  // namespace

coop::Status save_routing_map(const RoutingMap& m, const std::string& path) {
  if (Status s = m.validate(); !s.ok()) {
    return s;
  }
  // Section payloads.
  snapshot::RoutingMeta meta;
  meta.num_nodes = m.owner.size();
  meta.num_shards = m.num_shards;
  std::vector<std::uint32_t> local_flat;
  std::vector<std::uint64_t> shard_off;
  shard_off.push_back(0);
  for (const std::vector<std::uint32_t>& kept : m.local_to_global) {
    local_flat.insert(local_flat.end(), kept.begin(), kept.end());
    shard_off.push_back(local_flat.size());
  }
  meta.total_kept = local_flat.size();

  struct Payload {
    snapshot::SectionId id;
    std::uint32_t elem_size;
    const void* data;
    std::uint64_t bytes;
  };
  const Payload payloads[] = {
      {snapshot::SectionId::kRoutingMeta, sizeof(meta), &meta, sizeof(meta)},
      {snapshot::SectionId::kRoutingOwner, 4, m.owner.data(),
       m.owner.size() * 4},
      {snapshot::SectionId::kRoutingLocal, 4, local_flat.data(),
       local_flat.size() * 4},
      {snapshot::SectionId::kRoutingShardOff, 8, shard_off.data(),
       shard_off.size() * 8},
  };
  constexpr std::uint32_t kCount = 4;

  snapshot::FileHeader header;
  header.kind = static_cast<std::uint32_t>(snapshot::SnapshotKind::kRoutingMap);
  header.section_count = kCount;

  std::vector<snapshot::SectionRecord> table(kCount);
  std::uint64_t off = snapshot::align_up(
      sizeof(header) + kCount * sizeof(snapshot::SectionRecord),
      snapshot::kSectionAlign);
  for (std::uint32_t i = 0; i < kCount; ++i) {
    table[i].id = static_cast<std::uint32_t>(payloads[i].id);
    table[i].elem_size = payloads[i].elem_size;
    table[i].offset = off;
    table[i].length = payloads[i].bytes;
    table[i].crc32 = snapshot::crc32(payloads[i].data, payloads[i].bytes);
    off = snapshot::align_up(off + payloads[i].bytes, snapshot::kSectionAlign);
  }
  // The last section needs no tail padding in the file.
  header.file_size = table[kCount - 1].offset + table[kCount - 1].length;
  header.table_crc =
      snapshot::crc32(table.data(), table.size() * sizeof(table[0]));
  header.header_crc = snapshot::header_crc(header);

  std::vector<std::uint8_t> file;
  file.reserve(header.file_size);
  append_bytes(file, &header, sizeof(header));
  append_bytes(file, table.data(), table.size() * sizeof(table[0]));
  for (std::uint32_t i = 0; i < kCount; ++i) {
    pad_to(file, snapshot::kSectionAlign);
    append_bytes(file, payloads[i].data, payloads[i].bytes);
  }

  // Atomic publish: tmp + fsync + rename + parent-dir fsync, the same
  // discipline snapshot::write uses.
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::invalid_argument("cannot create " + tmp + ": " +
                                    std::strerror(errno));
  }
  std::size_t written = 0;
  while (written < file.size()) {
    const ssize_t n =
        ::write(fd, file.data() + written, file.size() - written);
    if (n <= 0) {
      const int err = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::internal("short write to " + tmp + ": " +
                              std::strerror(err));
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return Status::internal("fsync/close of " + tmp + " failed");
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    return Status::internal("rename " + tmp + " -> " + path + " failed: " +
                            std::strerror(err));
  }
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    (void)::fsync(dfd);
    ::close(dfd);
  }
  return coop::OkStatus();
}

namespace {

struct SectionView {
  const std::uint8_t* data = nullptr;
  std::uint64_t length = 0;
};

}  // namespace

coop::Expected<RoutingMap> load_routing_map(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::invalid_argument("cannot open routing map " + path);
  }
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  if (in.bad()) {
    return Status::invalid_argument("cannot read routing map " + path);
  }
  if (bytes.size() < sizeof(snapshot::FileHeader)) {
    return Status::corrupted("routing map truncated before the header");
  }
  snapshot::FileHeader h;
  std::memcpy(&h, bytes.data(), sizeof(h));
  if (h.magic != snapshot::kMagic) {
    return Status::corrupted("bad routing map magic (not a COOPSNAP file)");
  }
  if (h.endian_tag != snapshot::kEndianTag) {
    return Status::corrupted("routing map written on a different-endian "
                             "machine");
  }
  if (h.version < snapshot::kMinFormatVersion ||
      h.version > snapshot::kMaxFormatVersion) {
    return Status::corrupted("unsupported routing map format version " +
                             std::to_string(h.version));
  }
  if (h.kind !=
      static_cast<std::uint32_t>(snapshot::SnapshotKind::kRoutingMap)) {
    return Status::corrupted("snapshot kind " + std::to_string(h.kind) +
                             " is not a routing map");
  }
  if (h.header_crc != snapshot::header_crc(h)) {
    return Status::corrupted("routing map header CRC mismatch");
  }
  if (h.file_size != bytes.size()) {
    return Status::corrupted("routing map truncated: header promises " +
                             std::to_string(h.file_size) + " bytes, file " +
                             "has " + std::to_string(bytes.size()));
  }
  if (h.section_count == 0 || h.section_count > snapshot::kMaxSections) {
    return Status::corrupted("routing map section count " +
                             std::to_string(h.section_count) +
                             " out of range");
  }
  const std::uint64_t table_bytes =
      std::uint64_t{h.section_count} * sizeof(snapshot::SectionRecord);
  if (sizeof(h) + table_bytes > bytes.size()) {
    return Status::corrupted("routing map truncated inside the section "
                             "table");
  }
  if (h.table_crc != snapshot::crc32(bytes.data() + sizeof(h), table_bytes)) {
    return Status::corrupted("routing map section-table CRC mismatch");
  }
  SectionView meta_v, owner_v, local_v, off_v;
  for (std::uint32_t i = 0; i < h.section_count; ++i) {
    snapshot::SectionRecord rec;
    std::memcpy(&rec, bytes.data() + sizeof(h) + i * sizeof(rec),
                sizeof(rec));
    if (rec.offset % snapshot::kSectionAlign != 0 ||
        rec.offset > bytes.size() ||
        rec.length > bytes.size() - rec.offset) {
      return Status::corrupted("routing map section " + std::to_string(i) +
                               " out of file bounds");
    }
    const std::uint8_t* data = bytes.data() + rec.offset;
    if (rec.crc32 != snapshot::crc32(data, rec.length)) {
      return Status::corrupted("routing map section " + std::to_string(i) +
                               " payload CRC mismatch");
    }
    switch (static_cast<snapshot::SectionId>(rec.id)) {
      case snapshot::SectionId::kRoutingMeta:
        meta_v = {data, rec.length};
        break;
      case snapshot::SectionId::kRoutingOwner:
        owner_v = {data, rec.length};
        break;
      case snapshot::SectionId::kRoutingLocal:
        local_v = {data, rec.length};
        break;
      case snapshot::SectionId::kRoutingShardOff:
        off_v = {data, rec.length};
        break;
      default:
        break;  // unknown optional sections are ignored, as everywhere
    }
  }
  if (meta_v.data == nullptr || meta_v.length != sizeof(snapshot::RoutingMeta)) {
    return Status::corrupted("routing map is missing its meta section");
  }
  snapshot::RoutingMeta meta;
  std::memcpy(&meta, meta_v.data, sizeof(meta));
  if (meta.num_shards == 0 || meta.num_nodes == 0 ||
      meta.num_shards > (std::uint64_t{1} << 16) ||
      meta.num_nodes > (std::uint64_t{1} << 32)) {
    return Status::corrupted("routing map meta counts out of range");
  }
  if (owner_v.data == nullptr || owner_v.length != meta.num_nodes * 4) {
    return Status::corrupted("routing map owner section length mismatch");
  }
  if (local_v.length != meta.total_kept * 4) {
    return Status::corrupted("routing map local-id section length mismatch");
  }
  if (off_v.data == nullptr || off_v.length != (meta.num_shards + 1) * 8) {
    return Status::corrupted("routing map shard-offset section length "
                             "mismatch");
  }
  RoutingMap m;
  m.num_shards = static_cast<std::uint32_t>(meta.num_shards);
  m.owner.resize(meta.num_nodes);
  std::memcpy(m.owner.data(), owner_v.data, owner_v.length);
  std::vector<std::uint64_t> shard_off(meta.num_shards + 1);
  std::memcpy(shard_off.data(), off_v.data, off_v.length);
  if (shard_off[0] != 0 || shard_off[meta.num_shards] != meta.total_kept) {
    return Status::corrupted("routing map shard offsets do not cover the "
                             "local-id pool");
  }
  m.local_to_global.resize(m.num_shards);
  for (std::uint32_t s = 0; s < m.num_shards; ++s) {
    if (shard_off[s + 1] < shard_off[s] ||
        shard_off[s + 1] > meta.total_kept) {
      return Status::corrupted("routing map shard offsets are not "
                               "monotone");
    }
    const std::uint64_t n = shard_off[s + 1] - shard_off[s];
    m.local_to_global[s].resize(n);
    if (n > 0 && local_v.data != nullptr) {
      std::memcpy(m.local_to_global[s].data(),
                  local_v.data + shard_off[s] * 4, n * 4);
    }
  }
  m.build_reverse();
  if (Status s = m.validate(); !s.ok()) {
    return s;
  }
  return m;
}

}  // namespace cluster
