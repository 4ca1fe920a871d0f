#pragma once

// Byte-level crafting of the older snapshot formats, for the tests that
// prove those files keep loading.  Today's writer emits v3: 32-byte nodes
// with base keys and one pool of 8-byte entries (key offset, proper
// index).  A v1 file holds 24-byte nodes (snapshot::FlatNodeV1), absolute
// int64 keys (kKeys) and proper indices (kProper); a v2 file additionally
// carries a blocked multiway copy of every node's keys (sections
// kSimdKeys/kSimdPos/kSimdOff) and a 64-byte meta whose appended field
// counts its slots.  downgrade_v3_to_v1 rebuilds a v1 file from a current
// one, upgrade_to_v2 a v2 file from a v1 (or current) one, and
// downgrade_to_v1 turns a v2 file back into the v1 format, each
// re-forging every CRC.  v2 files on disk carry real layouts, so the
// in-order fill that produced them is kept here.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "serve/flat_cascade.hpp"
#include "snapshot/format.hpp"

namespace legacy_format {

using snapshot::SectionId;
using snapshot::SectionRecord;

inline std::vector<unsigned char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

inline void spit(const std::string& path,
                 const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

inline snapshot::FileHeader header_of(const std::vector<unsigned char>& b) {
  snapshot::FileHeader h;
  std::memcpy(&h, b.data(), sizeof(h));
  return h;
}

inline std::vector<SectionRecord> table_of(
    const std::vector<unsigned char>& b) {
  const snapshot::FileHeader h = header_of(b);
  std::vector<SectionRecord> table(h.section_count);
  std::memcpy(table.data(), b.data() + sizeof(h),
              table.size() * sizeof(SectionRecord));
  return table;
}

/// One section's id, element size and payload.
struct Section {
  SectionId id;
  std::uint32_t elem_size;
  std::vector<unsigned char> payload;
};

/// Lay `sections` out the way snapshot::write does — header, table,
/// 64-byte-aligned payloads — and stamp every CRC.
inline std::vector<unsigned char> lay_out(snapshot::FileHeader h,
                                          const std::vector<Section>& sections) {
  std::vector<SectionRecord> table(sections.size());
  std::uint64_t off = snapshot::align_up(
      sizeof(h) + sections.size() * sizeof(SectionRecord),
      snapshot::kSectionAlign);
  for (std::size_t i = 0; i < sections.size(); ++i) {
    const Section& s = sections[i];
    table[i].id = static_cast<std::uint32_t>(s.id);
    table[i].elem_size = s.elem_size;
    table[i].offset = off;
    table[i].length = s.payload.size();
    table[i].crc32 = snapshot::crc32(s.payload.data(), s.payload.size());
    off = snapshot::align_up(off + s.payload.size(), snapshot::kSectionAlign);
  }
  std::vector<unsigned char> bytes(table.back().offset +
                                   table.back().length);
  for (std::size_t i = 0; i < sections.size(); ++i) {
    std::copy(sections[i].payload.begin(), sections[i].payload.end(),
              bytes.begin() + static_cast<std::ptrdiff_t>(table[i].offset));
  }
  const std::size_t table_bytes = table.size() * sizeof(SectionRecord);
  std::memcpy(bytes.data() + sizeof(h), table.data(), table_bytes);
  h.section_count = static_cast<std::uint32_t>(table.size());
  h.file_size = bytes.size();
  h.table_crc = snapshot::crc32(table.data(), table_bytes);
  h.header_crc = snapshot::header_crc(h);
  std::memcpy(bytes.data(), &h, sizeof(h));
  return bytes;
}

template <typename T>
std::vector<unsigned char> as_bytes(const std::vector<T>& v) {
  std::vector<unsigned char> out(v.size() * sizeof(T));
  std::memcpy(out.data(), v.data(), out.size());
  return out;
}

/// Keys per layout block (one cache line of int64) and the fan-out of the
/// implicit tree the blocks form.
inline constexpr std::uint32_t kBlock = 8;
inline constexpr std::uint32_t kFan = kBlock + 1;

/// Visit the slots of the implicit 9-ary tree over blocks [0, nblocks)
/// in ascending key order: block k's children are blocks 9k+j+1.
template <typename Emit>
void in_order(std::uint32_t k, std::uint32_t nblocks, Emit& emit) {
  if (k >= nblocks) {
    return;
  }
  for (std::uint32_t j = 0; j < kBlock; ++j) {
    in_order(k * kFan + j + 1, nblocks, emit);
    emit(std::size_t{k} * kBlock + j);
  }
  in_order(k * kFan + kBlock + 1, nblocks, emit);
}

/// Fill slot_keys/slot_pos (n rounded up to a multiple of kBlock each)
/// with the blocked layout of the ascending keys[0..n) a v2 writer
/// stored: each slot holds a key and its rank; padding slots hold
/// (+inf, n).
inline void build_layout(const cat::Key* keys, std::uint32_t n,
                         cat::Key* slot_keys, std::uint32_t* slot_pos) {
  std::uint32_t t = 0;
  auto emit = [&](std::size_t slot) {
    slot_keys[slot] = t < n ? keys[t] : cat::kInfinity;
    slot_pos[slot] = t < n ? t++ : n;
  };
  in_order(0, (n + kBlock - 1) / kBlock, emit);
}

/// Rewrite a current (v3) snapshot at `path` as a v1 writer laid it out:
/// 24-byte nodes without base keys, every entry's absolute key in kKeys
/// and its proper index in kProper where kEntries stood, no high-word
/// sections, the 56-byte meta, version 1, every CRC re-forged.
inline void downgrade_v3_to_v1(const std::string& path) {
  const std::vector<unsigned char> bytes = slurp(path);
  ASSERT_GE(bytes.size(), sizeof(snapshot::FileHeader));
  snapshot::FileHeader header = header_of(bytes);
  ASSERT_EQ(header.version, 3u);

  std::vector<Section> sections;
  std::vector<serve::FlatNode> nodes;
  std::vector<serve::FlatEntry> entries;
  std::vector<std::uint32_t> hi_off, hi;
  for (const SectionRecord& rec : table_of(bytes)) {
    const unsigned char* at = bytes.data() + rec.offset;
    const auto id = static_cast<SectionId>(rec.id);
    const auto load = [&](auto& v) {
      v.resize(rec.length / sizeof(v[0]));
      std::memcpy(v.data(), at, rec.length);
    };
    if (id == SectionId::kNodes) {
      load(nodes);
    } else if (id == SectionId::kEntries) {
      load(entries);
    } else if (id == SectionId::kHiOff) {
      load(hi_off);
    } else if (id == SectionId::kHi) {
      load(hi);
    }
    sections.push_back({id, rec.elem_size, {at, at + rec.length}});
  }
  ASSERT_FALSE(nodes.empty());

  std::vector<snapshot::FlatNodeV1> old;
  std::vector<cat::Key> keys;
  std::vector<std::uint32_t> proper;
  for (std::size_t v = 0; v < nodes.size(); ++v) {
    const serve::FlatNode& nd = nodes[v];
    old.push_back({nd.key_off, nd.key_count, nd.bridge_off, nd.child_off,
                   nd.parent, nd.num_children, nd.slot});
    const std::uint32_t* h = hi_off.empty() || hi_off[v] == serve::kNarrow
                                 ? nullptr
                                 : hi.data() + hi_off[v];
    const serve::FlatEntry* e = entries.data() + nd.key_off;
    for (std::uint32_t i = 0; i < nd.key_count; ++i) {
      keys.push_back(i + 1 == nd.key_count
                         ? cat::kInfinity
                         : static_cast<cat::Key>(
                               static_cast<std::uint64_t>(nd.base) +
                               serve::FlatCascade::entry_offset(e, h, i)));
      proper.push_back(e[i].proper);
    }
  }

  std::vector<Section> out;
  for (Section& s : sections) {
    if (s.id == SectionId::kHiOff || s.id == SectionId::kHi) {
      continue;
    }
    if (s.id == SectionId::kMeta) {
      s.payload.resize(snapshot::kArenaMetaSizeV1);
      s.elem_size = snapshot::kArenaMetaSizeV1;
    } else if (s.id == SectionId::kNodes) {
      s = {SectionId::kNodes, sizeof(snapshot::FlatNodeV1), as_bytes(old)};
    } else if (s.id == SectionId::kEntries) {
      out.push_back({SectionId::kKeys, sizeof(cat::Key), as_bytes(keys)});
      s = {SectionId::kProper, 4, as_bytes(proper)};
    }
    out.push_back(std::move(s));
  }
  header.version = 1;
  spit(path, lay_out(header, out));
}

/// Rewrite a v1 snapshot at `path` (a current one is first turned into
/// v1 by downgrade_v3_to_v1) as a v2 writer laid it
/// out: every node's blocked layout built with build_layout,
/// packed node-major into kSimdKeys/kSimdPos with per-node first slots in
/// kSimdOff, placed right after kChild; the meta grown to 64 bytes with
/// the slot total appended; version 2; every CRC re-forged.
inline void upgrade_to_v2(const std::string& path) {
  const std::vector<unsigned char> bytes = slurp(path);
  ASSERT_GE(bytes.size(), sizeof(snapshot::FileHeader));
  snapshot::FileHeader header = header_of(bytes);
  if (header.version == 3) {
    downgrade_v3_to_v1(path);
    upgrade_to_v2(path);
    return;
  }
  ASSERT_EQ(header.version, 1u);

  std::vector<Section> sections;
  std::vector<snapshot::FlatNodeV1> nodes;
  std::vector<cat::Key> keys;
  for (const SectionRecord& rec : table_of(bytes)) {
    const unsigned char* at = bytes.data() + rec.offset;
    sections.push_back({static_cast<SectionId>(rec.id), rec.elem_size,
                        {at, at + rec.length}});
    if (rec.id == static_cast<std::uint32_t>(SectionId::kNodes)) {
      nodes.resize(rec.length / sizeof(snapshot::FlatNodeV1));
      std::memcpy(nodes.data(), at, rec.length);
    } else if (rec.id == static_cast<std::uint32_t>(SectionId::kKeys)) {
      keys.resize(rec.length / sizeof(cat::Key));
      std::memcpy(keys.data(), at, rec.length);
    }
  }
  ASSERT_FALSE(nodes.empty());

  std::vector<cat::Key> slot_keys;
  std::vector<std::uint32_t> slot_pos;
  std::vector<std::uint32_t> slot_off;
  for (const snapshot::FlatNodeV1& nd : nodes) {
    const std::uint32_t at = static_cast<std::uint32_t>(slot_keys.size());
    slot_off.push_back(at);
    slot_keys.resize(at + (nd.key_count + kBlock - 1) / kBlock * kBlock);
    slot_pos.resize(slot_keys.size());
    ASSERT_LE(std::size_t{nd.key_off} + nd.key_count, keys.size());
    build_layout(keys.data() + nd.key_off, nd.key_count,
                 slot_keys.data() + at, slot_pos.data() + at);
  }

  std::vector<Section> out;
  for (Section& s : sections) {
    const SectionId id = s.id;
    if (id == SectionId::kMeta) {
      ASSERT_EQ(s.payload.size(), snapshot::kArenaMetaSizeV1);
      const std::uint64_t num_slots = slot_keys.size();
      const auto* p = reinterpret_cast<const unsigned char*>(&num_slots);
      s.payload.insert(s.payload.end(), p, p + sizeof(num_slots));
      s.elem_size = snapshot::kArenaMetaSizeV2;
    }
    out.push_back(std::move(s));
    if (id == SectionId::kChild) {
      out.push_back({SectionId::kSimdKeys, sizeof(cat::Key),
                     as_bytes(slot_keys)});
      out.push_back({SectionId::kSimdPos, 4, as_bytes(slot_pos)});
      out.push_back({SectionId::kSimdOff, 4, as_bytes(slot_off)});
    }
  }
  header.version = 2;
  spit(path, lay_out(header, out));
}

/// Rewrite a v2 snapshot at `path` as the v1 format: drop the three
/// layout sections, shrink the kMeta payload back to the 56-byte
/// ArenaMeta, stamp version 1 and re-forge every CRC.
inline void downgrade_to_v1(const std::string& path) {
  const std::vector<unsigned char> bytes = slurp(path);
  ASSERT_GE(bytes.size(), sizeof(snapshot::FileHeader));
  snapshot::FileHeader header = header_of(bytes);
  ASSERT_EQ(header.version, 2u);

  std::vector<Section> kept;
  std::size_t dropped = 0;
  for (const SectionRecord& rec : table_of(bytes)) {
    const auto id = static_cast<SectionId>(rec.id);
    if (id == SectionId::kSimdKeys || id == SectionId::kSimdPos ||
        id == SectionId::kSimdOff) {
      ++dropped;
      continue;
    }
    const unsigned char* at = bytes.data() + rec.offset;
    Section s{id, rec.elem_size, {at, at + rec.length}};
    if (id == SectionId::kMeta) {
      ASSERT_EQ(rec.length, snapshot::kArenaMetaSizeV2);
      s.payload.resize(snapshot::kArenaMetaSizeV1);
      s.elem_size = snapshot::kArenaMetaSizeV1;
    }
    kept.push_back(std::move(s));
  }
  ASSERT_EQ(dropped, 3u);
  header.version = 1;
  spit(path, lay_out(header, kept));
}

}  // namespace legacy_format
