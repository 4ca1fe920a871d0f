#include "robust/corrupt.hpp"

#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

// Header-only layout constants + CRC32 of the snapshot format, the net
// wire-frame format, and the dyn delta-run format, included so the
// harness can craft targeted file/frame/run faults without linking the
// snapshot, net, or dyn libraries (all depend on robust, not vice
// versa).
#include "dyn/run_format.hpp"
#include "dyn/wal_format.hpp"
#include "net/frame_format.hpp"
#include "snapshot/format.hpp"

namespace robust {

using coop::Status;

const char* to_string(CorruptionKind k) {
  switch (k) {
    case CorruptionKind::kUnsortedCatalog: return "unsorted-catalog";
    case CorruptionKind::kMissingTerminal: return "missing-terminal";
    case CorruptionKind::kCrossingBridges: return "crossing-bridges";
    case CorruptionKind::kBridgeOutOfRange: return "bridge-out-of-range";
    case CorruptionKind::kWrongProper: return "wrong-proper";
    case CorruptionKind::kSkeletonNonMonotone: return "skeleton-non-monotone";
    case CorruptionKind::kSkeletonOutOfRange: return "skeleton-out-of-range";
    case CorruptionKind::kBlockMapDangling: return "block-map-dangling";
    case CorruptionKind::kGapBreakpointDisorder:
      return "gap-breakpoint-disorder";
    case CorruptionKind::kSnapshotTruncated: return "snapshot-truncated";
    case CorruptionKind::kSnapshotHeaderBitFlip:
      return "snapshot-header-bit-flip";
    case CorruptionKind::kSnapshotSectionCrc:
      return "snapshot-section-crc-mismatch";
    case CorruptionKind::kSnapshotSectionOffset:
      return "snapshot-section-offset-oob";
    case CorruptionKind::kWireTruncated: return "wire-truncated";
    case CorruptionKind::kWireLengthLie: return "wire-length-lie";
    case CorruptionKind::kWireBitFlip: return "wire-bit-flip";
    case CorruptionKind::kDeltaTruncatedRun: return "delta-truncated-run";
    case CorruptionKind::kDeltaTombstoneBitFlip:
      return "delta-tombstone-bit-flip";
    case CorruptionKind::kDeltaRunKeyDisorder:
      return "delta-run-key-disorder";
    case CorruptionKind::kWalTornTail: return "wal-torn-tail";
    case CorruptionKind::kWalRecordBitFlip: return "wal-record-bit-flip";
    case CorruptionKind::kWalSeqRegression: return "wal-seq-regression";
  }
  return "?";
}

namespace {

Status not_applicable(CorruptionKind kind, const char* target) {
  return Status::failed_precondition(std::string(to_string(kind)) +
                                     " does not apply to " + target);
}

Status too_small(CorruptionKind kind) {
  return Status::failed_precondition(
      std::string("structure too small to host ") + to_string(kind));
}

/// Pick one of `count` candidates deterministically from the seed.
std::size_t pick(std::uint64_t seed, std::size_t count) {
  std::mt19937_64 rng(seed);
  return static_cast<std::size_t>(rng() % count);
}

}  // namespace

Status corrupt(cat::Tree& t, CorruptionKind kind, std::uint64_t seed) {
  if (kind != CorruptionKind::kUnsortedCatalog) {
    return not_applicable(kind, "cat::Tree");
  }
  std::vector<cat::NodeId> hosts;
  for (std::size_t v = 0; v < t.num_nodes(); ++v) {
    if (t.catalog(cat::NodeId(v)).real_size() >= 2) {
      hosts.push_back(cat::NodeId(v));
    }
  }
  if (hosts.empty()) {
    return too_small(kind);
  }
  const cat::NodeId v = hosts[pick(seed, hosts.size())];
  const cat::Catalog& c = t.catalog(v);
  // Real entries only; from_sorted() re-appends the sentinel (and does not
  // validate, which is exactly what lets us plant the fault).
  std::vector<cat::Key> keys(c.keys().begin(), c.keys().end() - 1);
  std::vector<std::uint64_t> payloads(c.payloads().begin(),
                                      c.payloads().end() - 1);
  const std::size_t i = pick(seed ^ 0x9e3779b97f4a7c15ULL, keys.size() - 1);
  std::swap(keys[i], keys[i + 1]);
  std::swap(payloads[i], payloads[i + 1]);
  t.set_catalog(v, cat::Catalog::from_sorted(keys, payloads));
  return coop::OkStatus();
}

Status corrupt(fc::Structure& s, CorruptionKind kind, std::uint64_t seed) {
  const cat::Tree& t = s.tree();
  std::vector<fc::AugCatalog> aug;
  aug.reserve(t.num_nodes());
  for (std::size_t v = 0; v < t.num_nodes(); ++v) {
    aug.push_back(s.aug(cat::NodeId(v)));
  }

  switch (kind) {
    case CorruptionKind::kMissingTerminal: {
      const std::size_t v = pick(seed, aug.size());
      aug[v].keys.back() = cat::kInfinity - 1 - static_cast<cat::Key>(v);
      break;
    }
    case CorruptionKind::kCrossingBridges: {
      // Adjacent entries whose bridges differ: swapping them plants a
      // decreasing (crossing) pair while keeping every index in range.
      struct Site {
        std::size_t v, e, i;
      };
      std::vector<Site> sites;
      for (std::size_t v = 0; v < aug.size(); ++v) {
        const std::size_t sz = aug[v].keys.size();
        for (std::size_t e = 0; e < aug[v].num_children; ++e) {
          for (std::size_t i = 1; i < sz; ++i) {
            if (aug[v].bridge[e * sz + i - 1] != aug[v].bridge[e * sz + i]) {
              sites.push_back(Site{v, e, i});
            }
          }
        }
      }
      if (sites.empty()) {
        return too_small(kind);
      }
      const Site site = sites[pick(seed, sites.size())];
      auto& b = aug[site.v].bridge;
      const std::size_t sz = aug[site.v].keys.size();
      std::swap(b[site.e * sz + site.i - 1], b[site.e * sz + site.i]);
      break;
    }
    case CorruptionKind::kBridgeOutOfRange: {
      std::vector<std::size_t> hosts;
      for (std::size_t v = 0; v < aug.size(); ++v) {
        if (aug[v].num_children > 0) {
          hosts.push_back(v);
        }
      }
      if (hosts.empty()) {
        return too_small(kind);
      }
      const std::size_t v = hosts[pick(seed, hosts.size())];
      const std::size_t slot = pick(seed ^ 0xbf58476d1ce4e5b9ULL,
                                    aug[v].bridge.size());
      const cat::NodeId kid =
          t.children(cat::NodeId(v))[slot / aug[v].keys.size()];
      aug[v].bridge[slot] = static_cast<std::int32_t>(aug[kid].keys.size());
      break;
    }
    case CorruptionKind::kWrongProper: {
      // Needs a catalog with >= 2 entries so the off-by-one lands on a
      // different (still in-range) index.
      std::vector<std::size_t> hosts;
      for (std::size_t v = 0; v < aug.size(); ++v) {
        if (t.catalog(cat::NodeId(v)).size() >= 2) {
          hosts.push_back(v);
        }
      }
      if (hosts.empty()) {
        return too_small(kind);
      }
      const std::size_t v = hosts[pick(seed, hosts.size())];
      const std::size_t i = pick(seed ^ 0x94d049bb133111ebULL,
                                 aug[v].proper.size());
      const auto own = static_cast<std::int32_t>(t.catalog(cat::NodeId(v)).size());
      aug[v].proper[i] = (aug[v].proper[i] + 1) % own;
      break;
    }
    default:
      return not_applicable(kind, "fc::Structure");
  }
  s = fc::Structure::from_parts(t, s.sample_k(), std::move(aug));
  return coop::OkStatus();
}

Status corrupt(coop::CoopStructure& cs, CorruptionKind kind,
               std::uint64_t seed) {
  auto& subs = StructureAccess::substructures(cs);
  switch (kind) {
    case CorruptionKind::kSkeletonNonMonotone: {
      // A block with >= 2 skeletons: duplicate the root's sample 0 into
      // sample 1, breaking the strictly-increasing back-sample order.
      struct Site {
        std::size_t sub, block;
      };
      std::vector<Site> sites;
      for (std::size_t si = 0; si < subs.size(); ++si) {
        for (std::size_t bi = 0; bi < subs[si].blocks.size(); ++bi) {
          if (subs[si].blocks[bi].m >= 2) {
            sites.push_back(Site{si, bi});
          }
        }
      }
      if (sites.empty()) {
        return too_small(kind);
      }
      const Site site = sites[pick(seed, sites.size())];
      coop::HopBlock& b = subs[site.sub].blocks[site.block];
      b.skel[b.nodes.size()] = b.skel[0];
      return coop::OkStatus();
    }
    case CorruptionKind::kSkeletonOutOfRange: {
      struct Site {
        std::size_t sub, block;
      };
      std::vector<Site> sites;
      for (std::size_t si = 0; si < subs.size(); ++si) {
        for (std::size_t bi = 0; bi < subs[si].blocks.size(); ++bi) {
          if (!subs[si].blocks[bi].skel.empty()) {
            sites.push_back(Site{si, bi});
          }
        }
      }
      if (sites.empty()) {
        return too_small(kind);
      }
      const Site site = sites[pick(seed, sites.size())];
      coop::HopBlock& b = subs[site.sub].blocks[site.block];
      const std::size_t slot = pick(seed ^ 0x2545f4914f6cdd1dULL,
                                    b.skel.size());
      const cat::NodeId v = b.nodes[slot % b.nodes.size()];
      b.skel[slot] =
          static_cast<std::int32_t>(cs.cascade().aug(v).size()) + 5;
      return coop::OkStatus();
    }
    case CorruptionKind::kBlockMapDangling: {
      std::vector<std::size_t> hosts;
      for (std::size_t si = 0; si < subs.size(); ++si) {
        if (!subs[si].blocks.empty()) {
          hosts.push_back(si);
        }
      }
      if (hosts.empty()) {
        return too_small(kind);
      }
      coop::Substructure& sub = subs[hosts[pick(seed, hosts.size())]];
      const std::size_t bi = pick(seed ^ 0xd6e8feb86659fd93ULL,
                                  sub.blocks.size());
      const auto root = static_cast<std::size_t>(sub.blocks[bi].root);
      sub.block_of[root] = static_cast<std::int32_t>(sub.blocks.size());
      return coop::OkStatus();
    }
    default:
      return not_applicable(kind, "coop::CoopStructure");
  }
}

Status corrupt(pointloc::SeparatorTree& st, CorruptionKind kind,
               std::uint64_t seed) {
  switch (kind) {
    case CorruptionKind::kUnsortedCatalog:
      return corrupt(StructureAccess::tree(st), kind, seed);
    case CorruptionKind::kMissingTerminal:
    case CorruptionKind::kCrossingBridges:
    case CorruptionKind::kBridgeOutOfRange:
    case CorruptionKind::kWrongProper:
      return corrupt(StructureAccess::cascade(st), kind, seed);
    case CorruptionKind::kSkeletonNonMonotone:
    case CorruptionKind::kSkeletonOutOfRange:
    case CorruptionKind::kBlockMapDangling:
      return corrupt(StructureAccess::coop_structure(st), kind, seed);
    case CorruptionKind::kSnapshotTruncated:
    case CorruptionKind::kSnapshotHeaderBitFlip:
    case CorruptionKind::kSnapshotSectionCrc:
    case CorruptionKind::kSnapshotSectionOffset:
    case CorruptionKind::kWireTruncated:
    case CorruptionKind::kWireLengthLie:
    case CorruptionKind::kWireBitFlip:
    case CorruptionKind::kDeltaTruncatedRun:
    case CorruptionKind::kDeltaTombstoneBitFlip:
    case CorruptionKind::kDeltaRunKeyDisorder:
    case CorruptionKind::kWalTornTail:
    case CorruptionKind::kWalRecordBitFlip:
    case CorruptionKind::kWalSeqRegression:
      return not_applicable(kind, "pointloc::SeparatorTree");
    case CorruptionKind::kGapBreakpointDisorder:
      break;
  }
  if (!st.has_gap_branches()) {
    return Status::failed_precondition(
        "gap-breakpoint-disorder needs precompute_gap_branches() first");
  }
  auto& gb = StructureAccess::gap_branches(st);
  struct Site {
    std::size_t v, i;
  };
  std::vector<Site> sites;
  for (std::size_t v = 0; v < gb.size(); ++v) {
    for (std::size_t i = 0; i < gb[v].size(); ++i) {
      if (!gb[v][i].empty()) {
        sites.push_back(Site{v, i});
      }
    }
  }
  if (sites.empty()) {
    return too_small(kind);
  }
  const Site site = sites[pick(seed, sites.size())];
  auto& bps = gb[site.v][site.i];
  // Append a breakpoint strictly below the current minimum: the list is
  // no longer sorted by level, which the branch lookup binary search
  // silently relies on.
  bps.emplace_back(bps.front().first - 1, bps.front().second);
  return coop::OkStatus();
}

namespace {

/// Read a whole file into memory (snapshot files in tests are small).
Status slurp(const std::string& path, std::vector<unsigned char>& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::invalid_argument("cannot open " + path);
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  out.resize(size < 0 ? 0 : static_cast<std::size_t>(size));
  const bool ok =
      out.empty() || std::fread(out.data(), 1, out.size(), f) == out.size();
  std::fclose(f);
  if (!ok) {
    return Status::invalid_argument("cannot read " + path);
  }
  return coop::OkStatus();
}

Status spit(const std::string& path, const std::vector<unsigned char>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::invalid_argument("cannot open " + path + " for writing");
  }
  const bool ok = bytes.empty() ||
                  std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  if (std::fclose(f) != 0 || !ok) {
    return Status::invalid_argument("cannot write " + path);
  }
  return coop::OkStatus();
}

}  // namespace

Status corrupt_file(const std::string& path, CorruptionKind kind,
                    std::uint64_t seed) {
  std::vector<unsigned char> bytes;
  if (Status s = slurp(path, bytes); !s.ok()) {
    return s;
  }
  if (bytes.size() < sizeof(snapshot::FileHeader)) {
    return Status::failed_precondition(path +
                                       " is too small to be a snapshot");
  }
  snapshot::FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  if (header.magic != snapshot::kMagic) {
    return Status::failed_precondition(path + " is not a snapshot file");
  }
  const std::size_t table_off = sizeof(snapshot::FileHeader);
  const std::size_t table_bytes =
      std::size_t{header.section_count} * sizeof(snapshot::SectionRecord);
  // On even seeds the section kinds aim at the arena's entry pool
  // (kEntries) when the file has one: it is the bulk of a cascade file
  // and the pool every query reads.  Odd seeds pick anywhere in the file,
  // so the header, table, meta and the other sections stay covered.
  std::vector<snapshot::SectionRecord> table;
  if (table_off + table_bytes <= bytes.size()) {
    table.resize(header.section_count);
    std::memcpy(table.data(), bytes.data() + table_off, table_bytes);
  }
  std::size_t entries = table.size();  // none, or an odd seed
  for (std::size_t i = 0; i < table.size() && seed % 2 == 0; ++i) {
    if (table[i].id ==
            static_cast<std::uint32_t>(snapshot::SectionId::kEntries) &&
        table[i].length > 0 &&
        table[i].offset + table[i].length <= bytes.size()) {
      entries = i;
    }
  }

  switch (kind) {
    case CorruptionKind::kSnapshotTruncated: {
      // Cut inside the entry pool (even seeds), else anywhere from an
      // empty file to one byte short: every length must be rejected (by
      // the size probe, the file_size cross-check, or a section
      // bounds/CRC failure — whichever trips first).
      bytes.resize(entries < table.size()
                       ? table[entries].offset +
                             pick(seed, table[entries].length)
                       : pick(seed, bytes.size()));
      break;
    }
    case CorruptionKind::kSnapshotHeaderBitFlip: {
      const std::size_t bit = pick(seed, sizeof(snapshot::FileHeader) * 8);
      bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
      break;
    }
    case CorruptionKind::kSnapshotSectionCrc: {
      // Flip a bit strictly inside one section's payload (not in the
      // uncovered alignment padding), leaving header and table intact,
      // so only that section's CRC can catch it.
      if (table.empty()) {
        return Status::failed_precondition(path + " has no section table");
      }
      std::vector<std::size_t> hosts;
      for (std::size_t i = 0; i < table.size(); ++i) {
        if (table[i].length > 0 &&
            table[i].offset + table[i].length <= bytes.size()) {
          hosts.push_back(i);
        }
      }
      if (hosts.empty()) {
        return Status::failed_precondition(path + " has no section payloads");
      }
      const auto& rec = table[entries < table.size()
                                  ? entries
                                  : hosts[pick(seed, hosts.size())]];
      const std::size_t bit = pick(seed ^ 0x5eed, rec.length * 8);
      bytes[rec.offset + bit / 8] ^=
          static_cast<unsigned char>(1u << (bit % 8));
      break;
    }
    case CorruptionKind::kSnapshotSectionOffset: {
      if (table.empty()) {
        return Status::failed_precondition(path + " has no section table");
      }
      // Point one section far past end-of-file, then re-forge the table
      // CRC: the fault is invisible to every checksum and must be caught
      // by snapshot::open's explicit bounds validation.
      const std::size_t victim =
          entries < table.size() ? entries : pick(seed, table.size());
      snapshot::SectionRecord rec;
      unsigned char* rec_at =
          bytes.data() + table_off + victim * sizeof(snapshot::SectionRecord);
      std::memcpy(&rec, rec_at, sizeof(rec));
      rec.offset = snapshot::align_up(
          header.file_size + (1 + seed % 7) * snapshot::kSectionAlign,
          snapshot::kSectionAlign);
      std::memcpy(rec_at, &rec, sizeof(rec));
      header.table_crc =
          snapshot::crc32(bytes.data() + table_off, table_bytes);
      header.header_crc = snapshot::header_crc(header);
      std::memcpy(bytes.data(), &header, sizeof(header));
      break;
    }
    default:
      return not_applicable(kind, "a snapshot file");
  }
  return spit(path, bytes);
}

Status corrupt_frame(std::vector<std::uint8_t>& frame, CorruptionKind kind,
                     std::uint64_t seed) {
  if (frame.size() < net::kFrameOverhead) {
    return Status::failed_precondition(
        "buffer is too small to be an encoded wire frame");
  }
  net::FrameHeader header;
  std::memcpy(&header, frame.data() + sizeof(std::uint32_t), sizeof(header));
  if (header.magic != net::kWireMagic) {
    return Status::failed_precondition("buffer is not an encoded wire frame");
  }
  const std::size_t payload_off =
      sizeof(std::uint32_t) + sizeof(net::FrameHeader);

  switch (kind) {
    case CorruptionKind::kWireTruncated: {
      // Cut anywhere, from nothing to one byte short: every length must
      // be rejected (by the minimum-size probe, the prefix cross-check,
      // or the CRC — whichever trips first).
      frame.resize(pick(seed, frame.size()));
      break;
    }
    case CorruptionKind::kWireLengthLie: {
      // Shrink (or, for an empty payload, grow) the frame and rewrite
      // the length prefix to match, so the framing layer happily reads a
      // self-consistent frame and only the decoder's payload_len
      // cross-check can spot the lie.  The header itself is untouched.
      std::size_t lied_total;
      if (header.payload_len == 0) {
        frame.insert(frame.end() - sizeof(std::uint32_t),
                     {0x5e, 0xed, 0xb0, 0x0b});
        lied_total = frame.size();
      } else {
        const std::size_t cut =
            1 + pick(seed, header.payload_len);  // 1 .. payload_len
        lied_total = frame.size() - cut;
        std::memmove(frame.data() + lied_total - sizeof(std::uint32_t),
                     frame.data() + frame.size() - sizeof(std::uint32_t),
                     sizeof(std::uint32_t));  // keep a trailer in place
        frame.resize(lied_total);
      }
      const auto prefix =
          static_cast<std::uint32_t>(lied_total - sizeof(std::uint32_t));
      std::memcpy(frame.data(), &prefix, sizeof(prefix));
      break;
    }
    case CorruptionKind::kWireBitFlip: {
      if (header.payload_len == 0) {
        return too_small(kind);
      }
      // Strictly inside the payload (not the header, which has its own
      // CRC): only the payload trailer can catch this one.
      const std::size_t bit =
          pick(seed, std::size_t{header.payload_len} * 8);
      frame[payload_off + bit / 8] ^=
          static_cast<std::uint8_t>(1u << (bit % 8));
      break;
    }
    default:
      return not_applicable(kind, "a wire frame");
  }
  return coop::OkStatus();
}

Status corrupt_run(std::vector<std::uint8_t>& run, CorruptionKind kind,
                   std::uint64_t seed) {
  if (run.size() < dyn::kRunOverhead) {
    return Status::failed_precondition(
        "buffer is too small to be an encoded delta run");
  }
  dyn::RunHeader header;
  std::memcpy(&header, run.data(), sizeof(header));
  if (header.magic != dyn::kRunMagic) {
    return Status::failed_precondition("buffer is not an encoded delta run");
  }
  if (run.size() != dyn::run_encoded_size(header.count)) {
    return Status::failed_precondition(
        "encoded delta run size disagrees with its header count");
  }
  const auto entry_off = [](std::uint32_t i) {
    return sizeof(dyn::RunHeader) + std::size_t{i} * dyn::kRunEntryBytes;
  };

  switch (kind) {
    case CorruptionKind::kDeltaTruncatedRun: {
      // Cut anywhere, from nothing to one byte short: every length must
      // be rejected by the size floor, the exact-size cross-check, or
      // the CRC — whichever trips first.
      run.resize(pick(seed, run.size()));
      break;
    }
    case CorruptionKind::kDeltaTombstoneBitFlip: {
      if (header.count == 0) {
        return too_small(kind);
      }
      // Flip one bit of one entry's op byte, CRC left stale: the
      // decoder's CRC trailer has to catch it before the op validator
      // ever sees the (now possibly still-plausible) value.
      const auto i =
          static_cast<std::uint32_t>(pick(seed, header.count));
      const std::size_t bit = pick(seed ^ 0x7001u, 8);
      run[entry_off(i) + 8] ^= static_cast<std::uint8_t>(1u << bit);
      break;
    }
    case CorruptionKind::kDeltaRunKeyDisorder: {
      if (header.count < 2) {
        return too_small(kind);
      }
      // Swap two adjacent keys (ops stay put) and re-forge the CRC so
      // the blob is checksum-clean: only validate_run's strict key
      // ordering check can reject it.
      const auto i =
          static_cast<std::uint32_t>(pick(seed, header.count - 1));
      std::uint8_t tmp[8];
      std::memcpy(tmp, run.data() + entry_off(i), 8);
      std::memcpy(run.data() + entry_off(i),
                  run.data() + entry_off(i + 1), 8);
      std::memcpy(run.data() + entry_off(i + 1), tmp, 8);
      const std::uint32_t crc = snapshot::crc32(
          run.data(), run.size() - sizeof(std::uint32_t));
      std::memcpy(run.data() + run.size() - sizeof(std::uint32_t), &crc,
                  sizeof(crc));
      break;
    }
    default:
      return not_applicable(kind, "a delta run");
  }
  return coop::OkStatus();
}

Status corrupt_wal_file(const std::string& path, CorruptionKind kind,
                        std::uint64_t seed) {
  std::vector<unsigned char> bytes;
  if (Status s = slurp(path, bytes); !s.ok()) {
    return s;
  }
  // Index the records (the segment must be structurally valid — the
  // harness aims faults, it does not guess at layout).
  struct Rec {
    std::size_t off;          ///< of the WalRecordHeader
    std::size_t payload_off;  ///< of the encode_run blob
    std::uint32_t payload_len;
  };
  std::vector<Rec> recs;
  std::size_t off = 0;
  while (off < bytes.size()) {
    if (bytes.size() - off < sizeof(dyn::WalRecordHeader)) {
      return Status::failed_precondition(
          path + " ends mid-header: not a clean WAL segment");
    }
    dyn::WalRecordHeader h;
    std::memcpy(&h, bytes.data() + off, sizeof(h));
    if (h.magic != dyn::kWalRecordMagic ||
        h.header_crc != dyn::wal_header_crc(h)) {
      return Status::failed_precondition(
          path + " is not a clean WAL segment (bad record at offset " +
          std::to_string(off) + ")");
    }
    if (bytes.size() - off - sizeof(h) < h.payload_len) {
      return Status::failed_precondition(
          path + " ends mid-payload: not a clean WAL segment");
    }
    recs.push_back({off, off + sizeof(h), h.payload_len});
    off += sizeof(h) + h.payload_len;
  }

  switch (kind) {
    case CorruptionKind::kWalTornTail: {
      if (recs.empty()) {
        return too_small(kind);
      }
      // Cut strictly inside the final record — anywhere from one byte in
      // to one byte short (never at a record boundary, which would be a
      // clean shorter log) — so recovery must truncate at exactly the
      // last complete record and replay everything before the tear.
      const Rec& last = recs.back();
      const std::size_t rec_bytes =
          sizeof(dyn::WalRecordHeader) + last.payload_len;
      bytes.resize(last.off + 1 + pick(seed, rec_bytes - 1));
      break;
    }
    case CorruptionKind::kWalRecordBitFlip: {
      if (recs.size() < 2) {
        return too_small(kind);  // the final record would read as a tear
      }
      // Flip one payload bit of a non-final record, CRCs left stale:
      // with intact records after it, this is mid-log damage and
      // recovery must reject the whole segment typed — truncating here
      // would silently drop the (possibly acked) records behind it.
      const Rec& r = recs[pick(seed, recs.size() - 1)];
      const std::size_t bit =
          pick(seed ^ 0x3a1f1u, std::size_t{r.payload_len} * 8);
      bytes[r.payload_off + bit / 8] ^=
          static_cast<unsigned char>(1u << (bit % 8));
      break;
    }
    case CorruptionKind::kWalSeqRegression: {
      if (recs.size() < 2) {
        return too_small(kind);
      }
      // Restamp one record's run so its seq range regresses onto its
      // predecessor's, keeping span == count, and re-forge the run's
      // trailer CRC plus both WAL CRCs: the segment is checksum-clean
      // end to end, and only replay's contiguity check can refuse it.
      const std::size_t i = 1 + pick(seed, recs.size() - 1);
      dyn::RunHeader prev;
      std::memcpy(&prev, bytes.data() + recs[i - 1].payload_off,
                  sizeof(prev));
      dyn::RunHeader victim;
      std::memcpy(&victim, bytes.data() + recs[i].payload_off,
                  sizeof(victim));
      victim.min_seq = prev.min_seq;
      victim.max_seq = prev.min_seq + victim.count - 1;
      unsigned char* payload = bytes.data() + recs[i].payload_off;
      std::memcpy(payload, &victim, sizeof(victim));
      const std::uint32_t run_crc = snapshot::crc32(
          payload, std::size_t{recs[i].payload_len} - sizeof(std::uint32_t));
      std::memcpy(payload + recs[i].payload_len - sizeof(std::uint32_t),
                  &run_crc, sizeof(run_crc));
      dyn::WalRecordHeader h;
      std::memcpy(&h, bytes.data() + recs[i].off, sizeof(h));
      h.payload_crc = snapshot::crc32(payload, recs[i].payload_len);
      h.header_crc = dyn::wal_header_crc(h);
      std::memcpy(bytes.data() + recs[i].off, &h, sizeof(h));
      break;
    }
    default:
      return not_applicable(kind, "a WAL segment");
  }
  return spit(path, bytes);
}

}  // namespace robust
