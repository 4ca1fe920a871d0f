#include "dyn/delta.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "dyn/run_format.hpp"

namespace dyn {

using coop::Status;

Status validate_run(const Run& run) {
  if (run.min_seq > run.max_seq) {
    return Status::corrupted("delta run seq range inverted: min_seq " +
                             std::to_string(run.min_seq) + " > max_seq " +
                             std::to_string(run.max_seq));
  }
  Key prev = 0;
  bool first = true;
  for (std::size_t i = 0; i < run.entries.size(); ++i) {
    const RunEntry& e = run.entries[i];
    if (e.tombstone != kOpInsert && e.tombstone != kOpDelete) {
      return Status::corrupted("delta run entry " + std::to_string(i) +
                               " has op byte " + std::to_string(e.tombstone) +
                               " (want 0=insert or 1=delete)");
    }
    if (e.key == cat::kInfinity) {
      return Status::corrupted("delta run entry " + std::to_string(i) +
                               " targets the +inf sentinel, which is "
                               "structural and immutable");
    }
    if (!first && e.key <= prev) {
      return Status::corrupted(
          "delta run keys out of order at entry " + std::to_string(i) +
          ": " + std::to_string(e.key) + " <= previous " +
          std::to_string(prev) + " (runs must be strictly increasing)");
    }
    prev = e.key;
    first = false;
  }
  return coop::OkStatus();
}

std::vector<std::uint8_t> encode_run(const Run& run) {
  RunHeader h;
  h.node = run.node;
  h.count = static_cast<std::uint32_t>(run.entries.size());
  h.min_seq = run.min_seq;
  h.max_seq = run.max_seq;
  std::vector<std::uint8_t> out(run_encoded_size(h.count));
  std::memcpy(out.data(), &h, sizeof(h));
  std::uint8_t* p = out.data() + sizeof(h);
  for (const RunEntry& e : run.entries) {
    std::memcpy(p, &e.key, sizeof(e.key));
    p[sizeof(e.key)] = e.tombstone;
    p += kRunEntryBytes;
  }
  const std::uint32_t crc = snapshot::crc32(
      out.data(), out.size() - sizeof(std::uint32_t));
  std::memcpy(p, &crc, sizeof(crc));
  return out;
}

coop::Expected<Run> decode_run(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kRunOverhead) {
    return Status::corrupted(
        "delta run truncated: " + std::to_string(bytes.size()) +
        " bytes < minimum " + std::to_string(kRunOverhead));
  }
  RunHeader h;
  std::memcpy(&h, bytes.data(), sizeof(h));
  if (h.magic != kRunMagic) {
    return Status::corrupted("delta run magic mismatch: got 0x" + [&] {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%08x", h.magic);
      return std::string(buf);
    }());
  }
  if (h.version != kRunVersion) {
    return Status::corrupted("delta run version " + std::to_string(h.version) +
                             " unsupported (want " +
                             std::to_string(kRunVersion) + ")");
  }
  if (h.count > kMaxRunEntries) {
    return Status::corrupted("delta run count " + std::to_string(h.count) +
                             " exceeds limit " +
                             std::to_string(kMaxRunEntries));
  }
  if (bytes.size() != run_encoded_size(h.count)) {
    return Status::corrupted(
        "delta run size mismatch: header promises " + std::to_string(h.count) +
        " entries (" + std::to_string(run_encoded_size(h.count)) +
        " bytes) but buffer holds " + std::to_string(bytes.size()));
  }
  std::uint32_t want_crc = 0;
  std::memcpy(&want_crc, bytes.data() + bytes.size() - sizeof(want_crc),
              sizeof(want_crc));
  const std::uint32_t got_crc =
      snapshot::crc32(bytes.data(), bytes.size() - sizeof(want_crc));
  if (got_crc != want_crc) {
    return Status::corrupted("delta run CRC mismatch: stored 0x" + [&] {
      char buf[32];  // "%08x computed 0x%08x": 28 characters + NUL
      std::snprintf(buf, sizeof(buf), "%08x computed 0x%08x", want_crc,
                    got_crc);
      return std::string(buf);
    }());
  }
  Run run;
  run.node = h.node;
  run.min_seq = h.min_seq;
  run.max_seq = h.max_seq;
  run.entries.resize(h.count);
  const std::uint8_t* p = bytes.data() + sizeof(h);
  for (std::uint32_t i = 0; i < h.count; ++i) {
    std::memcpy(&run.entries[i].key, p, sizeof(Key));
    run.entries[i].tombstone = p[sizeof(Key)];
    p += kRunEntryBytes;
  }
  if (Status st = validate_run(run); !st.ok()) {
    return st;
  }
  return run;
}

std::vector<Run> runs_from_mutations(std::span<const Mutation> muts) {
  // node -> (key -> op), maps give the sorted, last-op-wins view for free.
  std::map<std::uint32_t, std::map<Key, Op>> by_node;
  for (const Mutation& m : muts) {
    by_node[m.node][m.key] = m.op;
  }
  std::vector<Run> runs;
  runs.reserve(by_node.size());
  for (auto& [node, ops] : by_node) {
    Run r;
    r.node = node;
    r.entries.reserve(ops.size());
    for (const auto& [key, op] : ops) {
      r.entries.push_back(
          RunEntry{key, static_cast<std::uint8_t>(op == Op::kDelete)});
    }
    runs.push_back(std::move(r));
  }
  return runs;
}

}  // namespace dyn
