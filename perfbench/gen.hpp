#pragma once

// Seeded inputs and their expected answers, all generated before any
// clock starts.  The program under test only ever receives the generated
// tree file and the request frames; expected answers come from the
// catalog oracle (Catalog::find over the generated tree), never from the
// program.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "catalog/tree.hpp"
#include "dyn/delta.hpp"
#include "serve/query_engine.hpp"

namespace perfbench {

/// Keys are drawn from [0, kKeyRange) (the generator's default range).
inline constexpr cat::Key kKeyRange = 1'000'000'000;
/// rw_mixed: the writer only inserts and deletes keys in
/// [kWriterKeyLo, kKeyRange); the reader only asks for keys whose answer
/// on every node of its path lies below kWriterKeyLo, so no concurrent
/// write can change a reader answer.
inline constexpr cat::Key kWriterKeyLo = 900'000'000;

/// Independent generator streams derived from the one workload seed.
inline std::mt19937_64 stream(std::uint64_t seed, std::uint64_t which) {
  std::seed_seq seq{static_cast<std::uint32_t>(seed),
                    static_cast<std::uint32_t>(seed >> 32),
                    static_cast<std::uint32_t>(which)};
  return std::mt19937_64(seq);
}

inline cat::Tree make_tree(std::uint32_t height, std::size_t entries,
                           std::uint64_t seed) {
  std::mt19937_64 rng = stream(seed, 1);
  return cat::make_balanced_binary(height, entries, cat::CatalogShape::kRandom,
                                   rng, kKeyRange);
}

/// Tree file in the format robust::load_tree reads.
inline bool write_tree_file(const cat::Tree& t, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "%zu\n", t.num_nodes());
  for (std::size_t v = 0; v < t.num_nodes(); ++v) {
    const cat::Catalog& c = t.catalog(static_cast<cat::NodeId>(v));
    std::fprintf(f, "%d %zu", t.parent(static_cast<cat::NodeId>(v)),
                 c.real_size());
    for (std::size_t i = 0; i < c.real_size(); ++i) {
      std::fprintf(f, " %lld", static_cast<long long>(c.key(i)));
    }
    std::fputc('\n', f);
  }
  return std::fclose(f) == 0;
}

inline std::vector<cat::NodeId> random_root_to_leaf(const cat::Tree& t,
                                                    std::mt19937_64& rng) {
  std::vector<cat::NodeId> path{t.root()};
  while (!t.is_leaf(path.back())) {
    const auto kids = t.children(path.back());
    path.push_back(kids[rng() % kids.size()]);
  }
  return path;
}

/// One request frame's queries plus its expected answers, flattened
/// query-major: proper indices (PATH_BATCH) or live successor keys
/// (DYN_PATH_BATCH), one per path node.
struct Batch {
  std::vector<serve::PathQuery> queries;
  std::vector<std::int64_t> expected;
};

enum class Answer { kProperIndex, kKey };

/// `count` batches of `batch_size` random root-to-leaf queries.  With
/// Answer::kKey only queries whose every answer is below kWriterKeyLo are
/// kept (the rw_mixed reader's writer-proof keys).
inline std::vector<Batch> make_read_batches(const cat::Tree& t,
                                            std::size_t batch_size,
                                            std::size_t count,
                                            std::uint64_t seed,
                                            Answer answer) {
  std::mt19937_64 rng = stream(seed, 2);
  std::vector<Batch> out(count);
  for (Batch& b : out) {
    while (b.queries.size() < batch_size) {
      serve::PathQuery q;
      q.path = random_root_to_leaf(t, rng);
      const cat::Key y_hi = answer == Answer::kKey ? kWriterKeyLo : kKeyRange;
      q.y = static_cast<cat::Key>(rng() % static_cast<std::uint64_t>(y_hi));
      std::vector<std::int64_t> exp;
      bool keep = true;
      for (const cat::NodeId v : q.path) {
        const cat::Catalog& c = t.catalog(v);
        const std::size_t i = c.find(q.y);
        if (answer == Answer::kProperIndex) {
          exp.push_back(static_cast<std::int64_t>(i));
        } else {
          keep = keep && c.key(i) < kWriterKeyLo;
          exp.push_back(c.key(i));
        }
      }
      if (keep) {
        b.queries.push_back(std::move(q));
        b.expected.insert(b.expected.end(), exp.begin(), exp.end());
      }
    }
  }
  return out;
}

/// One paced MUTATE of the rw_mixed writer: the encoded runs, the
/// mutation count, and the read-your-writes probe sent after its ack
/// (one query per distinct mutated (node, key), path root -> node, with
/// the answers every node of that path must give once the batch is
/// acked).
struct WriteBatch {
  std::vector<dyn::Mutation> muts;
  std::vector<std::vector<std::uint8_t>> blobs;
  Batch probe;
};

inline constexpr std::size_t kMutationsPerWrite = 8;

/// The writer's whole schedule, simulated against the base tree's keys
/// at or above kWriterKeyLo so every probe's expected answer is exact.
inline std::vector<WriteBatch> make_write_batches(const cat::Tree& t,
                                                  std::size_t count,
                                                  std::uint64_t seed) {
  std::mt19937_64 rng = stream(seed, 3);
  std::vector<std::set<cat::Key>> live(t.num_nodes());
  for (std::size_t v = 0; v < t.num_nodes(); ++v) {
    const cat::Catalog& c = t.catalog(static_cast<cat::NodeId>(v));
    for (std::size_t i = c.find(kWriterKeyLo); i < c.real_size(); ++i) {
      live[v].insert(c.key(i));
    }
  }
  const auto span = static_cast<std::uint64_t>(kKeyRange - kWriterKeyLo);
  std::vector<WriteBatch> out(count);
  for (WriteBatch& w : out) {
    for (std::size_t m = 0; m < kMutationsPerWrite; ++m) {
      dyn::Mutation mu;
      mu.node = static_cast<std::uint32_t>(rng() % t.num_nodes());
      std::set<cat::Key>& keys = live[mu.node];
      if (rng() % 3 == 0 && !keys.empty()) {
        auto it = keys.begin();
        std::advance(it, static_cast<long>(rng() % keys.size()));
        mu.key = *it;
        mu.op = dyn::Op::kDelete;
      } else {
        mu.key = kWriterKeyLo + static_cast<cat::Key>(rng() % span);
        mu.op = dyn::Op::kInsert;
      }
      w.muts.push_back(mu);
    }
    const std::vector<dyn::Run> runs = dyn::runs_from_mutations(w.muts);
    for (const dyn::Run& r : runs) {
      w.blobs.push_back(dyn::encode_run(r));
      for (const dyn::RunEntry& e : r.entries) {
        if (e.tombstone != 0) {
          live[r.node].erase(e.key);
        } else {
          live[r.node].insert(e.key);
        }
      }
    }
    for (const dyn::Run& r : runs) {
      for (const dyn::RunEntry& e : r.entries) {
        serve::PathQuery q;
        for (cat::NodeId v = static_cast<cat::NodeId>(r.node);
             v != cat::kNullNode; v = t.parent(v)) {
          q.path.insert(q.path.begin(), v);
        }
        q.y = e.key;
        for (const cat::NodeId v : q.path) {
          const auto it = live[static_cast<std::size_t>(v)].lower_bound(q.y);
          w.probe.expected.push_back(
              it == live[static_cast<std::size_t>(v)].end() ? cat::kInfinity
                                                            : *it);
        }
        w.probe.queries.push_back(std::move(q));
      }
    }
  }
  return out;
}

/// Canonical bytes of a request set and its expected answers (the
/// self-test's same-seed, byte-identical check).
inline std::vector<std::uint8_t> serialize(const std::vector<Batch>& batches) {
  std::vector<std::uint8_t> out;
  const auto put = [&out](std::int64_t v) {
    std::uint8_t b[8];
    std::memcpy(b, &v, 8);
    out.insert(out.end(), b, b + 8);
  };
  for (const Batch& b : batches) {
    put(static_cast<std::int64_t>(b.queries.size()));
    for (const serve::PathQuery& q : b.queries) {
      put(q.y);
      put(static_cast<std::int64_t>(q.path.size()));
      for (const cat::NodeId v : q.path) {
        put(v);
      }
    }
    for (const std::int64_t e : b.expected) {
      put(e);
    }
  }
  return out;
}

inline std::vector<std::uint8_t> serialize(
    const std::vector<WriteBatch>& writes) {
  std::vector<std::uint8_t> out;
  std::vector<Batch> probes;
  for (const WriteBatch& w : writes) {
    for (const auto& blob : w.blobs) {
      out.insert(out.end(), blob.begin(), blob.end());
    }
    probes.push_back(w.probe);
  }
  const std::vector<std::uint8_t> p = serialize(probes);
  out.insert(out.end(), p.begin(), p.end());
  return out;
}

}  // namespace perfbench
