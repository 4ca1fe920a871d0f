#pragma once

// Merge-on-read overlay over a published cascade generation (DESIGN.md
// §13): the read/write core of the dynamic-catalog subsystem.
//
// Writes append immutable sorted runs (delta.hpp) to a per-node log; a
// read captures one immutable State (a shared_ptr swap under a short
// mutex) and merges base + runs with newest-wins set semantics.  The
// base generation is pinned through snapshot::Registry for the life of
// the State, so a concurrent compaction publish can never unmap an arena
// a reader still walks.  Invariants:
//
//   * answers are *keys*, not indices: the dynamic answer at a node is
//     the smallest live key >= y in the node's proper set (indices are
//     generation-relative and would shift under every compaction; keys
//     are stable across publishes).  The +inf terminal is always live.
//   * a State is immutable once captured: base pin, ProperIndex, and
//     every Run behind the shared_ptrs never change — reads are
//     wait-free after the capture.
//   * read-your-writes: apply() swaps the new State *before* returning
//     the ack seq, so any state() captured after an ack merges the
//     acknowledged runs.
//   * depth-0 fast path: a node with no runs answers with one
//     ProperIndex lookup seeded by the untouched flat base kernel; the
//     merge machinery costs nothing until the first write.
//   * writes cost O(touched): run lists live in a chunked copy-on-write
//     node table (blocks of kChunkNodes node ids).  An apply copies the
//     chunk-pointer vector and clones each chunk it touches once; every
//     other chunk is shared with the previous State.  Reads find a
//     node's runs with two loads.  A per-depth node count keeps
//     `max_depth` exact without rescanning the table.

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "dyn/delta.hpp"
#include "robust/status.hpp"
#include "serve/flat_cascade.hpp"
#include "snapshot/registry.hpp"

namespace dyn {

class Wal;  // wal.hpp — attached via attach_wal, owned by the catalog

/// Per-generation index of every node's *proper* (original-catalog)
/// keys, reconstructed from the flat arena in one linear scan — the
/// augmented pools carry proper keys implicitly (aug ⊇ proper, and the
/// largest aug key mapping to proper index p is the proper key itself),
/// so no snapshot format change is needed.  Each node's slice is
/// ascending and ends with the +inf sentinel.
class ProperIndex {
 public:
  ProperIndex() = default;
  [[nodiscard]] static ProperIndex build(const serve::FlatCascade& flat);

  [[nodiscard]] std::size_t num_nodes() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  [[nodiscard]] std::span<const Key> node_keys(std::uint32_t v) const {
    return {keys_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

 private:
  std::vector<std::uint32_t> offsets_;  ///< num_nodes + 1
  std::vector<Key> keys_;               ///< node-major proper keys
};

using RunPtr = std::shared_ptr<const Run>;

/// Node ids per block of the copy-on-write run table.
inline constexpr std::uint32_t kChunkNodes = 64;

/// The run lists (oldest run first) of kChunkNodes consecutive node ids.
/// Immutable once a State publishes it; writers clone before changing.
struct RunChunk {
  std::array<std::vector<RunPtr>, kChunkNodes> lists;
};

/// One immutable view of the dynamic catalog: a pinned base generation
/// plus the per-node run lists layered over it.  Captured by readers and
/// by the compactor; writers publish a new State that shares every
/// chunk they did not touch.
struct State {
  /// The pinned base generation, shared across States so swaps don't
  /// re-pin: the registry Pin keeps the arena mapped, the ProperIndex
  /// makes proper keys addressable, `version` names the generation.
  struct Base {
    snapshot::Registry::Pin pin;
    ProperIndex proper;
    std::uint64_t version = 0;
    [[nodiscard]] const serve::FlatCascade& flat() const {
      return pin.snapshot().cascade;
    }
  };

  std::shared_ptr<const Base> base;
  /// The run table: chunks[v / kChunkNodes] holds node v's run list, or
  /// is null when no node of that block has runs.  Chunks are shared
  /// between States; only the ones an apply touches are cloned.
  std::vector<std::shared_ptr<const RunChunk>> chunks;
  /// depth_nodes[d] counts the nodes with exactly d runs (d >= 1).
  std::vector<std::size_t> depth_nodes;
  std::uint64_t write_seq = 0;   ///< seq of the newest applied mutation
  std::uint64_t watermark = 0;   ///< seqs <= watermark are baked into base
  std::size_t pending = 0;       ///< mutations in runs above the watermark
  std::size_t max_depth = 0;     ///< max run-list length over all nodes
  std::size_t touched = 0;       ///< nodes with at least one run

  /// Node v's runs, oldest first; empty when v has none.
  [[nodiscard]] std::span<const RunPtr> node_runs(std::uint32_t v) const {
    const RunChunk* c = chunks[v / kChunkNodes].get();
    if (c == nullptr) {
      return {};
    }
    return c->lists[v % kChunkNodes];
  }

  /// The dynamic answer at `node`: smallest live key >= y under
  /// newest-wins merge of base and runs.  `base_hint` is the base
  /// kernel's proper index for (node, y) — the caller has it for free
  /// from search_paths_grouped_into; pass ~0u to binary-search instead.
  [[nodiscard]] Key live_successor(std::uint32_t node, Key y,
                                   std::uint32_t base_hint = ~0u) const;

  /// All live keys of `node` in ascending order, +inf sentinel excluded
  /// (the compactor's per-node merge; also the test oracle's input).
  [[nodiscard]] std::vector<Key> live_keys(std::uint32_t node) const;
};

using StatePtr = std::shared_ptr<const State>;

/// One dynamic path answer: the live successor key at every path node.
struct PathKeys {
  std::vector<Key> keys;
};

/// One answer of a PathKeySet, by view: the member of PathKeys.
struct PathKeysRef {
  std::span<const Key> keys;
};

/// Dynamic answers for a whole path batch, flat: one key buffer sliced
/// per query by serve::PathSlices, plus the base kernel's scratch for one
/// lockstep group.  Reusable like serve::PathAnswerSet: reset()
/// allocates only when the batch outgrows every earlier one.
class PathKeySet {
 public:
  /// Size the set for `queries` (invalidates previous contents).
  void reset(std::span<const serve::PathRef> queries) {
    keys_.resize(slices_.reset(queries));
  }

  /// Size the set one answer at a time, as serve::PathAnswerSet does:
  /// clear(n), add(len) per answer, then carve().
  void clear(std::size_t n) { slices_.clear(n); }
  void add(std::size_t len) { slices_.push(len); }
  void carve() { keys_.resize(slices_.total()); }

  /// Append one answer with its keys.
  void push_back(const PathKeys& answer) {
    slices_.push(answer.keys.size());
    keys_.insert(keys_.end(), answer.keys.begin(), answer.keys.end());
  }

  [[nodiscard]] std::size_t size() const { return slices_.size(); }
  [[nodiscard]] std::span<const Key> keys(std::size_t q) const {
    return {keys_.data() + slices_.begin(q), slices_.len(q)};
  }
  [[nodiscard]] PathKeysRef operator[](std::size_t q) const {
    return {keys(q)};
  }
  [[nodiscard]] Key* keys_data(std::size_t q) {
    return keys_.data() + slices_.begin(q);
  }

 private:
  friend void search_paths_dyn(const State& state,
                               std::span<const serve::PathRef> queries,
                               PathKeySet& out);

  std::vector<Key> keys_;
  serve::PathSlices slices_;
  std::vector<std::uint32_t> scratch_;  ///< base kernel's answers, one group
};

/// Serve a batch of explicit-path queries against one captured State into
/// `out` (reset to the batch here): runs the untouched grouped base
/// kernel one lockstep group at a time, then a branch-light merge
/// post-pass only on (query, node) pairs whose node actually has runs.
/// Paths must already be validated against the base cascade.
/// Single-threaded building block — engine sharding and the serving
/// discipline live in serve::Frontend::serve_dyn_paths.
void search_paths_dyn(const State& state,
                      std::span<const serve::PathRef> queries,
                      PathKeySet& out);

/// search_paths_dyn over PathQuery: out[q].keys is resized and filled.
void search_paths_dyn(const State& state,
                      std::span<const serve::PathQuery> queries,
                      PathKeys* out);

struct DynamicCatalogOptions {
  /// Per-node run-list length that triggers an in-memory newest-wins
  /// merge of that node's runs into one (bounds overlay depth and keeps
  /// merge-on-read cursor fans small).
  std::size_t merge_threshold = 8;
  /// Mutations accepted per apply() call.
  std::size_t max_batch = 1 << 16;
};

/// The writable dynamic catalog: owns the current State and serializes
/// writers; readers only ever copy the shared_ptr.  Created over a
/// registry that already holds a published kCascade generation.
class DynamicCatalog {
 public:
  using Options = DynamicCatalogOptions;

  [[nodiscard]] static coop::Expected<std::unique_ptr<DynamicCatalog>> attach(
      snapshot::Registry& registry, Options opts = {});
  ~DynamicCatalog();

  /// Apply a mutation batch: validate, group into per-node runs
  /// (last-op-wins within the batch), assign seqs, swap the State.
  /// Returns the ack seq — every state() captured after the return
  /// includes the batch.
  [[nodiscard]] coop::Expected<std::uint64_t> apply(
      std::span<const Mutation> muts);

  /// Apply already-formed runs (the wire path: one decoded+validated run
  /// per node).  Seq fields are reassigned server-side.  With a WAL
  /// attached, the batch is logged *before* the State swap and the ack
  /// is withheld until the policy's durability point (DESIGN.md §14) —
  /// an error return after the swap means durability is indeterminate
  /// and the batch must not be acknowledged to the client.
  [[nodiscard]] coop::Expected<std::uint64_t> apply_runs(
      std::vector<Run> runs);

  /// Hand the catalog its write-ahead log.  Every subsequent apply goes
  /// through it; install_compacted commits the manifest through it.
  /// Call once, before serving writes (recovery.hpp orchestrates).
  void attach_wal(std::unique_ptr<Wal> wal);
  [[nodiscard]] Wal* wal() const { return wal_.get(); }

  /// Durable-boot rendezvous: fast-forward a *virgin* catalog (no writes
  /// applied yet) to the manifest watermark, so replayed runs stamp from
  /// the same seqs they carried when first acked.  kFailedPrecondition
  /// if anything has already been applied.
  [[nodiscard]] coop::Status restore_durable(std::uint64_t watermark);

  /// Replay already-stamped runs recovered from the WAL: validates that
  /// the stamps continue exactly from write_seq (typed kCorrupted on any
  /// gap, duplicate, or regression — a seq forgery must not reach the
  /// overlay), preserves them, applies all runs in one State swap, and
  /// does NOT append to the WAL (the records are already on disk).
  [[nodiscard]] coop::Expected<std::uint64_t> apply_recovered(
      std::vector<Run> runs);

  /// Capture the current immutable State (wait-free reads afterwards).
  [[nodiscard]] StatePtr state() const;

  /// Compactor rendezvous: publish `snap` (the rebuild of everything up
  /// to `watermark`) into the registry, re-pin it as the new base, drop
  /// runs wholly at or below the watermark, swap — all atomically with
  /// respect to writers, so no acknowledged write is ever lost across
  /// the swap.  Returns the published version.  A watermark at or
  /// behind the already-baked one is refused (kFailedPrecondition):
  /// installing a stale rebuild over a newer base would drop writes the
  /// winning compaction already truncated out of the overlay.
  ///
  /// With a WAL attached, `base_file` must name the spooled snapshot
  /// (bare filename inside the WAL directory, from Wal::base_path_for)
  /// and the manifest advances to {base_file, watermark} after the swap,
  /// retiring dead segments.  A kUnavailable return with message
  /// "manifest commit failed" means serving already switched to the new
  /// base but recovery would still replay from the old manifest — safe
  /// (replay is idempotent), and a later compaction retries the commit.
  [[nodiscard]] coop::Expected<std::uint64_t> install_compacted(
      snapshot::Snapshot snap, std::uint64_t watermark,
      const std::string& base_file = {});

  struct Stats {
    std::uint64_t write_seq = 0;
    std::uint64_t watermark = 0;
    std::uint64_t base_version = 0;
    std::size_t pending = 0;
    std::size_t max_depth = 0;
    std::size_t nodes_with_runs = 0;
    std::uint64_t applied_total = 0;
    std::uint64_t merges_total = 0;
    std::uint64_t compactions_total = 0;
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] snapshot::Registry& registry() { return *registry_; }
  [[nodiscard]] const Options& options() const { return opts_; }

 private:
  DynamicCatalog(snapshot::Registry& registry, Options opts);

  /// Shared tail of apply_runs / apply_recovered: runs are stamped and
  /// validated, mu_ is held; layers them in, updates bookkeeping, swaps.
  /// Returns the new write_seq.
  std::uint64_t commit_runs_locked(std::vector<Run>&& runs);

  snapshot::Registry* registry_;
  Options opts_;
  std::unique_ptr<Wal> wal_;  ///< null until attach_wal
  mutable std::mutex mu_;  ///< guards state_ swap; serializes writers
  StatePtr state_;
  std::uint64_t applied_total_ = 0;      ///< guarded by mu_
  std::uint64_t merges_total_ = 0;       ///< guarded by mu_
  std::uint64_t compactions_total_ = 0;  ///< guarded by mu_
};

}  // namespace dyn
