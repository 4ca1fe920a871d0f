#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fc/build.hpp"
#include "robust/status.hpp"
#include "serve/arena.hpp"

namespace snapshot {
struct ArenaAccess;  // snapshot (de)serializer backdoor, see snapshot.hpp
}  // namespace snapshot

namespace serve {

using cat::Key;
using cat::NodeId;

/// One augmented entry of the flat arena, 8 bytes: the key as an offset
/// from its node's base key, and the key's original-catalog (proper)
/// index.  A walk-back reads both from one line range.
struct FlatEntry {
  std::uint32_t key = 0;     ///< key - base (low word); see kTerminalOffset
  std::uint32_t proper = 0;  ///< aug index -> original-catalog index
};
static_assert(sizeof(FlatEntry) == 8);

/// The +inf terminal's offset: above every real key of a narrow node.  A
/// wide node's terminal has this high word too.
inline constexpr std::uint32_t kTerminalOffset = 0xFFFFFFFFu;

/// hi_off of a node whose offsets fit 32 bits.
inline constexpr std::uint32_t kNarrow = 0xFFFFFFFFu;

/// Per-node metadata of the flat arena: the base key, offsets into the
/// pools and the flattened topology.  32 bytes, two to a cache line; kept
/// small because the hot loop touches one FlatNode per path node.
struct FlatNode {
  Key base = 0;                  ///< smallest augmented key (+inf if none)
  std::uint32_t key_off = 0;     ///< start of the entry slice
  std::uint32_t key_count = 0;   ///< augmented size (incl. +inf terminal)
  std::uint32_t bridge_off = 0;  ///< start of bridge rows (key_count each)
  std::uint32_t child_off = 0;   ///< start of child-index slice
  std::int32_t parent = -1;      ///< parent node index, -1 at the root
  std::uint16_t num_children = 0;
  std::uint16_t slot = 0;        ///< child slot in the parent (0 at root)
};
static_assert(sizeof(FlatNode) == 32);

/// Why a query path is not a root-first parent-to-child chain of the
/// cascade, and where: the first failure FlatCascade::validate_path
/// finds, and what the batch kernel reports for the first bad query of a
/// batch.  status() is the refusal both give.
struct PathFault {
  enum class Kind : std::uint8_t {
    kNone = 0,     ///< the path is valid
    kEmpty,        ///< no nodes
    kNotRoot,      ///< path[0] is not the root
    kOutOfRange,   ///< path[pos] is not a node id
    kBrokenChain,  ///< path[pos] is not a child of path[pos - 1]
  };
  Kind kind = Kind::kNone;
  std::uint32_t pos = 0;  ///< position in the path
  std::size_t query = 0;  ///< query in its batch (batch kernels only)

  explicit operator bool() const { return kind != Kind::kNone; }
  /// The typed refusal: kInvalidArgument with validate_path's message.
  [[nodiscard]] coop::Status status() const;
};

/// The serving-layer compilation of an fc::Structure: every augmented
/// catalog packed into one pool of 8-byte entries (key offset from the
/// node's base key, proper index), the bridge rows and child lists into
/// two more, each one 64-byte-aligned allocation with `uint32` offsets,
/// and the tree topology flattened to index arrays, so a whole
/// cascaded-path query runs on a few base pointers with no per-node
/// vector hops.  A path query binary-searches its first catalog (the
/// root) and reaches every later one by a bridge hop plus a walk-back of
/// at most fanout_bound() entries, so each node keeps just its sorted
/// slice.  Immutable after compile(); safe to share across query threads.
///
/// Key offsets are 32 bits.  A node whose real keys span 2^32 - 1 or more
/// is "wide": it keeps the high words of its offsets in a side pool
/// (hi_off_ gives its first one), which only such nodes read, so any
/// int64 catalog compiles and answers alike (DESIGN.md §7).
///
/// Answers are defined by the sequential oracles: for every valid path and
/// key, search() returns exactly the aug/proper indices of
/// fc::search_explicit on the source structure (tested differentially).
/// PRAM step-count claims stay on the simulator — the arena measures
/// seconds, not steps (DESIGN.md §7).
class FlatCascade {
 public:
  /// An empty cascade (0 nodes); assign from compile() before querying.
  FlatCascade() = default;

  /// Compile `s` into the arena.  `s` is validated structurally first
  /// (sorted keys, +inf terminals, exact-successor bridges, proper-map
  /// correctness, topology arity) so a corrupted structure — e.g. one
  /// mutated by robust::corrupt — is rejected with a Status instead of
  /// being baked into an arena that would read out of bounds.  The source
  /// structure is not referenced after compile() returns.
  [[nodiscard]] static coop::Expected<FlatCascade> compile(
      const fc::Structure& s);
  /// The checked build of `t`'s cascade (fc::Structure::build_checked),
  /// compiled: the chain every tree-to-arena path takes.
  [[nodiscard]] static coop::Expected<FlatCascade> compile_tree(
      const cat::Tree& t);

  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }
  [[nodiscard]] std::uint32_t fanout_bound() const { return b_; }
  [[nodiscard]] const FlatNode& node(std::uint32_t v) const {
    return nodes_[v];
  }
  [[nodiscard]] std::uint32_t root() const { return 0; }
  [[nodiscard]] bool is_leaf(std::uint32_t v) const {
    return nodes_[v].num_children == 0;
  }
  [[nodiscard]] std::uint32_t child(std::uint32_t v,
                                    std::uint32_t slot) const {
    return child_[nodes_[v].child_off + slot];
  }
  /// True when node v keeps high words (its keys span 2^32 - 1 or more).
  [[nodiscard]] bool is_wide(std::uint32_t v) const {
    return kernel_view().high_words(v) != nullptr;
  }

  // ---- The entry layout.  Static so the snapshot codec and the tests
  // pack and search exactly as compile() and the kernels do.

  /// Whether the n ascending keys at k (the last the +inf terminal) span
  /// too much for 32-bit offsets from k[0].
  [[nodiscard]] static bool needs_high_words(const Key* k, std::uint32_t n) {
    return n >= 2 && static_cast<std::uint64_t>(k[n - 2]) -
                             static_cast<std::uint64_t>(k[0]) >=
                         kTerminalOffset;
  }
  /// Write the n keys at k as offsets from k[0] into out[i].key, and their
  /// high words into hi[i] when hi is non-null (a wide node).  Leaves
  /// out[i].proper alone.
  static void pack_keys(const Key* k, std::uint32_t n, FlatEntry* out,
                        std::uint32_t* hi) {
    for (std::uint32_t i = 0; i + 1 < n; ++i) {
      const std::uint64_t off = static_cast<std::uint64_t>(k[i]) -
                                static_cast<std::uint64_t>(k[0]);
      out[i].key = static_cast<std::uint32_t>(off);
      if (hi != nullptr) {
        hi[i] = static_cast<std::uint32_t>(off >> 32);
      }
    }
    out[n - 1].key = kTerminalOffset;
    if (hi != nullptr) {
      hi[n - 1] = kTerminalOffset;
    }
  }
  /// y as an offset from a node's base: 0 at or below it, computed in
  /// uint64 so it cannot overflow, and for a narrow node (hi null)
  /// saturated at the terminal's offset.  Then "key >= y" is
  /// "entry offset >= query offset" for every entry of the node.
  [[nodiscard]] static std::uint64_t query_offset(Key y, Key base,
                                                  const std::uint32_t* hi) {
    const std::uint64_t off = y <= base ? 0
                                        : static_cast<std::uint64_t>(y) -
                                              static_cast<std::uint64_t>(base);
    return hi != nullptr || off < kTerminalOffset ? off : kTerminalOffset;
  }
  /// Entry i's offset, with its high word for a wide node.
  [[nodiscard]] static std::uint64_t entry_offset(const FlatEntry* e,
                                                  const std::uint32_t* hi,
                                                  std::uint32_t i) {
    return hi == nullptr ? e[i].key
                         : (std::uint64_t{hi[i]} << 32) | e[i].key;
  }

  /// Rank of the first of the n entries at e whose offset is >= y, a
  /// query_offset (n > 0; the terminal ensures a hit).  Branch-free
  /// halving search; a narrow node (hi null) never reads a high word.
  [[nodiscard]] static std::uint32_t find_sorted(const FlatEntry* e,
                                                 const std::uint32_t* hi,
                                                 std::uint32_t n,
                                                 std::uint64_t y) {
    std::uint32_t base = 0;
    while (n > 1) {
      const std::uint32_t half = n / 2;
      base += (entry_offset(e, hi, base + half) < y) ? half : 0;
      n -= half;
    }
    return base + (entry_offset(e, hi, base) < y ? 1 : 0);
  }
  /// Walk left from a bridge landing `pos` to the first entry >= y.  The
  /// test for a wide node is made once, not per entry.
  [[nodiscard]] static std::uint32_t walk_back(const FlatEntry* e,
                                               const std::uint32_t* hi,
                                               std::uint32_t pos,
                                               std::uint64_t y) {
    if (hi == nullptr) {
      while (pos > 0 && e[pos - 1].key >= y) {
        --pos;
      }
      return pos;
    }
    while (pos > 0 && entry_offset(e, hi, pos - 1) >= y) {
      --pos;
    }
    return pos;
  }

  /// aug_find: index of the smallest augmented key >= y at node v, by a
  /// branch-free binary search of the node's sorted entry slice — the
  /// paper's Step 1 search at p = 1 (DESIGN.md §12).  Always in
  /// [0, key_count): the +inf terminal guarantees a hit.
  [[nodiscard]] std::uint32_t find(std::uint32_t v, Key y) const {
    const FlatNode& nd = nodes_[v];
    const std::uint32_t* hi = kernel_view().high_words(v);
    return find_sorted(entries_.data() + nd.key_off, hi, nd.key_count,
                       query_offset(y, nd.base, hi));
  }

  /// Move from entry i at v (== find(v, y)) to find(child, y): one bridge
  /// load, then a walk-back of at most fanout_bound() entries.  Prefetches
  /// the child's entry block around the landing position before the
  /// dependent walk-back reads it.
  [[nodiscard]] std::uint32_t follow_bridge(std::uint32_t v, std::uint32_t i,
                                            std::uint32_t slot, Key y) const {
    const FlatNode& nd = nodes_[v];
    const std::uint32_t w = child_[nd.child_off + slot];
    const FlatNode& cn = nodes_[w];
    const FlatEntry* we = entries_.data() + cn.key_off;
    const std::uint32_t* hi = kernel_view().high_words(w);
    const std::uint32_t pos =
        bridge_[nd.bridge_off + static_cast<std::size_t>(slot) * nd.key_count +
                i];
    __builtin_prefetch(we + (pos > b_ ? pos - b_ : 0));
    return walk_back(we, hi, pos, query_offset(y, cn.base, hi));
  }

  /// Original-catalog index of find(y, v), valid when i == find(v, y).
  [[nodiscard]] std::uint32_t to_proper(std::uint32_t v,
                                        std::uint32_t i) const {
    return entries_[nodes_[v].key_off + i].proper;
  }

  /// The augmented key at entry i of node v (kInfinity for the terminal).
  [[nodiscard]] Key key(std::uint32_t v, std::uint32_t i) const {
    const FlatNode& nd = nodes_[v];
    if (i + 1 == nd.key_count) {
      return cat::kInfinity;
    }
    return static_cast<Key>(
        static_cast<std::uint64_t>(nd.base) +
        entry_offset(entries_.data() + nd.key_off,
                     kernel_view().high_words(v), i));
  }

  /// Explicit-path query: one find() at path[0], one bridge hop per
  /// subsequent node.  Writes find results for all path nodes into
  /// out_aug/out_proper (each path.size() long; either may be null).  The
  /// path must be a valid parent-to-child chain starting at the root —
  /// untrusted paths go through the batch kernel (search_paths_grouped_into),
  /// which checks each node where it loads it.
  void search_path(std::span<const NodeId> path, Key y, std::uint32_t* out_aug,
                   std::uint32_t* out_proper) const {
    std::uint32_t v = static_cast<std::uint32_t>(path[0]);
    std::uint32_t i = find(v, y);
    if (out_aug != nullptr) {
      out_aug[0] = i;
    }
    if (out_proper != nullptr) {
      out_proper[0] = to_proper(v, i);
    }
    for (std::size_t step = 1; step < path.size(); ++step) {
      const std::uint32_t w = static_cast<std::uint32_t>(path[step]);
      // The next hop's dependent loads are w's FlatNode and bridge row;
      // warm the metadata line while this hop's walk-back retires.
      __builtin_prefetch(&nodes_[w]);
      i = follow_bridge(v, i, nodes_[w].slot, y);
      v = w;
      if (out_aug != nullptr) {
        out_aug[step] = i;
      }
      if (out_proper != nullptr) {
        out_proper[step] = to_proper(v, i);
      }
    }
  }

  /// Allocation-friendly result for tests / the CLI (the batch engine uses
  /// search_path into caller-owned buffers instead).
  struct PathResult {
    std::vector<std::uint32_t> aug_index;
    std::vector<std::uint32_t> proper_index;
  };
  [[nodiscard]] PathResult search(std::span<const NodeId> path, Key y) const {
    PathResult r;
    r.aug_index.resize(path.size());
    r.proper_index.resize(path.size());
    search_path(path, y, r.aug_index.data(), r.proper_index.data());
    return r;
  }

  /// Implicit root-to-leaf descent: `branch(v, proper_index)` picks the
  /// child slot at every internal node (same contract as fc::BranchFn).
  /// Returns the leaf reached; out_last_proper (optional) receives the
  /// leaf's proper index.  Used by the flat point locator.
  template <typename BranchFn>
  [[nodiscard]] std::uint32_t walk_implicit(
      Key y, BranchFn&& branch, std::uint32_t* out_last_proper = nullptr) const {
    std::uint32_t v = root();
    std::uint32_t i = find(v, y);
    for (;;) {
      const std::uint32_t prop = to_proper(v, i);
      if (is_leaf(v)) {
        if (out_last_proper != nullptr) {
          *out_last_proper = prop;
        }
        return v;
      }
      const std::uint32_t slot = branch(v, prop);
      const std::uint32_t w = child(v, slot);
      __builtin_prefetch(&nodes_[w]);
      i = follow_bridge(v, i, slot, y);
      v = w;
    }
  }

  /// Raw const pointers into the pools for the window kernel in
  /// query_engine.cpp: it keeps every in-flight query's state in a small
  /// array and indexes these bases directly instead of paying a
  /// member-function round trip per step.  Read-only; valid as long as
  /// the cascade lives (pools never reallocate).
  struct KernelView {
    const FlatNode* nodes = nullptr;
    const FlatEntry* entries = nullptr;
    const std::uint32_t* bridge = nullptr;
    const std::uint32_t* child = nullptr;
    const std::uint32_t* hi_off = nullptr;  ///< null when no node is wide
    const std::uint32_t* hi = nullptr;
    std::uint32_t fanout = 0;
    std::uint32_t num_nodes = 0;

    /// Node v's high words, indexed like its entries; null when v is
    /// narrow.  A cascade without wide nodes answers without a load.
    [[nodiscard]] const std::uint32_t* high_words(std::uint32_t v) const {
      if (hi_off == nullptr || hi_off[v] == kNarrow) {
        return nullptr;
      }
      return hi + hi_off[v];
    }
  };
  [[nodiscard]] KernelView kernel_view() const {
    return KernelView{nodes_.data(),
                      entries_.data(),
                      bridge_.data(),
                      child_.data(),
                      hi_off_.size() == 0 ? nullptr : hi_off_.data(),
                      hi_.data(),
                      b_,
                      static_cast<std::uint32_t>(nodes_.size())};
  }

  /// Untrusted-path validation: in-range node ids, starts at the root,
  /// consecutive nodes are parent/child.  OK paths are safe for
  /// search_path even with asserts compiled out.  The batch kernel makes
  /// the same checks as it walks and refuses with the same Status; this
  /// per-path form is the tests' reference for it.
  [[nodiscard]] coop::Status validate_path(std::span<const NodeId> path) const;

  /// Arena footprint in bytes (every pool; space accounting for benches).
  [[nodiscard]] std::size_t arena_bytes() const {
    return entries_.allocated_bytes() + bridge_.allocated_bytes() +
           child_.allocated_bytes() + nodes_.allocated_bytes() +
           hi_off_.allocated_bytes() + hi_.allocated_bytes();
  }
  [[nodiscard]] std::size_t total_entries() const { return entries_.size(); }

 private:
  /// The snapshot codec reads the pools verbatim for write() and installs
  /// view pools over a mmap for open() — the only code, besides compile,
  /// that touches the representation (robust::StructureAccess idiom).
  friend struct snapshot::ArenaAccess;

  /// Set every node's base key and pack the entry and high-word pools
  /// from the node's ascending keys (keys_of(v), ending at +inf) and
  /// proper indices (proper_of(v, i)); nodes_ must hold key_off and
  /// key_count.  compile() and the snapshot codec's conversion of v1/v2
  /// files share it.  Fails when the high words outgrow uint32 offsets.
  template <typename KeysOf, typename ProperOf>
  [[nodiscard]] coop::Status pack_entries(KeysOf keys_of,
                                          ProperOf proper_of) {
    const std::size_t nn = nodes_.size();
    std::size_t total = 0, total_hi = 0;
    for (std::size_t v = 0; v < nn; ++v) {
      total += nodes_[v].key_count;
      if (needs_high_words(keys_of(v), nodes_[v].key_count)) {
        total_hi += nodes_[v].key_count;
      }
    }
    if (total_hi >= kNarrow) {
      return coop::Status::invalid_argument(
          "too many wide-node keys for uint32 arena offsets");
    }
    entries_ = Pool<FlatEntry>(total);
    if (total_hi > 0) {
      hi_off_ = Pool<std::uint32_t>(nn);
      hi_ = Pool<std::uint32_t>(total_hi);
    }
    std::uint32_t hi_at = 0;
    for (std::size_t v = 0; v < nn; ++v) {
      FlatNode& nd = nodes_[v];
      const Key* k = keys_of(v);
      nd.base = k[0];
      std::uint32_t* hi = nullptr;
      if (total_hi > 0) {
        hi_off_[v] = kNarrow;
        if (needs_high_words(k, nd.key_count)) {
          hi_off_[v] = hi_at;
          hi = hi_.data() + hi_at;
          hi_at += nd.key_count;
        }
      }
      FlatEntry* e = entries_.data() + nd.key_off;
      pack_keys(k, nd.key_count, e, hi);
      for (std::uint32_t i = 0; i < nd.key_count; ++i) {
        e[i].proper = proper_of(v, i);
      }
    }
    return coop::OkStatus();
  }

  Pool<FlatNode> nodes_;
  Pool<FlatEntry> entries_;    ///< all augmented entries, node-major
  Pool<std::uint32_t> bridge_; ///< bridge rows, node-major then slot-major
  Pool<std::uint32_t> child_;  ///< flattened child lists
  Pool<std::uint32_t> hi_off_; ///< per node: first high word, or kNarrow;
                               ///< empty when no node is wide
  Pool<std::uint32_t> hi_;     ///< wide nodes' high words, node-major
  std::uint32_t b_ = 0;        ///< fan-out bound (walk-back cap)
};

}  // namespace serve
