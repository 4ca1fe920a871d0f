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

/// Per-node metadata of the flat arena: offsets into the SoA pools plus
/// the flattened topology.  24 bytes, so two-to-a-cache-line-pair; kept
/// deliberately small because the hot loop touches one FlatNode per path
/// node.
struct FlatNode {
  std::uint32_t key_off = 0;     ///< start of keys/proper slices
  std::uint32_t key_count = 0;   ///< augmented size (incl. +inf terminal)
  std::uint32_t bridge_off = 0;  ///< start of bridge rows (key_count each)
  std::uint32_t child_off = 0;   ///< start of child-index slice
  std::int32_t parent = -1;      ///< parent node index, -1 at the root
  std::uint16_t num_children = 0;
  std::uint16_t slot = 0;        ///< child slot in the parent (0 at root)
};
static_assert(sizeof(FlatNode) == 24);

/// The serving-layer compilation of an fc::Structure: every augmented
/// catalog's keys / proper / bridge columns packed into three contiguous
/// SoA pools (one 64-byte-aligned allocation each, `uint32` offsets), the
/// tree topology flattened to index arrays, so a whole cascaded-path query
/// runs on five base pointers with no per-node vector hops.  A path
/// query binary-searches its first catalog (the root) and reaches every
/// later one by a bridge hop plus a walk-back of at most fanout_bound()
/// entries, so each node keeps just its sorted slice.  Immutable after
/// compile(); safe to share across query threads.
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

  /// aug_find: index of the smallest augmented key >= y at node v, by a
  /// branch-free binary search of the node's sorted key slice — the
  /// paper's Step 1 search at p = 1 (DESIGN.md §12).  Always in
  /// [0, key_count): the +inf terminal guarantees a hit.
  [[nodiscard]] std::uint32_t find(std::uint32_t v, Key y) const {
    const FlatNode& nd = nodes_[v];
    return find_sorted(keys_.data() + nd.key_off, nd.key_count, y);
  }

  /// Rank of the first of the n ascending keys at k that is >= y (n > 0
  /// and k[n-1] >= y, as every flat catalog's +inf terminal ensures).
  [[nodiscard]] static std::uint32_t find_sorted(const Key* k,
                                                 std::uint32_t n, Key y) {
    const Key* base = k;
    while (n > 1) {
      const std::uint32_t half = n / 2;
      base += (base[half] < y) ? half : 0;
      n -= half;
    }
    return static_cast<std::uint32_t>(base - k) + (*base < y ? 1 : 0);
  }

  /// Move from entry i at v (== find(v, y)) to find(child, y): one bridge
  /// load, then a walk-back of at most fanout_bound() entries.  Prefetches
  /// the child's key block around the landing position before the
  /// dependent walk-back reads it.
  [[nodiscard]] std::uint32_t follow_bridge(std::uint32_t v, std::uint32_t i,
                                            std::uint32_t slot, Key y) const {
    const FlatNode& nd = nodes_[v];
    const std::uint32_t w = child_[nd.child_off + slot];
    const FlatNode& cn = nodes_[w];
    const Key* wk = keys_.data() + cn.key_off;
    std::uint32_t pos = bridge_[nd.bridge_off +
                                static_cast<std::size_t>(slot) * nd.key_count +
                                i];
    __builtin_prefetch(wk + (pos > b_ ? pos - b_ : 0));
    while (pos > 0 && wk[pos - 1] >= y) {
      --pos;
    }
    return pos;
  }

  /// Original-catalog index of find(y, v), valid when i == find(v, y).
  [[nodiscard]] std::uint32_t to_proper(std::uint32_t v,
                                        std::uint32_t i) const {
    return proper_[nodes_[v].key_off + i];
  }

  // follow_bridge, split into phases for lockstep batch kernels
  // (search_paths_grouped): the phases of a whole query group run
  // back-to-back, so each phase's cache misses overlap across the group
  // instead of serializing along one query's dependency chain.

  /// Address of the bridge cell follow_bridge(v, i, slot, .) loads first —
  /// exposed so a batch kernel can prefetch it one phase ahead.
  [[nodiscard]] const std::uint32_t* bridge_cell(std::uint32_t v,
                                                 std::uint32_t i,
                                                 std::uint32_t slot) const {
    const FlatNode& nd = nodes_[v];
    return bridge_.data() + nd.bridge_off +
           static_cast<std::size_t>(slot) * nd.key_count + i;
  }
  /// Key / proper addresses at node w around a bridge landing position
  /// (prefetch aids; the walk-back moves at most fanout_bound() entries).
  [[nodiscard]] const Key* key_ptr(std::uint32_t w, std::uint32_t pos) const {
    return keys_.data() + nodes_[w].key_off + pos;
  }
  [[nodiscard]] const std::uint32_t* proper_ptr(std::uint32_t w,
                                                std::uint32_t pos) const {
    return proper_.data() + nodes_[w].key_off + pos;
  }
  /// Walk-back half of follow_bridge: refine landing `pos` to find(w, y).
  [[nodiscard]] std::uint32_t walk_back(std::uint32_t w, std::uint32_t pos,
                                        Key y) const {
    const Key* wk = keys_.data() + nodes_[w].key_off;
    while (pos > 0 && wk[pos - 1] >= y) {
      --pos;
    }
    return pos;
  }

  /// Explicit-path query: one find() at path[0], one bridge hop per
  /// subsequent node.  Writes find results for all path nodes into
  /// out_aug/out_proper (each path.size() long; either may be null).  The
  /// path must be a valid parent-to-child chain starting at the root —
  /// callers serving untrusted paths go through validate_path() first.
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

  /// Raw const pointers into the pools for the lockstep batch kernels in
  /// query_engine.cpp: the grouped kernel keeps its whole per-group state
  /// in registers/L1 and indexes these bases directly instead of paying a
  /// member-function round trip per phase per query.  Read-only; valid as
  /// long as the cascade lives (pools never reallocate).
  struct KernelView {
    const FlatNode* nodes = nullptr;
    const Key* keys = nullptr;
    const std::uint32_t* proper = nullptr;
    const std::uint32_t* bridge = nullptr;
    const std::uint32_t* child = nullptr;
    std::uint32_t fanout = 0;
  };
  [[nodiscard]] KernelView kernel_view() const {
    return KernelView{nodes_.data(),  keys_.data(),  proper_.data(),
                      bridge_.data(), child_.data(), b_};
  }

  /// Untrusted-path validation: in-range node ids, starts at the root,
  /// consecutive nodes are parent/child.  OK paths are safe for
  /// search_path even with asserts compiled out.
  [[nodiscard]] coop::Status validate_path(std::span<const NodeId> path) const;

  /// Arena footprint in bytes (the five pools; space accounting for
  /// benches).
  [[nodiscard]] std::size_t arena_bytes() const {
    return keys_.allocated_bytes() + proper_.allocated_bytes() +
           bridge_.allocated_bytes() + child_.allocated_bytes() +
           nodes_.allocated_bytes();
  }
  [[nodiscard]] std::size_t total_entries() const { return keys_.size(); }

 private:
  /// The snapshot codec reads the pools verbatim for write() and installs
  /// view pools over a mmap for open() — the only code, besides compile,
  /// that touches the representation (robust::StructureAccess idiom).
  friend struct snapshot::ArenaAccess;

  Pool<FlatNode> nodes_;
  Pool<Key> keys_;            ///< all augmented keys, node-major
  Pool<std::uint32_t> proper_;///< aug index -> original-catalog index
  Pool<std::uint32_t> bridge_;///< bridge rows, node-major then slot-major
  Pool<std::uint32_t> child_; ///< flattened child lists
  std::uint32_t b_ = 0;       ///< fan-out bound (walk-back cap)
};

}  // namespace serve
