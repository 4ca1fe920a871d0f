#pragma once

// The routing map: which shard owns every node of the global catalog
// tree, and how each shard's kept nodes renumber to shard-local ids
// (DESIGN.md §15).  Persisted as a snapshot-format file
// (SnapshotKind::kRoutingMap, sections kRouting*) so it inherits the
// same magic/version/CRC validation ladder as the arenas it routes to,
// and a bit-flipped map is a typed Status instead of misrouted queries.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "robust/status.hpp"

namespace cluster {

/// Shard ownership + per-shard local-id spaces for one partitioned tree.
///
/// Invariants (enforced by validate(), re-checked on load):
///   - owner[v] < num_shards for every global node v;
///   - each shard's kept list (local_to_global[s]) is strictly
///     increasing, starts at the global root (0), and contains node v
///     and all its ancestors whenever owner[v] == s — so the whole
///     root-to-v path of any query routed to owner(v) maps to local ids.
struct RoutingMap {
  std::uint32_t num_shards = 0;
  /// Global node -> owning shard.
  std::vector<std::uint32_t> owner;
  /// Per shard: local id -> global node id, strictly increasing.
  std::vector<std::vector<std::uint32_t>> local_to_global;
  /// Per shard: global node id -> local id, -1 when not kept.  Derived
  /// from local_to_global by build_reverse() (load() does this for you).
  std::vector<std::vector<std::int32_t>> global_to_local;

  [[nodiscard]] std::size_t num_nodes() const { return owner.size(); }

  /// Rebuild global_to_local from local_to_global.
  void build_reverse();

  /// Route one query path of global node ids to owner(path.back()),
  /// rewriting the ids in place to that shard's local ids, and return
  /// the shard.  Refuses (kInvalidArgument) an empty path, a node out of
  /// range, and a node the shard does not keep (a path that does not
  /// descend from the root).
  [[nodiscard]] coop::Expected<std::uint32_t> route(
      std::span<std::uint32_t> path) const;

  /// Check every structural invariant listed above; descriptive Status
  /// on the first violation.  Requires build_reverse() to have run.
  [[nodiscard]] coop::Status validate() const;
};

/// Persist `m` at `path` (atomic tmp + fsync + rename, like snapshots).
[[nodiscard]] coop::Status save_routing_map(const RoutingMap& m,
                                            const std::string& path);

/// Load + fully validate a routing map file: magic, version, endian tag,
/// kind, header/table/payload CRCs, section bounds, cross-checked counts,
/// then RoutingMap::validate().  Every violation is a typed Status.
[[nodiscard]] coop::Expected<RoutingMap> load_routing_map(
    const std::string& path);

}  // namespace cluster
