#include "serve/flat_cascade.hpp"

#include <limits>
#include <string>

namespace serve {

namespace {

using coop::Status;

std::string at_node(std::size_t v) {
  return " at node " + std::to_string(v);
}

}  // namespace

coop::Expected<FlatCascade> FlatCascade::compile_tree(const cat::Tree& t) {
  const auto s = fc::Structure::build_checked(t);
  if (!s.ok()) {
    return s.status();
  }
  return compile(*s);
}

coop::Expected<FlatCascade> FlatCascade::compile(const fc::Structure& s) {
  const cat::Tree& t = s.tree();
  const std::size_t nn = t.num_nodes();
  if (nn == 0) {
    return Status::invalid_argument("cannot compile an empty structure");
  }

  // Pass 1: size the pools and validate everything the arena layout (and
  // the assert-free hot loop) will rely on.  A structure that fails here —
  // e.g. one mutated by robust::corrupt — must never reach pass 2.
  std::size_t total_keys = 0, total_bridge = 0, total_child = 0;
  for (std::size_t vi = 0; vi < nn; ++vi) {
    const NodeId v = static_cast<NodeId>(vi);
    const fc::AugCatalog& a = s.aug(v);
    const cat::Catalog& own = t.catalog(v);
    if (a.keys.empty() || a.keys.back() != cat::kInfinity) {
      return Status::corrupted("augmented catalog missing +inf terminal" +
                               at_node(vi));
    }
    for (std::size_t i = 1; i < a.keys.size(); ++i) {
      if (a.keys[i - 1] >= a.keys[i]) {
        return Status::corrupted("augmented keys not strictly increasing" +
                                 at_node(vi));
      }
    }
    if (!own.valid()) {
      return Status::corrupted("original catalog invalid" + at_node(vi));
    }
    if (a.proper.size() != a.keys.size()) {
      return Status::corrupted("proper[] size mismatch" + at_node(vi));
    }
    // proper[i] must be the exact original-catalog successor position;
    // one merge walk checks all entries in O(|aug| + |catalog|).
    std::size_t j = 0;
    for (std::size_t i = 0; i < a.keys.size(); ++i) {
      while (own.key(j) < a.keys[i]) {
        ++j;  // terminates: both sequences end at +infinity
      }
      if (a.proper[i] < 0 ||
          static_cast<std::size_t>(a.proper[i]) != j) {
        return Status::corrupted("proper[] is not the original successor" +
                                 at_node(vi));
      }
    }
    const auto kids = t.children(v);
    if (a.num_children != kids.size() ||
        kids.size() > std::numeric_limits<std::uint16_t>::max()) {
      return Status::corrupted("child arity mismatch" + at_node(vi));
    }
    if (a.bridge.size() != a.keys.size() * kids.size()) {
      return Status::corrupted("bridge array size mismatch" + at_node(vi));
    }
    for (std::uint32_t e = 0; e < kids.size(); ++e) {
      const fc::AugCatalog& kid = s.aug(kids[e]);
      std::size_t pos = 0;
      for (std::size_t i = 0; i < a.keys.size(); ++i) {
        const std::int32_t br = a.bridge_at(e, i);
        if (br < 0 || static_cast<std::size_t>(br) >= kid.keys.size()) {
          return Status::corrupted("bridge out of range" + at_node(vi));
        }
        // Recompute the exact successor position; any deviation (crossing,
        // off-by-one, corrupted cell) breaks the walk-back bound the flat
        // query loop depends on.
        while (pos < kid.keys.size() && kid.keys[pos] < a.keys[i]) {
          ++pos;
        }
        if (static_cast<std::size_t>(br) != pos) {
          return Status::corrupted("bridge is not the exact successor" +
                                   at_node(vi));
        }
      }
    }
    total_keys += a.keys.size();
    total_bridge += a.bridge.size();
    total_child += kids.size();
  }
  constexpr std::size_t kMax = std::numeric_limits<std::uint32_t>::max();
  if (total_keys > kMax || total_bridge > kMax || total_child > kMax ||
      nn > kMax) {
    return Status::invalid_argument(
        "structure too large for uint32 arena offsets");
  }

  // Pass 2: pack.  Node order is node-id order (BFS-ish for the
  // generators), entries/bridge node-major so one node's hot data is
  // contiguous.
  FlatCascade f;
  f.b_ = s.fanout_bound();
  f.nodes_ = Pool<FlatNode>(nn);
  f.bridge_ = Pool<std::uint32_t>(total_bridge);
  f.child_ = Pool<std::uint32_t>(total_child);
  std::uint32_t key_off = 0, bridge_off = 0, child_off = 0;
  for (std::size_t vi = 0; vi < nn; ++vi) {
    const NodeId v = static_cast<NodeId>(vi);
    const fc::AugCatalog& a = s.aug(v);
    const auto kids = t.children(v);
    FlatNode& nd = f.nodes_[vi];
    nd.key_off = key_off;
    nd.key_count = static_cast<std::uint32_t>(a.keys.size());
    nd.bridge_off = bridge_off;
    nd.child_off = child_off;
    nd.parent = t.parent(v);
    nd.num_children = static_cast<std::uint16_t>(kids.size());
    nd.slot = v == t.root()
                  ? 0
                  : static_cast<std::uint16_t>(t.child_slot(v));
    for (std::size_t i = 0; i < a.bridge.size(); ++i) {
      f.bridge_[bridge_off + i] = static_cast<std::uint32_t>(a.bridge[i]);
    }
    for (std::size_t e = 0; e < kids.size(); ++e) {
      f.child_[child_off + e] = static_cast<std::uint32_t>(kids[e]);
    }
    key_off += nd.key_count;
    bridge_off += static_cast<std::uint32_t>(a.bridge.size());
    child_off += static_cast<std::uint32_t>(kids.size());
  }
  const Status packed = f.pack_entries(
      [&](std::size_t v) { return s.aug(static_cast<NodeId>(v)).keys.data(); },
      [&](std::size_t v, std::uint32_t i) {
        return static_cast<std::uint32_t>(
            s.aug(static_cast<NodeId>(v)).proper[i]);
      });
  if (!packed.ok()) {
    return packed;
  }
  return f;
}

coop::Status PathFault::status() const {
  switch (kind) {
    case Kind::kNone:
      break;
    case Kind::kEmpty:
      return Status::invalid_argument("empty query path");
    case Kind::kNotRoot:
      return Status::invalid_argument("query path does not start at the root");
    case Kind::kOutOfRange:
      return Status::invalid_argument("query path node " + std::to_string(pos) +
                                      " out of range");
    case Kind::kBrokenChain:
      return Status::invalid_argument(
          "query path breaks parent/child chain at position " +
          std::to_string(pos));
  }
  return coop::OkStatus();
}

coop::Status FlatCascade::validate_path(std::span<const NodeId> path) const {
  using Kind = PathFault::Kind;
  if (path.empty()) {
    return PathFault{Kind::kEmpty}.status();
  }
  if (path.front() != static_cast<NodeId>(root())) {
    return PathFault{Kind::kNotRoot}.status();
  }
  for (std::size_t i = 0; i < path.size(); ++i) {
    const auto pos = static_cast<std::uint32_t>(i);
    if (path[i] < 0 || static_cast<std::size_t>(path[i]) >= num_nodes()) {
      return PathFault{Kind::kOutOfRange, pos}.status();
    }
    if (i > 0 && nodes_[path[i]].parent != path[i - 1]) {
      return PathFault{Kind::kBrokenChain, pos}.status();
    }
  }
  return coop::OkStatus();
}

}  // namespace serve
