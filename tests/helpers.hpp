#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <random>
#include <span>
#include <vector>

#include "catalog/tree.hpp"
#include "serve/query_engine.hpp"

namespace test_helpers {

/// Brute-force find(y, v): index of the smallest original-catalog entry
/// >= y (the oracle every search result is checked against).
inline std::size_t brute_find(const cat::Tree& t, cat::NodeId v, cat::Key y) {
  return t.catalog(v).find(y);
}

/// A uniformly random root-to-leaf path.
inline std::vector<cat::NodeId> random_root_leaf_path(const cat::Tree& t,
                                                      std::mt19937_64& rng) {
  std::vector<cat::NodeId> path{t.root()};
  while (!t.is_leaf(path.back())) {
    const auto kids = t.children(path.back());
    path.push_back(kids[rng() % kids.size()]);
  }
  return path;
}

/// A random downward chain starting anywhere (for segment searches).
inline std::vector<cat::NodeId> random_chain(const cat::Tree& t,
                                             std::mt19937_64& rng) {
  cat::NodeId start = cat::NodeId(rng() % t.num_nodes());
  std::vector<cat::NodeId> path{start};
  while (!t.is_leaf(path.back()) && rng() % 8 != 0) {
    const auto kids = t.children(path.back());
    path.push_back(kids[rng() % kids.size()]);
  }
  return path;
}

/// Every way the kernel's path checks can fail on `path`, a valid
/// root-first path of `t`: the empty path; at position 0 a non-root head
/// (a child of the root, an id past the last node, a negative id); and at
/// every later position an id past the last node, a negative id, and two
/// in-range nodes that are not children of the previous node (that node
/// itself, and the root).
inline std::vector<std::vector<cat::NodeId>> broken_paths(
    const cat::Tree& t, const std::vector<cat::NodeId>& path) {
  const auto n = static_cast<cat::NodeId>(t.num_nodes());
  std::vector<std::vector<cat::NodeId>> out{{}};
  for (std::size_t p = 0; p < path.size(); ++p) {
    std::vector<cat::NodeId> bad_ids{n, -1, 2147483647};
    if (p == 0) {
      bad_ids.push_back(t.children(t.root())[0]);
    } else {
      bad_ids.push_back(path[p - 1]);
      bad_ids.push_back(t.root());
    }
    for (const cat::NodeId id : bad_ids) {
      std::vector<cat::NodeId> broken = path;
      broken[p] = id;
      out.push_back(std::move(broken));
    }
  }
  return out;
}

/// Query keys worth probing: exact keys, off-by-one neighbours, extremes.
inline cat::Key random_query(const cat::Tree& t, std::mt19937_64& rng,
                             cat::Key key_range = 1'000'000'000) {
  switch (rng() % 4) {
    case 0: {
      // An existing key (or its neighbourhood) from a random catalog.
      const cat::NodeId v = cat::NodeId(rng() % t.num_nodes());
      const auto& c = t.catalog(v);
      if (c.real_size() > 0) {
        const cat::Key k = c.key(rng() % c.real_size());
        return k + cat::Key(rng() % 3) - 1;
      }
      [[fallthrough]];
    }
    case 1:
      return cat::Key(rng() % key_range);
    case 2:
      return 0;
    default:
      return key_range + cat::Key(rng() % 100);
  }
}

/// A balanced binary tree whose catalogs mix narrow and wide nodes of the
/// flat arena (serve::FlatCascade keeps 32-bit key offsets, with high
/// words only where a node's keys span 2^32 - 1 or more).  The left
/// subtree keeps keys in [0, 10^9) and the right one moves them to just
/// above INT64_MIN; every seventh node instead holds at most three keys
/// from a far family: the int64 extremes, a span of exactly 2^32 - 2 (the
/// widest narrow catalog) or 2^32 - 1 (the narrowest wide one), or keys
/// next to INT64_MAX - 1, the largest real key.  Cascading samples keys
/// both ways, so the root and the nodes near a far one are wide and most
/// others narrow.
inline cat::Tree mixed_width_tree(std::uint32_t height, std::size_t entries,
                                  std::mt19937_64& rng) {
  using Lim = std::numeric_limits<cat::Key>;
  constexpr std::uint64_t k32 = std::uint64_t{1} << 32;
  const auto at = [](std::uint64_t bits) {
    return static_cast<cat::Key>(bits);
  };
  cat::Tree t = cat::make_balanced_binary(height, entries,
                                          cat::CatalogShape::kRandom, rng);
  std::vector<bool> right(t.num_nodes(), false);
  for (std::size_t v = 0; v < t.num_nodes(); ++v) {
    const auto id = static_cast<cat::NodeId>(v);
    if (id != t.root()) {
      const cat::NodeId p = t.parent(id);
      right[v] = right[static_cast<std::size_t>(p)] ||
                 (p == t.root() && t.child_slot(id) == 1);
    }
  }
  for (std::size_t v = 0; v < t.num_nodes(); ++v) {
    const auto id = static_cast<cat::NodeId>(v);
    std::vector<cat::Key> keys;
    const std::uint64_t lo = rng() % (std::uint64_t{1} << 62);
    if (v % 7 == 3) {
      switch ((v / 7) % 5) {
        case 0: keys = {Lim::min(), Lim::max() - 1}; break;
        case 1: keys = {at(lo), at(lo + k32 - 2)}; break;
        case 2: keys = {at(lo), at(lo + 1), at(lo + k32 - 1)}; break;
        case 3: keys = {Lim::max() - 3, Lim::max() - 1}; break;
        default: keys = {Lim::min(), Lim::min() + 1}; break;
      }
    } else {
      const auto own = t.catalog(id).keys();
      const std::uint64_t shift =
          right[v] ? static_cast<std::uint64_t>(Lim::min()) + 5 : 0;
      for (std::size_t i = 0; i + 1 < own.size(); ++i) {
        keys.push_back(at(static_cast<std::uint64_t>(own[i]) + shift));
      }
    }
    t.set_catalog(id, cat::Catalog::from_sorted_keys(keys));
  }
  return t;
}

/// A query key for mixed_width_tree: the int64 extremes, a catalog key or
/// its neighbours, a node's key plus or minus 2^32, or any int64.
inline cat::Key mixed_width_query(const cat::Tree& t, std::mt19937_64& rng) {
  using Lim = std::numeric_limits<cat::Key>;
  static constexpr cat::Key kEdges[] = {Lim::min(), Lim::min() + 1, -1, 0,
                                        Lim::max() - 1, Lim::max()};
  const auto& c = t.catalog(cat::NodeId(rng() % t.num_nodes()));
  const std::uint64_t pick = rng() % 4;
  if (pick == 0 || c.real_size() == 0) {
    return pick == 0 ? kEdges[rng() % std::size(kEdges)]
                     : static_cast<cat::Key>(rng());
  }
  const auto k = static_cast<std::uint64_t>(c.key(rng() % c.real_size()));
  const std::uint64_t step = pick == 1 ? rng() % 3 : std::uint64_t{1} << 32;
  const bool down = rng() % 2 == 0;
  // Wrap-free: stay inside int64 by clamping at the extremes.
  if (down) {
    return k - static_cast<std::uint64_t>(Lim::min()) < step
               ? Lim::min()
               : static_cast<cat::Key>(k - step);
  }
  return static_cast<std::uint64_t>(Lim::max()) - k < step
             ? Lim::max()
             : static_cast<cat::Key>(k + step);
}

/// A PathAnswerSet whose answer q holds aug[q] and proper[q] (one
/// length each), in one chunk sized to it, as a decoded reply's is.
inline serve::PathAnswerSet answer_set(
    const std::vector<std::vector<std::uint32_t>>& aug,
    const std::vector<std::vector<std::uint32_t>>& proper) {
  serve::PathAnswerSet set(0);
  set.clear(aug.size());
  for (const auto& a : aug) {
    set.add(a.size());
  }
  set.carve();
  for (std::size_t q = 0; q < aug.size(); ++q) {
    std::copy(aug[q].begin(), aug[q].end(), set.aug_data(q));
    std::copy(proper[q].begin(), proper[q].end(), set.proper_data(q));
  }
  return set;
}

/// A span's elements as a vector, for comparisons.
template <typename T>
std::vector<T> vec(std::span<const T> s) {
  return {s.begin(), s.end()};
}

}  // namespace test_helpers
