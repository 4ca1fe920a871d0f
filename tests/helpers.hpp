#pragma once

#include <algorithm>
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
