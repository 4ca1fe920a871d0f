#pragma once

// Shared helpers for the experiment benches (see DESIGN.md section 3).
//
// The primary metric of every experiment is the simulated PRAM step count
// (what the paper's theorems bound); wall-clock time of the simulation is
// reported by google-benchmark as a secondary signal.  Expensive data
// structures are cached across benchmark repetitions.

#include <benchmark/benchmark.h>

#include <cmath>
#include <map>
#include <memory>
#include <random>
#include <tuple>

#include "catalog/tree.hpp"
#include "core/explicit_search.hpp"
#include "core/implicit_search.hpp"
#include "fc/build.hpp"
#include "fc/search.hpp"
#include "pram/machine.hpp"
#include "serve/query_engine.hpp"

namespace bench {

/// A tree-of-catalogs instance with its preprocessing, cached by key.
struct Instance {
  cat::Tree tree;
  std::unique_ptr<fc::Structure> fc;
  std::unique_ptr<coop::CoopStructure> coop;
};

inline const Instance& balanced_instance(std::uint32_t height,
                                         std::size_t entries,
                                         cat::CatalogShape shape,
                                         std::uint64_t seed) {
  using KeyT = std::tuple<std::uint32_t, std::size_t, int, std::uint64_t>;
  static std::map<KeyT, std::unique_ptr<Instance>> cache;
  const KeyT key{height, entries, int(shape), seed};
  auto it = cache.find(key);
  if (it == cache.end()) {
    auto inst = std::make_unique<Instance>();
    std::mt19937_64 rng(seed);
    inst->tree = cat::make_balanced_binary(height, entries, shape, rng);
    inst->fc = std::make_unique<fc::Structure>(fc::Structure::build(inst->tree));
    inst->coop = std::make_unique<coop::CoopStructure>(
        coop::CoopStructure::build(*inst->fc));
    it = cache.emplace(key, std::move(inst)).first;
  }
  return *it->second;
}

inline const Instance& path_instance(std::size_t length, std::size_t entries,
                                     std::uint64_t seed) {
  using KeyT = std::tuple<std::size_t, std::size_t, std::uint64_t>;
  static std::map<KeyT, std::unique_ptr<Instance>> cache;
  const KeyT key{length, entries, seed};
  auto it = cache.find(key);
  if (it == cache.end()) {
    auto inst = std::make_unique<Instance>();
    std::mt19937_64 rng(seed);
    inst->tree = cat::make_path_tree(length, entries,
                                     cat::CatalogShape::kRandom, rng);
    inst->fc = std::make_unique<fc::Structure>(fc::Structure::build(inst->tree));
    inst->coop = std::make_unique<coop::CoopStructure>(
        coop::CoopStructure::build(*inst->fc));
    it = cache.emplace(key, std::move(inst)).first;
  }
  return *it->second;
}

/// The paper's predicted speedup factor log n / log p (>= 1).
inline double predicted_ratio(std::size_t n, std::size_t p) {
  const double lp = std::log2(std::max<double>(2.0, double(p)));
  return std::max(1.0, std::log2(std::max<double>(2.0, double(n))) / lp);
}

inline std::vector<cat::NodeId> leftish_path(const cat::Tree& t,
                                             std::uint64_t salt) {
  std::mt19937_64 rng(salt);
  return serve::random_path(t, rng);
}

}  // namespace bench
