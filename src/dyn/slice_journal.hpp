#pragma once

// The write-journal oracle of the write soaks (DESIGN.md §13, §14): the
// mutate soak, coopload's read-write soak and its kill -9 crash soak.
//
// Each writer owns a disjoint key slice above every base key, so the
// writer's own journal decides the successor contract (Nekrich,
// "Searching in Dynamic Catalogs on a Tree") for every query inside its
// slice, however the writers interleave: the smallest live key >= y at a
// node is the smallest key this writer holds live there, or, when it
// holds none, something at or above the slice's end.  A batch the writer
// sent but never saw acknowledged is in flight: its keys may or may not
// be served, and stay excluded from the check until acknowledged again.

#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "catalog/tree.hpp"
#include "dyn/delta.hpp"
#include "robust/status.hpp"

namespace dyn {

/// Verdict on one served successor.
enum class JournalCheck {
  kOk,
  kLost,   ///< an acknowledged live key was skipped
  kWrong,  ///< below y, or a key this writer does not hold live
};

class SliceJournal {
 public:
  /// Slices start above every base key the soak trees use (< 10^9).
  static constexpr Key kSliceBase = 2'000'000'000;
  static constexpr Key kSliceSpan = 1'000'000;

  using NodeKey = std::pair<std::uint32_t, Key>;
  /// A batch after last-op-wins: the final op per (node, key).
  using Collapsed = std::map<NodeKey, Op>;

  /// Writer `writer` owns [kSliceBase + writer * kSliceSpan, + kSliceSpan).
  explicit SliceJournal(std::size_t writer)
      : lo_(kSliceBase + static_cast<Key>(writer) * kSliceSpan) {}

  [[nodiscard]] Key lo() const { return lo_; }
  [[nodiscard]] Key hi() const { return lo_ + kSliceSpan; }
  /// A key drawn uniformly from the slice.
  [[nodiscard]] Key random_key(std::mt19937_64& rng) const {
    return lo_ + static_cast<Key>(rng() % static_cast<std::uint64_t>(
                                              kSliceSpan));
  }

  /// `n` seeded mutations on nodes drawn by `node()`, keys drawn from the
  /// slice, each a delete with probability 1/`delete_one_in`.
  [[nodiscard]] std::vector<Mutation> random_batch(
      std::mt19937_64& rng, std::size_t n, std::uint64_t delete_one_in,
      const std::function<std::uint32_t()>& node) const;

  /// INVALID_ARGUMENT when a base key of `tree` reaches the slices: the
  /// journals are exact oracles only when every base key lies below.
  [[nodiscard]] static coop::Status check_base(const cat::Tree& tree);

  /// The last-op-wins collapse the run grouping applies to a batch.
  [[nodiscard]] static Collapsed collapse(std::span<const Mutation> batch);

  /// The batch is sent: until ack() its keys are in flight.
  void begin(const Collapsed& batch);
  /// The batch is acknowledged: its final ops are the journal's truth.
  void ack(const Collapsed& batch);

  /// Judge `served`, the successor of y at `node` (y inside the slice).
  [[nodiscard]] JournalCheck check(std::uint32_t node, Key y,
                                   Key served) const;

  /// Every acknowledged (node, key) and whether it is live.
  [[nodiscard]] const std::map<NodeKey, bool>& entries() const {
    return entries_;
  }
  [[nodiscard]] std::size_t in_flight() const { return in_flight_.size(); }

 private:
  Key lo_;
  std::map<NodeKey, bool> entries_;
  std::set<NodeKey> in_flight_;
};

}  // namespace dyn
