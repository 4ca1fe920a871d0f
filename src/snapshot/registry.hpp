#pragma once

// Versioned snapshot registry with epoch-based reclamation (DESIGN.md
// §8): the serving half of the snapshot subsystem.  A long-running
// QueryEngine serves every batch against the snapshot that was current
// when the batch *started*; Registry::publish atomically installs a new
// version under live traffic, and a retired version's arena (and its
// mmap) is released only after every batch that could still be reading
// it has drained — zero dropped queries, zero torn reads, zero
// use-after-unmap.
//
// Protocol (classic epoch-based reclamation, sized for per-batch — not
// per-query — pinning, so the epoch traffic is cold):
//
//   reader:  slot.epoch <- E (announce); re-check E unchanged; read
//            `current`; serve the whole batch (including any degraded
//            sequential rerun); slot.epoch <- quiescent.
//   writer:  swap `current`; retire the old version at epoch
//            r = E++; free retired versions once every announced
//            epoch is > r (a reader announced at e <= r may still hold
//            the old pointer; one announced later provably cannot).
//
// The seq_cst total order makes the re-check sound: a reader whose
// announce survives the re-check either pinned before the swap (then its
// epoch <= r protects the old version) or announced after the epoch
// bump (then its `current` read sees the new version).

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "robust/status.hpp"
#include "serve/query_engine.hpp"
#include "snapshot/snapshot.hpp"

namespace snapshot {

class Registry {
 public:
  Registry() = default;
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// A pinned view of one published version: the snapshot is guaranteed
  /// mapped and immutable until the Pin is destroyed.  Movable; hold one
  /// per batch, not per query.
  class Pin {
   public:
    Pin() = default;
    ~Pin() { release(); }
    Pin(Pin&& o) noexcept
        : registry_(std::exchange(o.registry_, nullptr)),
          slot_(std::exchange(o.slot_, 0)),
          versioned_(std::exchange(o.versioned_, nullptr)) {}
    Pin& operator=(Pin&& o) noexcept {
      if (this != &o) {
        release();
        registry_ = std::exchange(o.registry_, nullptr);
        slot_ = std::exchange(o.slot_, 0);
        versioned_ = std::exchange(o.versioned_, nullptr);
      }
      return *this;
    }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;

    /// False when pinned before any publish (nothing to serve).
    [[nodiscard]] bool has_snapshot() const { return versioned_ != nullptr; }
    [[nodiscard]] const Snapshot& snapshot() const;
    [[nodiscard]] std::uint64_t version() const;

    /// Drop the pin early (idempotent); also triggers reclamation of
    /// any versions this pin was the last reader of.
    void release();

   private:
    friend class Registry;
    const Registry* registry_ = nullptr;
    std::size_t slot_ = 0;
    const void* versioned_ = nullptr;  // internal Versioned*
  };

  /// Atomically install `snap` as the current version; returns its
  /// version number (monotonic from 1).  The displaced version is
  /// *retained* (still mapped, eligible as a rollback target) until the
  /// keep window overflows, then retired and reclaimed once no pin can
  /// still reference it.  Thread-safe against readers; concurrent
  /// publishers serialize internally.
  std::uint64_t publish(Snapshot snap);

  /// Recently displaced generations kept mapped as rollback targets.
  /// The newest generation marked good is never spilled from the window,
  /// so a scrubber always has somewhere to roll back to.
  static constexpr std::size_t kKeepGenerations = 3;

  /// Record that `version` passed an integrity scrub.  No-op when the
  /// generation is no longer retained.
  void mark_good(std::uint64_t version);

  /// Newest retained generation that was mark_good()'d, skipping
  /// `excluding` (pass the quarantine suspect); 0 when there is none.
  [[nodiscard]] std::uint64_t last_known_good(std::uint64_t excluding = 0)
      const;

  /// Atomically reinstate retained generation `to_version` as current.
  /// The displaced current is quarantined: its good mark is cleared and
  /// it is retired immediately (unmapped only after every pinned reader
  /// of it drains — the epoch protocol above is unchanged).  With
  /// `if_current` != 0 the swap only happens while that exact version is
  /// still current (kFailedPrecondition otherwise) so a scrubber cannot
  /// race a concurrent publish and quarantine a fresh snapshot.  Fails
  /// with kFailedPrecondition when `to_version` is not retained.
  [[nodiscard]] coop::Status rollback(std::uint64_t to_version,
                                      std::uint64_t if_current = 0);

  /// Pin the current version for the duration of a batch.
  [[nodiscard]] Pin pin() const;

  /// Version of the current snapshot (0 before the first publish).
  [[nodiscard]] std::uint64_t current_version() const {
    const Versioned* v = current_.load(std::memory_order_acquire);
    return v == nullptr ? 0 : v->version;
  }

  /// Retired-but-not-yet-reclaimed versions (observability / tests: must
  /// drain to 0 once all pins are released).
  [[nodiscard]] std::size_t retired_count() const;

  /// Retained (not yet retired) generations, current included
  /// (observability / tests).
  [[nodiscard]] std::size_t retained_count() const;

 private:
  struct Versioned {
    Snapshot snap;
    std::uint64_t version = 0;
    bool good = false;  ///< passed a scrub; guarded by retire_mutex_
  };

  /// Reader announcement slots, one cache line each.  Epoch 0 = free,
  /// kClaiming = being acquired (treated as quiescent by reclaim — safe,
  /// because a claimer re-validates against global_epoch_ before it
  /// reads `current_`).  pinned_version names the exact generation the
  /// slot holds (0 while claiming/handshaking, which reclaim treats
  /// conservatively): a pin holds one version for its whole life and
  /// never re-reads `current_`, so a retired generation the slot
  /// provably does NOT hold is reclaimable even while the slot's epoch
  /// is old — without this, one long-pinned reader blocks reclamation
  /// of every generation retired after it announced, and a compaction
  /// publish storm grows the retired list without bound.
  static constexpr std::size_t kMaxPins = 64;
  static constexpr std::uint64_t kFree = 0;
  static constexpr std::uint64_t kClaiming = ~std::uint64_t{0};
  struct alignas(serve::kCacheLine) ReaderSlot {
    std::atomic<std::uint64_t> epoch{kFree};
    std::atomic<std::uint64_t> pinned_version{0};
  };

  void reclaim() const;
  /// Move `v` into the keep window, spilling overflow to retired_
  /// (never the newest good generation).  Caller holds retire_mutex_.
  void retain_locked(std::unique_ptr<Versioned> v);
  void retire_locked(std::unique_ptr<Versioned> v);

  mutable ReaderSlot slots_[kMaxPins];
  mutable std::atomic<std::uint64_t> global_epoch_{1};
  /// Readers' view of the current version.  Ownership lives in
  /// current_owner_; the raw atomic is what pin() loads lock-free.
  std::atomic<Versioned*> current_{nullptr};
  mutable std::mutex retire_mutex_;
  std::unique_ptr<Versioned> current_owner_;  ///< guarded by retire_mutex_
  std::deque<std::unique_ptr<Versioned>>
      kept_;  ///< displaced, still-mapped rollback targets (oldest first)
  mutable std::vector<std::pair<std::uint64_t, std::unique_ptr<Versioned>>>
      retired_;  ///< (retire epoch, version); guarded by retire_mutex_
  std::uint64_t next_version_ = 1;  ///< guarded by retire_mutex_
};

/// Serve a batch of explicit-path queries against the registry's current
/// snapshot (kind must be kCascade).  The snapshot is pinned once for
/// the whole batch — parallel attempt AND any degraded sequential rerun
/// — so a concurrent publish can never unmap the arena mid-query.
/// `report`/`served_version` (optional) receive the engine report and
/// the version that answered.  Fails with kFailedPrecondition when
/// nothing is published or the kind does not match.
[[nodiscard]] coop::Status serve_path_queries(
    const Registry& registry, serve::QueryEngine& engine,
    std::span<const serve::PathQuery> queries,
    serve::PathAnswerSet& out, serve::BatchReport* report = nullptr,
    std::uint64_t* served_version = nullptr,
    const serve::BatchOptions& opts = {});

/// Point-location twin (kind must be kPointLocator).
[[nodiscard]] coop::Status serve_point_queries(
    const Registry& registry, serve::QueryEngine& engine,
    std::span<const geom::Point> points, std::vector<std::size_t>& out,
    serve::BatchReport* report = nullptr,
    std::uint64_t* served_version = nullptr,
    const serve::BatchOptions& opts = {});

}  // namespace snapshot
