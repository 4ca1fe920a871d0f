#pragma once

// Background compactor (DESIGN.md §13): rebuilds the cascaded structure
// off-thread from base + deltas and publishes the result through the
// registry hot-swap.  Protocol:
//
//   1. capture one immutable State S (watermark W = S.write_seq);
//   2. reconstruct the catalog tree from S's flat arena topology with
//      each node's merged live keys, rebuild fc::Structure, compile the
//      flat arena, wrap it in a snapshot (spooled file or in-memory);
//   3. DynamicCatalog::install_compacted(snap, W) publishes, re-pins,
//      and truncates runs wholly at or below W — atomically w.r.t.
//      writers, so mutations applied during the rebuild survive as runs
//      layered over the new base.
//
// compact_once() is public and synchronous for deterministic tests; the
// background thread triggers it on a pending-mutation threshold, a
// periodic interval, or an explicit compact_now() nudge.  stop() (and
// the destructor) joins mid-compaction: the in-flight rebuild finishes
// or its result is discarded, but the serving state is never torn.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "dyn/overlay.hpp"
#include "robust/status.hpp"

namespace dyn {

class Compactor {
 public:
  struct Options {
    /// Where compacted snapshot files are written (".tmp" + rename,
    /// same atomicity as snapshot::write).  Empty = in-memory snapshots
    /// (no spool; fine for tests and single-process serving).  Ignored
    /// when the catalog has a WAL attached: durable catalogs spool to
    /// Wal::base_path_for(watermark) so the manifest can name the
    /// generation (DESIGN.md §14).
    std::string spool_path;
    /// Pending mutations that trigger a background compaction.
    std::size_t trigger_pending = 4096;
    /// Periodic compaction interval; 0 disables the timer (the
    /// threshold and compact_now() still trigger).
    std::chrono::nanoseconds interval{0};
  };

  Compactor(DynamicCatalog& cat, Options opts);
  ~Compactor();
  Compactor(const Compactor&) = delete;
  Compactor& operator=(const Compactor&) = delete;

  /// Spawn the background thread (idempotent).
  void start();

  /// Ask the background thread to stop and join it.  Safe mid-compact.
  void stop();

  /// Nudge the background thread to compact at the next opportunity.
  void compact_now();

  /// One synchronous compaction cycle.  Returns the published version,
  /// or the current base version without publishing when there is
  /// nothing pending (publishing identical generations would churn the
  /// keep window for nothing).
  [[nodiscard]] coop::Expected<std::uint64_t> compact_once();

  struct Stats {
    std::uint64_t compactions = 0;  ///< successful installs
    std::uint64_t skipped = 0;      ///< cycles with nothing pending
    std::uint64_t failures = 0;     ///< rebuild/publish errors
  };
  [[nodiscard]] Stats stats() const;

 private:
  void thread_main();

  DynamicCatalog* cat_;
  Options opts_;
  std::thread thread_;
  /// Serializes whole compaction cycles: the background thread and
  /// synchronous compact_once() callers (the COMPACT wire verb) must
  /// not race, or the loser would try to install a stale watermark.
  std::mutex cycle_mu_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool running_ = false;  ///< guarded by mu_
  bool stop_ = false;     ///< guarded by mu_
  bool nudge_ = false;    ///< guarded by mu_
  std::atomic<std::uint64_t> compactions_{0};
  std::atomic<std::uint64_t> skipped_{0};
  std::atomic<std::uint64_t> failures_{0};
};

}  // namespace dyn
