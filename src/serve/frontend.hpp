#pragma once

// Overload-safe serving frontend (DESIGN.md §9): the layer that composes
// the QueryEngine's per-batch degradation and the Registry's hot-swap
// into a server that protects *itself* when traffic exceeds capacity or
// the machinery underneath misbehaves.
//
//   admission  a bounded in-flight budget; excess batches are shed
//              immediately with kResourceExhausted instead of queueing
//              unboundedly (queues hide overload until everything times
//              out at once).
//   retry      a batch that degraded (deadline / worker exception) is
//              retried against a *fresh* registry pin with capped
//              exponential backoff and deterministic seeded jitter; every
//              attempt is recorded in BatchReport::attempts.
//   breaker    K consecutive degraded batches trip CLOSED -> OPEN; while
//              OPEN the frontend serves sequentially-only (or sheds with
//              kUnavailable, per policy) until the window expires, then a
//              single HALF_OPEN probe rides the full engine and either
//              closes the breaker or reopens it (robust::CircuitBreaker).
//
// The frontend never owns correctness: answers come from the same grouped
// kernel as serve::serve_path_queries, the snapshot stays pinned for the
// whole attempt (parallel try AND sequential rerun), and a shed batch
// returns a Status without touching `out`.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "dyn/overlay.hpp"
#include "robust/circuit_breaker.hpp"
#include "robust/status.hpp"
#include "serve/query_engine.hpp"
#include "snapshot/registry.hpp"

namespace serve {

/// Coarse operator-facing health, derived from the breaker.
enum class HealthState : int {
  kHealthy = 0,   ///< breaker CLOSED, no recent degradation
  kDegraded = 1,  ///< degraded batches accumulating or probe in flight
  kLameDuck = 2,  ///< breaker OPEN: serving sequentially-only or shedding
};
[[nodiscard]] const char* to_string(HealthState h);

using robust::BreakerState;
using robust::to_string;

/// What an OPEN breaker does with admitted batches.
enum class OpenPolicy : int {
  kSequential = 0,  ///< serve on the calling thread (slow but correct)
  kShed = 1,        ///< refuse with kUnavailable
};

struct FrontendOptions {
  /// Admitted batches allowed in flight at once; the (max_inflight+1)-th
  /// concurrent batch is shed with kResourceExhausted.
  std::size_t max_inflight = 4;
  /// Extra attempts after the first for a degraded batch (0 = no retry).
  std::size_t max_retries = 2;
  /// Backoff before attempt k (k >= 1): min(cap, base * 2^(k-1)) scaled
  /// by a deterministic jitter factor in [0.5, 1).
  std::chrono::nanoseconds backoff_base{std::chrono::milliseconds(1)};
  std::chrono::nanoseconds backoff_cap{std::chrono::milliseconds(50)};
  /// Jitter stream seed: the factor for (batch_seq, attempt) is a pure
  /// function of this, so a replayed run reproduces the exact schedule.
  std::uint64_t jitter_seed = 1;
  /// Consecutive finally-degraded batches that trip the breaker.
  std::size_t breaker_threshold = 3;
  /// How long the breaker stays OPEN before the HALF_OPEN probe.
  std::chrono::nanoseconds breaker_open_for{std::chrono::milliseconds(100)};
  OpenPolicy open_policy = OpenPolicy::kSequential;
  /// Default per-batch engine knobs (deadline, shard size); callers can
  /// override per batch.
  BatchOptions batch;
  /// Tests set false to record backoffs without actually sleeping.
  bool sleep_on_backoff = true;
};

struct FrontendStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;            ///< passed admission + breaker
  std::uint64_t shed = 0;                ///< kResourceExhausted (admission)
  std::uint64_t shed_breaker = 0;        ///< kUnavailable (breaker OPEN)
  std::uint64_t completed = 0;
  std::uint64_t refused = 0;             ///< admitted, then its input refused
  std::uint64_t degraded_batches = 0;    ///< final attempt degraded
  std::uint64_t degraded_deadline = 0;   ///< ... by deadline expiry (subset)
  std::uint64_t retries = 0;             ///< attempts beyond the first
  std::uint64_t breaker_trips = 0;       ///< CLOSED -> OPEN transitions
  std::uint64_t breaker_probes = 0;      ///< HALF_OPEN probes dispatched
  std::uint64_t sequential_batches = 0;  ///< served under OPEN/kSequential
  std::uint64_t consecutive_degraded = 0;
  BreakerState breaker = BreakerState::kClosed;
  HealthState health = HealthState::kHealthy;
};

/// Deterministic fault injection for the chaos harness: called once per
/// work item (query group for paths, query for points) before the real
/// work, on whatever thread executes the item.  May throw to simulate a
/// poisoned worker — at most once per batch, because the engine's
/// sequential rerun executes items outside its worker try/catch.
struct ChaosHooks {
  std::function<void(std::uint64_t batch_seq, std::size_t item)> on_item;
};

/// The backoff before attempt `attempt` (>= 1) of batch `batch_seq` —
/// exposed as a pure function so tests can assert the schedule.
[[nodiscard]] std::chrono::nanoseconds backoff_for(const FrontendOptions& o,
                                                   std::uint64_t batch_seq,
                                                   std::uint32_t attempt);

/// One attempt at a batch: the engine's report, and the batch's refusal
/// of its own input (OK when every query was served).  A refused attempt
/// still reports whether its engine run degraded.
struct AttemptOutcome {
  BatchReport report;
  coop::Status refusal;
};

class Frontend {
 public:
  /// The registry and engine must outlive the frontend.  A one-thread
  /// sequential engine for OPEN-state serving is owned internally.
  Frontend(snapshot::Registry& registry, QueryEngine& engine,
           FrontendOptions opts = {});

  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  /// Serve one explicit-path batch through admission -> breaker ->
  /// retry loop.  On kOk, `out` holds every answer (it is reset to the
  /// batch) and `report` (if given) the final engine report plus the
  /// full attempt trail; `served_version` receives the registry version
  /// of the *final* attempt.  Shed batches return kResourceExhausted
  /// (admission) or kUnavailable (breaker) without touching `out`.  An
  /// invalid path refuses the batch with FlatCascade::validate_path's
  /// Status for the first such query; the refusal is not retried, and
  /// it counts against the breaker only when its engine run degraded.
  /// With a reused `out` this allocates nothing per query.
  [[nodiscard]] coop::Status serve_paths(
      std::span<const PathRef> queries, PathAnswerSet& out,
      BatchReport* report = nullptr, std::uint64_t* served_version = nullptr,
      const BatchOptions* batch_override = nullptr,
      const ChaosHooks* chaos = nullptr);

  /// serve_paths over PathQuery, into one PathAnswer per query.
  [[nodiscard]] coop::Status serve_paths(
      std::span<const PathQuery> queries, std::vector<PathAnswer>& out,
      BatchReport* report = nullptr, std::uint64_t* served_version = nullptr,
      const BatchOptions* batch_override = nullptr,
      const ChaosHooks* chaos = nullptr);

  /// Point-location twin.
  [[nodiscard]] coop::Status serve_points(
      std::span<const geom::Point> points, std::vector<std::size_t>& out,
      BatchReport* report = nullptr, std::uint64_t* served_version = nullptr,
      const BatchOptions* batch_override = nullptr,
      const ChaosHooks* chaos = nullptr);

  /// Dynamic-path twin of serve_paths: answers are merged live successor
  /// *keys* from the overlay (dyn/overlay.hpp), served against one
  /// immutable dyn::State captured for the whole batch — the overlay's
  /// own consistency unit (a raw registry pin would miss the run lists).
  /// Same admission budget as the static paths; the kernel checks every
  /// path against the captured base as it walks it and refuses the batch
  /// with FlatCascade::validate_path's Status.  `served_version`
  /// (optional) receives the base generation, `write_seq` the overlay
  /// sequence the answers include.  The batch deadline (if set) is
  /// enforced as an up-front check between validation and the merge —
  /// the merge post-pass is single-threaded and not watchdogged.
  [[nodiscard]] coop::Status serve_dyn_paths(
      dyn::DynamicCatalog& cat, std::span<const PathRef> queries,
      dyn::PathKeySet& out, std::uint64_t* served_version = nullptr,
      std::uint64_t* write_seq = nullptr,
      const BatchOptions* batch_override = nullptr);

  /// Apply a mutation batch through the same admission budget (writes
  /// and reads share the in-flight accounting, so a write storm sheds
  /// under overload exactly like a read storm).  On kOk, `ack_seq`
  /// receives the overlay ack: every serve_dyn_paths admitted after the
  /// return sees the batch (read-your-writes).
  [[nodiscard]] coop::Status apply_mutations(
      dyn::DynamicCatalog& cat, std::span<const dyn::Mutation> muts,
      std::uint64_t* ack_seq = nullptr);

  /// Wire-path twin of apply_mutations for already-decoded runs (the
  /// server hands each run through dyn::validate_run before this).
  [[nodiscard]] coop::Status apply_runs(dyn::DynamicCatalog& cat,
                                        std::vector<dyn::Run> runs,
                                        std::uint64_t* ack_seq = nullptr);

  [[nodiscard]] FrontendStats stats() const;
  [[nodiscard]] HealthState health() const;
  [[nodiscard]] BreakerState breaker_state() const;
  [[nodiscard]] const FrontendOptions& options() const { return opts_; }

 private:
  /// How the breaker told this batch to run.
  enum class Mode { kParallel, kSequentialOnly, kProbe, kShed };

  /// Runs one attempt against a pinned snapshot; must fill `out`
  /// completely (it handles its own inline-exception rerun), or refuse
  /// the batch's input, which ends the batch.
  using AttemptFn = std::function<AttemptOutcome(
      QueryEngine& engine, const snapshot::Snapshot& snap,
      const BatchOptions& opts, std::uint64_t batch_seq)>;

  [[nodiscard]] coop::Status run_admitted(snapshot::SnapshotKind need,
                                          const BatchOptions* batch_override,
                                          BatchReport* report,
                                          std::uint64_t* served_version,
                                          const AttemptFn& attempt);
  Mode breaker_admit(std::uint64_t seq);
  void breaker_on_result(Mode mode, bool degraded, std::uint64_t seq);
  void bump(std::uint64_t FrontendStats::* field);
  template <typename Fn>
  [[nodiscard]] coop::Status apply_admitted(std::uint64_t* ack_seq,
                                            const Fn& fn);
  /// Publish breaker/health gauges and the transition trace event after a
  /// state change.
  void note_breaker(std::uint64_t seq);

  snapshot::Registry& registry_;
  QueryEngine& engine_;
  QueryEngine seq_engine_{1};  ///< inline engine for OPEN-state serving
  const FrontendOptions opts_;

  std::atomic<std::uint64_t> batch_seq_{0};
  std::atomic<std::size_t> inflight_{0};

  robust::CircuitBreaker breaker_;

  mutable std::mutex mu_;  ///< stats
  FrontendStats stats_;
};

}  // namespace serve
