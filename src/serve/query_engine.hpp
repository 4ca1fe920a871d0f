#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "geom/primitives.hpp"
#include "serve/flat_cascade.hpp"
#include "serve/flat_pointloc.hpp"

namespace cat {
class Tree;
}

namespace serve {

/// Per-batch execution knobs.
struct BatchOptions {
  /// Watchdog for the parallel attempt; 0 disables it.  Mirrors the
  /// deadline discipline of pram::run_resilient: expiry abandons the
  /// parallel run and the batch is re-executed sequentially.
  std::chrono::nanoseconds deadline{0};
  /// Queries per shard.  Shards are the unit workers claim; a shard's
  /// queries run back-to-back on one core so their arena accesses amortize
  /// cache misses.  0 picks a default from the batch size.
  std::size_t shard_size = 0;
};

/// Why a batch degraded to the sequential rerun.  Deadline expiry is a
/// distinct cause (not just a reason string) so callers — the frontend's
/// stats, the obs counters, and the wire layer's kDeadlineExceeded typed
/// error — can tell a timing failure from a poisoned worker without
/// parsing free text.
enum class DegradeCause : int {
  kNone = 0,       ///< not degraded
  kDeadline = 1,   ///< the batch deadline expired mid-parallel-attempt
  kException = 2,  ///< a worker (or inline run) threw
};
[[nodiscard]] const char* to_string(DegradeCause c);

/// One execution attempt of a batch as retried by serve::Frontend: the
/// engine-level outcome plus the backoff that was slept *before* this
/// attempt ran (0 for the first attempt).  The trail is deterministic
/// given the frontend's jitter seed and the batch sequence number.
struct BatchAttempt {
  std::uint32_t attempt = 0;  ///< 0-based attempt index
  bool degraded = false;
  std::string reason;
  std::chrono::nanoseconds backoff{0};
  DegradeCause cause = DegradeCause::kNone;
};

/// Outcome of one batch, mirroring pram::RunReport: if the parallel
/// attempt failed (worker exception or deadline) the batch was transparently
/// re-run sequentially on the calling thread and `degraded` is set.
struct BatchReport {
  bool degraded = false;
  std::string reason;
  DegradeCause cause = DegradeCause::kNone;
  std::size_t shards = 0;        ///< shards the parallel attempt was cut into
  std::size_t threads_used = 0;  ///< 1 when run inline / degraded
  /// Per-attempt trail when the batch went through serve::Frontend's
  /// retry loop; empty for direct QueryEngine calls.  The final attempt's
  /// degraded/reason always equal the top-level fields.
  std::vector<BatchAttempt> attempts;
};

/// A persistent worker pool that serves independent queries against the
/// immutable flat structures.  Threads are spawned once and reused across
/// batches (no per-query or per-batch thread churn); a batch is sharded
/// and workers claim shards from an atomic cursor, so an imbalanced query
/// mix still load-balances.
///
/// Degradation discipline (from PR 1's run_resilient): the job function
/// must be idempotent per index — it only writes slot i of its own output.
/// If any worker throws, or the batch deadline expires, the parallel
/// attempt is drained, its partial output is discarded, and the whole
/// batch is re-run sequentially on the calling thread; the report carries
/// `degraded` and the reason.  A faulty worker can never tear down the
/// process or produce a torn batch.
class QueryEngine {
 public:
  /// `threads == 0` uses the hardware concurrency.  One thread means every
  /// batch runs inline on the calling thread (no pool is spawned).
  explicit QueryEngine(std::size_t threads = 0);
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  [[nodiscard]] std::size_t threads() const { return threads_; }

  /// Run `fn(i)` for every i in [0, n), sharded across the pool.
  BatchReport for_each(std::size_t n,
                       const std::function<void(std::size_t)>& fn,
                       const BatchOptions& opts = {});

  /// The work of an index range: `fn(begin, end)` handles [begin, end).
  using RangeFn = std::function<void(std::size_t, std::size_t)>;

  /// The same batch handed out by range: `fn` is called on disjoint
  /// ranges that cover [0, n) — the whole batch at once when it runs
  /// inline or in the sequential rerun, one claimed shard at a time on
  /// the pool — so a caller can work across consecutive indices.
  BatchReport for_each_range(std::size_t n, const RangeFn& fn,
                             const BatchOptions& opts = {});

 private:
  void worker_loop();
  bool run_parallel(std::size_t n, std::size_t shard_size, const RangeFn& fn,
                    std::chrono::steady_clock::time_point deadline_at,
                    bool deadline_armed, std::string& fail_reason);

  std::size_t threads_ = 1;
  /// Spin-then-wait enabled (threads fit the machine; see ctor).
  bool spin_ = false;
  std::vector<std::thread> workers_;
  /// Serializes whole batches.  mutex_ alone is not enough: the submitter
  /// releases it inside done_cv_.wait(), so without this outer lock a
  /// second for_each could republish the batch state mid-drain and the
  /// first caller would return "success" for work that never ran.
  std::mutex submit_mutex_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::atomic<bool> shutdown_{false};

  // The cross-thread hot atomics, each alone on its cache line: at smoke
  // batch sizes a batch lasts ~100 us, so every worker hammers the shard
  // cursor while others poll abort_ / decrement remaining_ — co-locating
  // them (or parking them next to the batch fields below) turns that into
  // false-sharing ping-pong that erases multi-core scaling.
  alignas(kCacheLine) std::atomic<std::size_t> next_shard_{0};
  alignas(kCacheLine) std::atomic<bool> abort_{false};
  /// Bumped (under mutex_) to publish a batch; workers spin briefly on it
  /// before parking in work_cv_ so back-to-back batches skip the condvar
  /// wakeup latency.
  alignas(kCacheLine) std::atomic<std::uint64_t> generation_{0};
  /// Workers still in the current batch; the submitter spin-then-waits on
  /// it reaching zero.
  alignas(kCacheLine) std::atomic<std::size_t> remaining_{0};

  // Current batch (published under mutex_ before generation_ is bumped).
  alignas(kCacheLine) const RangeFn* fn_ = nullptr;
  std::size_t batch_n_ = 0;
  std::size_t shard_size_ = 1;
  std::size_t num_shards_ = 0;
  std::exception_ptr error_;
  std::chrono::steady_clock::time_point deadline_at_{};
  bool deadline_armed_ = false;
};

/// One explicit-path query against a FlatCascade.
struct PathQuery {
  std::vector<NodeId> path;
  Key y = 0;
};

/// Answers for one PathQuery: find(y, v) per path node, root first —
/// identical, index for index, to fc::search_explicit's result.
struct PathAnswer {
  std::vector<std::uint32_t> aug_index;
  std::vector<std::uint32_t> proper_index;
};

/// A path query by reference: `len` node ids at `path`, and the key.
/// The batch kernels run over these views, so a served batch keeps every
/// query's nodes in one buffer (PathBatch) instead of one vector each.
struct PathRef {
  const NodeId* path = nullptr;
  std::uint32_t len = 0;
  Key y = 0;
};

/// The view of a PathQuery (valid while the query's path is unchanged).
[[nodiscard]] inline PathRef path_ref(const PathQuery& q) {
  return PathRef{q.path.data(), static_cast<std::uint32_t>(q.path.size()),
                 q.y};
}

/// A path batch held flat: every query's node ids back to back in one
/// buffer and one PathRef per query into it.  Meant to be reused: clear()
/// keeps both buffers, so decoding batch after batch into one PathBatch
/// allocates only when a batch outgrows every earlier one.
class PathBatch {
 public:
  void clear() {
    nodes_.clear();
    refs_.clear();
  }

  /// Append a query on `len` nodes with key `y` and return its node slots
  /// to fill (valid until the next add()).
  [[nodiscard]] NodeId* add(Key y, std::uint32_t len) {
    refs_.push_back(PathRef{nullptr, len, y});
    nodes_.resize(nodes_.size() + len);
    return nodes_.data() + nodes_.size() - len;
  }

  /// Point every query at its nodes; call once after the last add().
  void seal() {
    const NodeId* at = nodes_.data();
    for (PathRef& r : refs_) {
      r.path = at;
      at += r.len;
    }
  }

  [[nodiscard]] std::span<const PathRef> queries() const { return refs_; }

 private:
  std::vector<NodeId> nodes_;
  std::vector<PathRef> refs_;
};

/// A random root-to-leaf path of `tree`: one child drawn uniformly at
/// every inner node.
[[nodiscard]] std::vector<NodeId> random_path(const cat::Tree& tree,
                                              std::mt19937_64& rng);

/// The path from the root down to `v`.
[[nodiscard]] std::vector<NodeId> root_path(const cat::Tree& tree, NodeId v);

/// `n` queries, each a random_path with y drawn uniformly from
/// [0, 10^9), the key range of cat::make_balanced_binary's trees: the
/// random root-to-leaf workload of the soaks, the bench/ programs and the
/// CLI checks.
[[nodiscard]] std::vector<PathQuery> random_path_batch(
    const cat::Tree& tree, std::mt19937_64& rng, std::size_t n);

/// Queries per engine unit of a path batch: the work item a QueryEngine
/// worker claims, so a pool can split a 64-query batch four ways.
inline constexpr std::size_t kPathGroup = 16;

/// Most queries one window kernel call runs over.  A worker runs the
/// consecutive units it claims as windows of up to kPathRun queries, so
/// a batch run inline keeps the window full across a scan_b64 frame
/// (E27); the kernel's callers size their stack arrays by it.
inline constexpr std::size_t kPathRun = 64;

/// Queries the path kernel keeps in flight: enough outstanding misses to
/// cover DRAM latency, few enough that every slot's state stays in L1.
/// On the 2^22 tree 16, 24 and 32 read alike and 12 is slower (E27).
inline constexpr std::size_t kPathWindow = 16;

/// Engine units in a batch of `n` path queries.
[[nodiscard]] inline std::size_t path_groups(std::size_t n) {
  return (n + kPathGroup - 1) / kPathGroup;
}

/// The path kernel, single-threaded: serve `count` explicit-path queries
/// through a rolling window of min(count, kPathWindow) in-flight queries.
/// Each slot runs one query as a state machine (binary search of the
/// root, then per hop: read the bridge cell -> prefetch the landing key
/// and proper lines -> walk back and aim the next hop), visited round
/// robin, and takes the next query as soon as its own finishes.
/// out_aug[q] / out_proper[q] each point at queries[q].len writable
/// slots.  Answers are identical to per-query FlatCascade::search_path.
///
/// Paths are untrusted: every node is checked where the kernel loads it
/// (a non-empty path, the root first, an id in range before the load,
/// and the parent of each node equal to the previous one).  The result
/// is the fault of the lowest refused query — whose status() is exactly
/// FlatCascade::validate_path's refusal of that path — or an empty
/// PathFault.  The answers of a refused batch are unspecified.
PathFault search_paths_grouped_into(const FlatCascade& f,
                                    const PathRef* queries, std::size_t count,
                                    std::uint32_t* const* out_aug,
                                    std::uint32_t* const* out_proper);

/// The same kernel over PathQuery: out_aug[q] / out_proper[q] each point
/// at queries[q].path.size() writable slots.
PathFault search_paths_grouped_into(const FlatCascade& f,
                                    const PathQuery* queries,
                                    std::size_t count,
                                    std::uint32_t* const* out_aug,
                                    std::uint32_t* const* out_proper);

/// The same kernel into one PathAnswer per query (resized here).
PathFault search_paths_grouped(const FlatCascade& f, const PathQuery* queries,
                               std::size_t count, PathAnswer* out);

/// Nodes on one query's path.
[[nodiscard]] inline std::size_t path_len(const PathRef& q) { return q.len; }
[[nodiscard]] inline std::size_t path_len(const PathQuery& q) {
  return q.path.size();
}

/// The flat layout of a path batch's answers: query q owns elements
/// [begin(q), begin(q) + len(q)) of one buffer, by prefix sums of the
/// path lengths.  PathAnswerSet and dyn::PathKeySet both slice their
/// value buffers with it.
class PathSlices {
 public:
  /// Re-slice for `queries`; returns the total node count.
  template <typename Q>
  std::size_t reset(std::span<const Q> queries) {
    clear(queries.size());
    for (const Q& q : queries) {
      push(path_len(q));
    }
    return total();
  }

  /// No slices, with room for `n` before the buffer grows.
  void clear(std::size_t n) {
    off_.clear();
    off_.reserve(n + 1);
    off_.push_back(0);
  }
  /// Append a slice of `len` elements.
  void push(std::size_t len) {
    if (off_.empty()) {
      off_.push_back(0);
    }
    off_.push_back(off_.back() + len);
  }

  [[nodiscard]] std::size_t size() const {
    return off_.empty() ? 0 : off_.size() - 1;
  }
  [[nodiscard]] std::size_t total() const {
    return off_.empty() ? 0 : off_.back();
  }
  [[nodiscard]] std::size_t begin(std::size_t q) const { return off_[q]; }
  [[nodiscard]] std::size_t len(std::size_t q) const {
    return off_[q + 1] - off_[q];
  }

 private:
  std::vector<std::size_t> off_;
};

/// One answer of a PathAnswerSet, by view: the members of PathAnswer.
struct PathAnswerRef {
  std::span<const std::uint32_t> aug_index;
  std::span<const std::uint32_t> proper_index;
};

/// Arena-backed answers for a whole path batch: two flat uint32 buffers
/// (aug + proper) carved together from a reusable BumpArena and sliced
/// per query, so steady-state serving allocates nothing per batch — the
/// malloc-free counterpart of std::vector<PathAnswer>.  Reusable: reset()
/// rewinds the arena and re-slices for the next batch.
class PathAnswerSet {
 public:
  /// Every serving thread keeps one set, so its chunks stay small: a
  /// 64-query batch of 22-node paths takes 11 KiB, and a batch past the
  /// chunk size gets a chunk of its own.  A set that holds one decoded
  /// reply passes 0, which sizes its one chunk to that reply.
  PathAnswerSet() = default;
  explicit PathAnswerSet(std::size_t chunk_bytes) : arena_(chunk_bytes) {}

  /// Size the set for `queries` (invalidates previous contents).
  void reset(std::span<const PathRef> queries) {
    slices_.reset(queries);
    carve();
  }
  void reset(std::span<const PathQuery> queries) {
    slices_.reset(queries);
    carve();
  }

  /// Size the set one answer at a time, for a decoder that learns the
  /// lengths as it reads: clear(n) with room for n answers, add(len) per
  /// answer, then carve() before any answer is written.
  void clear(std::size_t n) { slices_.clear(n); }
  void add(std::size_t len) { slices_.push(len); }
  void carve() {
    // Both buffers in one allocation, proper on the cache line after aug.
    const std::size_t total = slices_.total();
    const std::size_t stride =
        (total * sizeof(std::uint32_t) + kCacheLine - 1) / kCacheLine *
        kCacheLine / sizeof(std::uint32_t);
    arena_.reset();
    // An empty batch takes nothing from the arena, so no pointer into
    // the arena object itself (its zero-size sentinel) outlives a move.
    aug_ = total == 0 ? nullptr : arena_.alloc<std::uint32_t>(2 * stride);
    proper_ = aug_ + stride;
  }

  [[nodiscard]] std::size_t size() const { return slices_.size(); }
  [[nodiscard]] std::span<const std::uint32_t> aug(std::size_t q) const {
    return {aug_ + slices_.begin(q), slices_.len(q)};
  }
  [[nodiscard]] std::span<const std::uint32_t> proper(std::size_t q) const {
    return {proper_ + slices_.begin(q), slices_.len(q)};
  }
  [[nodiscard]] PathAnswerRef operator[](std::size_t q) const {
    return {aug(q), proper(q)};
  }

  /// Writable slices for the batch kernel (query q's slots only).
  [[nodiscard]] std::uint32_t* aug_data(std::size_t q) {
    return aug_ + slices_.begin(q);
  }
  [[nodiscard]] std::uint32_t* proper_data(std::size_t q) {
    return proper_ + slices_.begin(q);
  }

 private:
  BumpArena arena_{std::size_t{64} << 10};
  std::uint32_t* aug_ = nullptr;
  std::uint32_t* proper_ = nullptr;
  PathSlices slices_;
};

/// The path oracle: how many (query, node) answers differ from the
/// source catalog's find(y, v) — a missing answer counts as wrong, and so
/// does every answer beyond the last query or node.  Zero means every
/// answer is exactly the paper's find(y, v).
[[nodiscard]] std::uint64_t count_path_mismatches(
    const cat::Tree& tree, std::span<const PathQuery> queries,
    const PathAnswerSet& answers);

/// Engine units [first, last) of a path batch (queries [first *
/// kPathGroup, ...)) into their slots of `out`, which must have been
/// reset() for `queries`, as windows of up to kPathRun queries: the work
/// of the units an engine worker claims.  Returns their lowest refused
/// query (its index in the whole batch), as search_paths_grouped_into
/// does.
PathFault serve_path_units(const FlatCascade& f,
                           std::span<const PathRef> queries, std::size_t first,
                           std::size_t last, PathAnswerSet& out);
PathFault serve_path_units(const FlatCascade& f,
                           std::span<const PathQuery> queries,
                           std::size_t first, std::size_t last,
                           PathAnswerSet& out);

/// Serve a batch of explicit-path queries into `out` (reset to the
/// batch here), one serve_path_units per range of engine units a worker
/// runs: answer q is written only by the worker that owns query q's
/// unit.  Allocates
/// nothing once `out` has grown to the batch.  For trusted paths: an
/// invalid path is not read out of bounds, but it is not reported either
/// (serve::Frontend refuses it).
BatchReport serve_path_queries(const FlatCascade& f, QueryEngine& engine,
                               std::span<const PathQuery> queries,
                               PathAnswerSet& out,
                               const BatchOptions& opts = {});

/// serve_path_queries under its earlier name, which perfbench/loadgen.cpp
/// still calls.
inline BatchReport serve_path_queries_flat(const FlatCascade& f,
                                           QueryEngine& engine,
                                           std::span<const PathQuery> queries,
                                           PathAnswerSet& out,
                                           const BatchOptions& opts = {}) {
  return serve_path_queries(f, engine, queries, out, opts);
}

/// The views of `queries`, in order.
[[nodiscard]] std::vector<PathRef> path_refs(
    std::span<const PathQuery> queries);

/// Serve a batch of point-location queries; out[i] is the region of
/// points[i].
BatchReport serve_point_queries(const FlatPointLocator& loc,
                                QueryEngine& engine,
                                std::span<const geom::Point> points,
                                std::vector<std::size_t>& out,
                                const BatchOptions& opts = {});

}  // namespace serve
