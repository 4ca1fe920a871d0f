#include "serve/query_engine.hpp"

#include <sched.h>

#include <algorithm>

#include "catalog/tree.hpp"
#include "obs/metrics.hpp"

namespace serve {

namespace {

/// Engine-level metrics (DESIGN.md §10).  Handles resolve once; the batch
/// path then pays a handful of relaxed atomic adds per *batch*, and the
/// worker loop flushes its shard-claim count once per batch per worker.
struct EngineMetrics {
  obs::Counter batches;
  obs::Counter batches_inline;
  obs::Counter degraded_deadline;
  obs::Counter degraded_exception;
  obs::Counter shard_claims;
  obs::Gauge inflight;
  obs::Histogram batch_queries;
  obs::Histogram batch_latency_ns;
};

EngineMetrics& engine_metrics() {
  auto& r = obs::Registry::global();
  static EngineMetrics m{
      r.counter("serve_engine_batches_total", "Batches executed"),
      r.counter("serve_engine_batches_inline_total",
                "Batches run inline on the calling thread"),
      r.counter("serve_engine_degraded_deadline_total",
                "Batches degraded to sequential rerun by deadline expiry"),
      r.counter("serve_engine_degraded_exception_total",
                "Batches degraded to sequential rerun by a worker exception"),
      r.counter("serve_engine_shard_claims_total",
                "Shards claimed from the batch cursor by pool workers"),
      r.gauge("serve_engine_inflight_batches",
              "Batches submitted and not yet drained (queue depth)"),
      r.histogram("serve_engine_batch_queries", obs::exponential_bounds(),
                  "Batch size in work items"),
      r.histogram("serve_engine_batch_latency_ns", obs::latency_bounds_ns(),
                  "Wall time per batch, ns"),
  };
  return m;
}

/// Path-kernel occupancy: queries / (groups * kPathGroup) measures how
/// full the engine units run.  Two relaxed adds per kernel call, so the
/// kernel's hot loop stays untouched.
struct GroupKernelMetrics {
  obs::Counter groups;
  obs::Counter queries;
};

GroupKernelMetrics& group_kernel_metrics() {
  auto& r = obs::Registry::global();
  static GroupKernelMetrics m{
      r.counter("serve_group_kernel_groups_total",
                "Engine units (kPathGroup queries) run by the path kernel"),
      r.counter("serve_group_kernel_queries_total",
                "Queries served by the path kernel"),
  };
  return m;
}

/// CPUs this process may run on: the affinity mask (a cpuset or taskset
/// narrows it), not the host's count, so a pinned server neither starts
/// idle workers nor spins against itself.
std::size_t default_threads() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) {
      return static_cast<std::size_t>(n);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t default_shard_size(std::size_t n, std::size_t threads) {
  // Aim for several shards per thread so stragglers rebalance, but keep
  // shards big enough that the atomic cursor is cold compared to the
  // query work itself.  Claim boundaries round to 8 items so two workers
  // never write answer words on the same cache line (out[] slots are 8
  // bytes in the point path); tiny batches keep shard 1 — there, spreading
  // the few items across the pool beats alignment.
  std::size_t target = std::max<std::size_t>(1, n / (threads * 8));
  if (target > 1) {
    target = (target + 7) / 8 * 8;
  }
  return std::clamp<std::size_t>(target, 1, 1024);
}

/// One PAUSE/YIELD between polls of a spin loop.
inline void cpu_relax() {
#if defined(__x86_64__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Bounded spin before parking in a condvar (workers awaiting a batch,
/// the submitter awaiting the drain).  ~4k PAUSEs is tens of
/// microseconds — enough to bridge back-to-back smoke batches (~100 us
/// apart), bounded so an idle pool still sleeps.  Spinning is only
/// enabled when the pool fits the machine (QueryEngine ctor): on an
/// oversubscribed host, burning a core while the peer you are waiting on
/// is descheduled makes scaling *worse*, which is exactly the negative
/// thread scaling the 1-vCPU smoke baselines showed.
inline constexpr int kSpinIters = 4096;

}  // namespace

const char* to_string(DegradeCause c) {
  switch (c) {
    case DegradeCause::kNone: return "none";
    case DegradeCause::kDeadline: return "deadline";
    case DegradeCause::kException: return "exception";
  }
  return "?";
}

QueryEngine::QueryEngine(std::size_t threads)
    : threads_(threads == 0 ? default_threads() : threads) {
  spin_ = threads_ > 1 && threads_ <= default_threads();
  if (threads_ > 1) {
    workers_.reserve(threads_);
    for (std::size_t w = 0; w < threads_; ++w) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }
}

QueryEngine::~QueryEngine() {
  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      shutdown_.store(true, std::memory_order_relaxed);
    }
    work_cv_.notify_all();
    for (auto& t : workers_) {
      t.join();
    }
  }
}

BatchReport QueryEngine::for_each(std::size_t n,
                                  const std::function<void(std::size_t)>& fn,
                                  const BatchOptions& opts) {
  return for_each_range(
      n,
      [&fn](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          fn(i);
        }
      },
      opts);
}

BatchReport QueryEngine::for_each_range(std::size_t n, const RangeFn& fn,
                                        const BatchOptions& opts) {
  BatchReport report;
  if (n == 0) {
    report.threads_used = 1;
    return report;
  }
  EngineMetrics& em = engine_metrics();
  em.batches.inc();
  em.batch_queries.record(n);
  em.inflight.add(1);
  const auto batch_start = std::chrono::steady_clock::now();
  const auto finish = [&em, batch_start] {
    em.inflight.add(-1);
    em.batch_latency_ns.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - batch_start)
            .count()));
  };
  const std::size_t shard_size =
      opts.shard_size == 0 ? default_shard_size(n, threads_) : opts.shard_size;
  const bool armed = opts.deadline.count() > 0;
  const auto deadline_at = std::chrono::steady_clock::now() + opts.deadline;

  if (workers_.empty() || n <= shard_size) {
    // Inline fast path: a single-thread engine or a batch that fits one
    // shard.  The deadline is not polled here — an inline run IS the
    // sequential fallback.
    em.batches_inline.inc();
    fn(0, n);
    report.shards = 1;
    report.threads_used = 1;
    finish();
    return report;
  }

  std::string fail_reason;
  if (run_parallel(n, shard_size, fn, deadline_at, armed, fail_reason)) {
    report.shards = (n + shard_size - 1) / shard_size;
    report.threads_used = threads_;
    finish();
    return report;
  }

  // Degradation (run_resilient discipline): the parallel attempt is fully
  // drained above, so re-running every index sequentially cannot race
  // with a stale worker; per-index idempotence makes the rerun safe.
  const bool deadline_hit = fail_reason.rfind("deadline", 0) == 0;
  if (deadline_hit) {
    em.degraded_deadline.inc();
  } else {
    em.degraded_exception.inc();
  }
  fn(0, n);
  report.degraded = true;
  report.reason = fail_reason;
  report.cause =
      deadline_hit ? DegradeCause::kDeadline : DegradeCause::kException;
  report.shards = 1;
  report.threads_used = 1;
  finish();
  return report;
}

bool QueryEngine::run_parallel(
    std::size_t n, std::size_t shard_size, const RangeFn& fn,
    std::chrono::steady_clock::time_point deadline_at, bool deadline_armed,
    std::string& fail_reason) {
  // One batch owns the pool at a time, submission through drain.
  std::lock_guard<std::mutex> batch_lock(submit_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    fn_ = &fn;
    batch_n_ = n;
    shard_size_ = shard_size;
    num_shards_ = (n + shard_size - 1) / shard_size;
    next_shard_.store(0, std::memory_order_relaxed);
    abort_.store(false, std::memory_order_relaxed);
    error_ = nullptr;
    deadline_at_ = deadline_at;
    deadline_armed_ = deadline_armed;
    remaining_.store(workers_.size(), std::memory_order_release);
    generation_.fetch_add(1, std::memory_order_release);
  }
  work_cv_.notify_all();
  // Drain: spin briefly (smoke-size batches finish in ~100 us, well under
  // a condvar round trip when a worker must be woken), then park.
  if (spin_) {
    for (int s = 0; s < kSpinIters; ++s) {
      if (remaining_.load(std::memory_order_acquire) == 0) {
        break;
      }
      cpu_relax();
    }
  }
  if (remaining_.load(std::memory_order_acquire) != 0) {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] {
      return remaining_.load(std::memory_order_relaxed) == 0;
    });
  }
  // All workers have left the batch (the acquire load / condvar wait above
  // orders their writes before these reads).
  std::lock_guard<std::mutex> lock(mutex_);
  fn_ = nullptr;
  if (error_ != nullptr) {
    try {
      std::rethrow_exception(std::exchange(error_, nullptr));
    } catch (const std::exception& e) {
      fail_reason = std::string("worker exception: ") + e.what();
    } catch (...) {
      fail_reason = "worker exception: (non-standard)";
    }
    return false;
  }
  if (abort_.load(std::memory_order_relaxed)) {
    fail_reason = "deadline expired mid-batch";
    return false;
  }
  return true;
}

void QueryEngine::worker_loop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    const RangeFn* fn = nullptr;
    std::size_t n = 0, shard_size = 1, num_shards = 0;
    std::chrono::steady_clock::time_point deadline_at;
    bool deadline_armed = false;
    // Spin for the next batch before parking: back-to-back batches reuse
    // a running worker with no futex round trip.
    if (spin_) {
      for (int s = 0; s < kSpinIters; ++s) {
        if (shutdown_.load(std::memory_order_relaxed) ||
            generation_.load(std::memory_order_acquire) != seen_generation) {
          break;
        }
        cpu_relax();
      }
    }
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] {
        return shutdown_.load(std::memory_order_relaxed) ||
               generation_.load(std::memory_order_relaxed) != seen_generation;
      });
      if (shutdown_.load(std::memory_order_relaxed)) {
        return;
      }
      seen_generation = generation_.load(std::memory_order_relaxed);
      fn = fn_;
      n = batch_n_;
      shard_size = shard_size_;
      num_shards = num_shards_;
      deadline_at = deadline_at_;
      deadline_armed = deadline_armed_;
    }
    std::uint64_t claims = 0;
    while (!abort_.load(std::memory_order_relaxed)) {
      if (deadline_armed && std::chrono::steady_clock::now() >= deadline_at) {
        abort_.store(true, std::memory_order_relaxed);
        break;
      }
      const std::size_t shard =
          next_shard_.fetch_add(1, std::memory_order_relaxed);
      if (shard >= num_shards) {
        break;
      }
      ++claims;
      const std::size_t begin = shard * shard_size;
      const std::size_t end = std::min(n, begin + shard_size);
      try {
        (*fn)(begin, end);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(mutex_);
          if (error_ == nullptr) {
            error_ = std::current_exception();
          }
        }
        abort_.store(true, std::memory_order_relaxed);
        break;
      }
    }
    if (claims > 0) {
      engine_metrics().shard_claims.add(claims);
    }
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Empty critical section: pairs with the submitter's predicate check
      // so the notify cannot slip between its check and its sleep.
      { std::lock_guard<std::mutex> lock(mutex_); }
      done_cv_.notify_all();
    }
  }
}

namespace {

/// One in-flight query of the window kernel: where it is on its path and
/// what its next step reads.
struct Slot {
  enum Stage : std::uint8_t {
    kFree,  ///< no query
    kCell,  ///< the next hop's bridge cell is prefetched
    kWalk,  ///< the landing entry lines are prefetched
  };
  const NodeId* path = nullptr;
  std::uint32_t len = 0;
  std::uint32_t step = 0;  ///< the path position the next hop lands on
  Key y = 0;
  std::size_t q = 0;                    ///< query index
  const FlatNode* from = nullptr;       ///< node at step - 1
  const FlatNode* to = nullptr;         ///< node at step
  const std::uint32_t* hi = nullptr;    ///< its high words (wide nodes only)
  const std::uint32_t* cell = nullptr;  ///< bridge cell of the hop from -> to
  std::uint32_t idx = 0;                ///< answer at step - 1
  std::uint32_t pos = 0;                ///< bridge landing at step
  Stage stage = kFree;
};

/// Keep the fault of the lowest query: the one a path-by-path check in
/// batch order would have refused first.
void note(PathFault& first, PathFault::Kind kind, std::uint32_t pos,
          std::size_t q) {
  if (!first || q < first.query) {
    first = PathFault{kind, pos, q};
  }
}

/// Aim `s` at its next hop: check path[step] where it is loaded (a node
/// id, and a child of path[step - 1]), then prefetch the bridge cell of
/// the hop.  False when the path is finished or refused.
inline bool aim(const FlatCascade::KernelView& kv, Slot& s, PathFault& fault) {
  if (s.step == s.len) {
    return false;
  }
  const NodeId v = s.path[s.step];
  if (v < 0 || static_cast<std::uint32_t>(v) >= kv.num_nodes) {
    note(fault, PathFault::Kind::kOutOfRange, s.step, s.q);
    return false;
  }
  const FlatNode* to = kv.nodes + v;
  if (to->parent != s.path[s.step - 1]) {
    note(fault, PathFault::Kind::kBrokenChain, s.step, s.q);
    return false;
  }
  s.to = to;
  s.hi = kv.high_words(static_cast<std::uint32_t>(v));
  s.cell = kv.bridge + s.from->bridge_off +
           std::size_t{to->slot} * s.from->key_count + s.idx;
  __builtin_prefetch(s.cell);
  s.stage = Slot::kCell;
  return true;
}

/// The window kernel (DESIGN.md §12): up to kPathWindow queries in
/// flight, each a small state machine that issues one dependent load per
/// visit and prefetches the next, visited round robin, so one query's
/// miss is covered by the other queries' work.  A slot whose query
/// finishes takes the next query at once.  Every node is checked where
/// it is loaded; the lowest refused query is returned.
PathFault run_window(const FlatCascade::KernelView& kv, const PathRef* queries,
                     std::size_t n, std::uint32_t* const* out_aug,
                     std::uint32_t* const* out_prop) {
  PathFault fault;
  Slot slots[kPathWindow];
  const std::size_t w = std::min(n, kPathWindow);
  std::size_t next = 0;
  const FlatNode* root = kv.nodes;
  const std::uint32_t* root_hi = kv.high_words(0);
  // Start queries in `s` until one has a hop to make: check its head,
  // binary-search the root (the paper's Step 1 at p = 1) and aim.
  const auto fill = [&](Slot& s) {
    while (next < n) {
      const std::size_t q = next++;
      const PathRef& r = queries[q];
      if (r.len == 0) {
        note(fault, PathFault::Kind::kEmpty, 0, q);
        continue;
      }
      if (r.path[0] != 0) {  // the root is node 0
        note(fault, PathFault::Kind::kNotRoot, 0, q);
        continue;
      }
      const FlatEntry* re = kv.entries + root->key_off;
      const std::uint32_t i = FlatCascade::find_sorted(
          re, root_hi, root->key_count,
          FlatCascade::query_offset(r.y, root->base, root_hi));
      out_aug[q][0] = i;
      out_prop[q][0] = re[i].proper;
      s.path = r.path;
      s.len = r.len;
      s.step = 1;
      s.y = r.y;
      s.q = q;
      s.from = root;
      s.idx = i;
      if (aim(kv, s, fault)) {
        return true;
      }
    }
    s.stage = Slot::kFree;
    return false;
  };
  std::size_t live = 0;
  for (std::size_t k = 0; k < w; ++k) {
    live += fill(slots[k]) ? 1 : 0;
  }
  while (live > 0) {
    for (std::size_t k = 0; k < w; ++k) {
      Slot& s = slots[k];
      if (s.stage == Slot::kCell) {
        // Landing position; the walk-back moves at most kv.fanout
        // entries left of it.
        s.pos = *s.cell;
        const std::uint32_t back = s.pos > kv.fanout ? s.pos - kv.fanout : 0;
        // Both ends of that range: they straddle a line about half the
        // time.  An entry holds the key offset and the proper index, so
        // the walk-back reads nothing else (a wide node's high words
        // excepted).
        const FlatEntry* e = kv.entries + s.to->key_off;
        __builtin_prefetch(e + back);
        __builtin_prefetch(e + s.pos);
        s.stage = Slot::kWalk;
      } else if (s.stage == Slot::kWalk) {
        const FlatEntry* e = kv.entries + s.to->key_off;
        const std::uint32_t p = FlatCascade::walk_back(
            e, s.hi, s.pos, FlatCascade::query_offset(s.y, s.to->base, s.hi));
        out_aug[s.q][s.step] = p;
        out_prop[s.q][s.step] = e[p].proper;
        s.from = s.to;
        s.idx = p;
        ++s.step;
        if (!aim(kv, s, fault) && !fill(s)) {
          --live;
        }
      }
    }
  }
  return fault;
}

}  // namespace

PathFault search_paths_grouped_into(const FlatCascade& f,
                                    const PathRef* queries, std::size_t count,
                                    std::uint32_t* const* out_aug,
                                    std::uint32_t* const* out_proper) {
  if (count > 0) {
    GroupKernelMetrics& gm = group_kernel_metrics();
    gm.groups.add(path_groups(count));
    gm.queries.add(count);
  }
  return run_window(f.kernel_view(), queries, count, out_aug, out_proper);
}

PathFault search_paths_grouped_into(const FlatCascade& f,
                                    const PathQuery* queries,
                                    std::size_t count,
                                    std::uint32_t* const* out_aug,
                                    std::uint32_t* const* out_proper) {
  PathFault fault;
  for (std::size_t at = 0; at < count; at += kPathRun) {
    const std::size_t g = std::min(count - at, kPathRun);
    PathRef refs[kPathRun];
    for (std::size_t q = 0; q < g; ++q) {
      refs[q] = path_ref(queries[at + q]);
    }
    PathFault part = search_paths_grouped_into(f, refs, g, out_aug + at,
                                               out_proper + at);
    if (part && !fault) {
      part.query += at;
      fault = part;
    }
  }
  return fault;
}

PathFault search_paths_grouped(const FlatCascade& f, const PathQuery* queries,
                               std::size_t count, PathAnswer* out) {
  PathFault fault;
  for (std::size_t at = 0; at < count; at += kPathRun) {
    const std::size_t g = std::min(count - at, kPathRun);
    std::uint32_t* ap[kPathRun];
    std::uint32_t* pp[kPathRun];
    for (std::size_t q = 0; q < g; ++q) {
      const std::size_t len = queries[at + q].path.size();
      out[at + q].aug_index.resize(len);
      out[at + q].proper_index.resize(len);
      ap[q] = out[at + q].aug_index.data();
      pp[q] = out[at + q].proper_index.data();
    }
    PathFault part = search_paths_grouped_into(f, queries + at, g, ap, pp);
    if (part && !fault) {
      part.query += at;
      fault = part;
    }
  }
  return fault;
}

namespace {

template <typename Q>
PathFault serve_units(const FlatCascade& f, std::span<const Q> queries,
                      std::size_t first, std::size_t last,
                      PathAnswerSet& out) {
  const std::size_t end = std::min(queries.size(), last * kPathGroup);
  for (std::size_t at = first * kPathGroup; at < end; at += kPathRun) {
    const std::size_t g = std::min(kPathRun, end - at);
    std::uint32_t* ap[kPathRun];
    std::uint32_t* pp[kPathRun];
    for (std::size_t q = 0; q < g; ++q) {
      ap[q] = out.aug_data(at + q);
      pp[q] = out.proper_data(at + q);
    }
    // A window refuses its lowest query, so the first refusing window
    // holds the lowest refused query of the range.
    PathFault fault =
        search_paths_grouped_into(f, queries.data() + at, g, ap, pp);
    if (fault) {
      fault.query += at;
      return fault;
    }
  }
  return {};
}

}  // namespace

PathFault serve_path_units(const FlatCascade& f,
                           std::span<const PathRef> queries, std::size_t first,
                           std::size_t last, PathAnswerSet& out) {
  return serve_units(f, queries, first, last, out);
}

PathFault serve_path_units(const FlatCascade& f,
                           std::span<const PathQuery> queries,
                           std::size_t first, std::size_t last,
                           PathAnswerSet& out) {
  return serve_units(f, queries, first, last, out);
}

BatchReport serve_path_queries(const FlatCascade& f, QueryEngine& engine,
                               std::span<const PathQuery> queries,
                               PathAnswerSet& out,
                               const BatchOptions& opts) {
  out.reset(queries);
  return engine.for_each_range(
      path_groups(queries.size()),
      [&](std::size_t first, std::size_t last) {
        (void)serve_path_units(f, queries, first, last, out);
      },
      opts);
}

std::vector<PathRef> path_refs(std::span<const PathQuery> queries) {
  std::vector<PathRef> refs;
  refs.reserve(queries.size());
  for (const PathQuery& q : queries) {
    refs.push_back(path_ref(q));
  }
  return refs;
}

BatchReport serve_point_queries(const FlatPointLocator& loc,
                                QueryEngine& engine,
                                std::span<const geom::Point> points,
                                std::vector<std::size_t>& out,
                                const BatchOptions& opts) {
  out.assign(points.size(), 0);
  return engine.for_each(
      points.size(), [&](std::size_t i) { out[i] = loc.locate(points[i]); },
      opts);
}

std::vector<NodeId> random_path(const cat::Tree& tree, std::mt19937_64& rng) {
  std::vector<NodeId> path{tree.root()};
  while (!tree.is_leaf(path.back())) {
    const auto kids = tree.children(path.back());
    path.push_back(kids[rng() % kids.size()]);
  }
  return path;
}

std::vector<NodeId> root_path(const cat::Tree& tree, NodeId v) {
  std::vector<NodeId> path{v};
  while (path.back() != tree.root()) {
    path.push_back(tree.parent(path.back()));
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<PathQuery> random_path_batch(const cat::Tree& tree,
                                         std::mt19937_64& rng,
                                         std::size_t n) {
  std::vector<PathQuery> batch(n);
  for (PathQuery& q : batch) {
    q.path = random_path(tree, rng);
    q.y = static_cast<Key>(rng() % 1'000'000'000);
  }
  return batch;
}

std::uint64_t count_path_mismatches(const cat::Tree& tree,
                                    std::span<const PathQuery> queries,
                                    const PathAnswerSet& answers) {
  std::uint64_t wrong = 0;
  if (answers.size() > queries.size()) {
    wrong += answers.size() - queries.size();
  }
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const PathQuery& q = queries[qi];
    const std::span<const std::uint32_t> got =
        qi < answers.size() ? answers.proper(qi)
                            : std::span<const std::uint32_t>{};
    if (got.size() > q.path.size()) {
      ++wrong;
    }
    for (std::size_t i = 0; i < q.path.size(); ++i) {
      if (i >= got.size() || got[i] != tree.catalog(q.path[i]).find(q.y)) {
        ++wrong;
      }
    }
  }
  return wrong;
}

}  // namespace serve
