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

/// Group-kernel occupancy: queries / (groups * kPathGroup) measures how
/// full the lockstep groups run.  Two relaxed adds per kernel call (one
/// call serves up to a whole shard), so the kernel's hot loops stay
/// untouched.
struct GroupKernelMetrics {
  obs::Counter groups;
  obs::Counter queries;
};

GroupKernelMetrics& group_kernel_metrics() {
  auto& r = obs::Registry::global();
  static GroupKernelMetrics m{
      r.counter("serve_group_kernel_groups_total",
                "Lockstep groups executed by search_paths_grouped"),
      r.counter("serve_group_kernel_queries_total",
                "Queries served by search_paths_grouped"),
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
    for (std::size_t i = 0; i < n; ++i) {
      fn(i);
    }
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
  for (std::size_t i = 0; i < n; ++i) {
    fn(i);
  }
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
    std::size_t n, std::size_t shard_size,
    const std::function<void(std::size_t)>& fn,
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
    const std::function<void(std::size_t)>* fn = nullptr;
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
        for (std::size_t i = begin; i < end; ++i) {
          (*fn)(i);
        }
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

/// One lockstep group (g <= kPathGroup queries): the inner kernel of
/// search_paths_grouped_into.  All per-query loop state lives in local
/// arrays (registers/L1) and every pool access goes through the
/// KernelView base pointers — no member-function or vector-size reload
/// per phase.  Round 0 runs all g multiway descents through the
/// software-pipelined simd::lower_bound_grouped; each bridge hop then
/// runs in phases with the next phase's lines prefetched across the
/// whole group, so per-hop cache misses overlap across queries instead
/// of serializing along one query's dependency chain.
void run_path_group(const FlatCascade::KernelView& kv, const PathRef* queries,
                    std::size_t g, std::uint32_t* const* out_aug,
                    std::uint32_t* const* out_prop) {
  const NodeId* path[kPathGroup];
  std::size_t len[kPathGroup];
  Key y[kPathGroup];
  const FlatNode* cur[kPathGroup];
  const FlatNode* nxt[kPathGroup];
  std::uint32_t idx[kPathGroup];
  std::uint32_t pos[kPathGroup];
  const std::uint32_t* cell[kPathGroup];
  simd::GroupedQuery gq[kPathGroup];
  std::uint32_t head[kPathGroup];

  std::size_t maxlen = 0;
  for (std::size_t q = 0; q < g; ++q) {
    path[q] = queries[q].path;
    len[q] = queries[q].len;
    y[q] = queries[q].y;
    maxlen = std::max(maxlen, len[q]);
  }
  // Round 0: lockstep multiway descents at the paths' heads (usually all
  // the root, whose top blocks stay hot across the group).
  for (std::size_t q = 0; q < g; ++q) {
    if (len[q] == 0) {
      gq[q] = simd::GroupedQuery{};  // n == 0: skipped by the kernel
      continue;
    }
    const auto v0 = static_cast<std::uint32_t>(path[q][0]);
    const FlatNode* nd = &kv.nodes[v0];
    const std::uint32_t off = kv.simd_off[v0];
    gq[q] = simd::GroupedQuery{kv.simd_keys + off, kv.simd_pos + off,
                               nd->key_count, y[q]};
    cur[q] = nd;
  }
  simd::lower_bound_grouped(gq, head, g);
  for (std::size_t q = 0; q < g; ++q) {
    if (len[q] > 0) {
      idx[q] = head[q];
      out_aug[q][0] = idx[q];
      out_prop[q][0] = kv.proper[cur[q]->key_off + idx[q]];
    }
  }
  // One bridge hop per round for every query still on its path.
  for (std::size_t step = 1; step < maxlen; ++step) {
    // Phase 0: next nodes' metadata.
    for (std::size_t q = 0; q < g; ++q) {
      if (step < len[q]) {
        __builtin_prefetch(&kv.nodes[path[q][step]]);
      }
    }
    // Phase 1: bridge cells.
    for (std::size_t q = 0; q < g; ++q) {
      if (step < len[q]) {
        nxt[q] = &kv.nodes[path[q][step]];
        cell[q] = kv.bridge + cur[q]->bridge_off +
                  std::size_t{nxt[q]->slot} * cur[q]->key_count + idx[q];
        __builtin_prefetch(cell[q]);
      }
    }
    // Phase 2: landing positions + the key/proper lines the walk-back
    // will touch (it moves at most kv.fanout entries left).
    for (std::size_t q = 0; q < g; ++q) {
      if (step < len[q]) {
        pos[q] = *cell[q];
        const std::uint32_t back = pos[q] > kv.fanout ? pos[q] - kv.fanout : 0;
        __builtin_prefetch(kv.keys + nxt[q]->key_off + back);
        __builtin_prefetch(kv.proper + nxt[q]->key_off + back);
      }
    }
    // Phase 3: walk-backs + answers.
    for (std::size_t q = 0; q < g; ++q) {
      if (step < len[q]) {
        const Key* wk = kv.keys + nxt[q]->key_off;
        std::uint32_t p = pos[q];
        while (p > 0 && wk[p - 1] >= y[q]) {
          --p;
        }
        idx[q] = p;
        cur[q] = nxt[q];
        out_aug[q][step] = p;
        out_prop[q][step] = kv.proper[nxt[q]->key_off + p];
      }
    }
  }
}

}  // namespace

void search_paths_grouped_into(const FlatCascade& f, const PathRef* queries,
                               std::size_t count,
                               std::uint32_t* const* out_aug,
                               std::uint32_t* const* out_proper) {
  if (count > 0) {
    GroupKernelMetrics& gm = group_kernel_metrics();
    gm.groups.add(path_groups(count));
    gm.queries.add(count);
  }
  const FlatCascade::KernelView kv = f.kernel_view();
  while (count > 0) {
    const std::size_t g = std::min(count, kPathGroup);
    run_path_group(kv, queries, g, out_aug, out_proper);
    queries += g;
    out_aug += g;
    out_proper += g;
    count -= g;
  }
}

void search_paths_grouped_into(const FlatCascade& f, const PathQuery* queries,
                               std::size_t count,
                               std::uint32_t* const* out_aug,
                               std::uint32_t* const* out_proper) {
  for (std::size_t at = 0; at < count; at += kPathGroup) {
    const std::size_t g = std::min(count - at, kPathGroup);
    PathRef refs[kPathGroup];
    for (std::size_t q = 0; q < g; ++q) {
      refs[q] = path_ref(queries[at + q]);
    }
    search_paths_grouped_into(f, refs, g, out_aug + at, out_proper + at);
  }
}

void search_paths_grouped(const FlatCascade& f, const PathQuery* queries,
                          std::size_t count, PathAnswer* out) {
  for (std::size_t at = 0; at < count; at += kPathGroup) {
    const std::size_t g = std::min(count - at, kPathGroup);
    std::uint32_t* ap[kPathGroup];
    std::uint32_t* pp[kPathGroup];
    for (std::size_t q = 0; q < g; ++q) {
      const std::size_t len = queries[at + q].path.size();
      out[at + q].aug_index.resize(len);
      out[at + q].proper_index.resize(len);
      ap[q] = out[at + q].aug_index.data();
      pp[q] = out[at + q].proper_index.data();
    }
    search_paths_grouped_into(f, queries + at, g, ap, pp);
  }
}

namespace {

template <typename Q>
void serve_group(const FlatCascade& f, std::span<const Q> queries,
                 std::size_t gi, PathAnswerSet& out) {
  const std::size_t begin = gi * kPathGroup;
  const std::size_t g = std::min(kPathGroup, queries.size() - begin);
  std::uint32_t* ap[kPathGroup];
  std::uint32_t* pp[kPathGroup];
  for (std::size_t q = 0; q < g; ++q) {
    ap[q] = out.aug_data(begin + q);
    pp[q] = out.proper_data(begin + q);
  }
  search_paths_grouped_into(f, queries.data() + begin, g, ap, pp);
}

}  // namespace

void serve_path_group(const FlatCascade& f, std::span<const PathRef> queries,
                      std::size_t gi, PathAnswerSet& out) {
  serve_group(f, queries, gi, out);
}

void serve_path_group(const FlatCascade& f,
                      std::span<const PathQuery> queries, std::size_t gi,
                      PathAnswerSet& out) {
  serve_group(f, queries, gi, out);
}

BatchReport serve_path_queries(const FlatCascade& f, QueryEngine& engine,
                               std::span<const PathQuery> queries,
                               PathAnswerSet& out,
                               const BatchOptions& opts) {
  out.reset(queries);
  return engine.for_each(
      path_groups(queries.size()),
      [&](std::size_t gi) { serve_path_group(f, queries, gi, out); }, opts);
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
