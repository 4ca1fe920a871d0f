#include "serve/query_engine.hpp"

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>
#include <utility>

#include "fc/search.hpp"
#include "geom/generators.hpp"
#include "helpers.hpp"
#include "pointloc/separator_tree.hpp"
#include "serve/flat_pointloc.hpp"

namespace {

using cat::CatalogShape;
using serve::BatchOptions;
using serve::FlatCascade;
using serve::PathAnswer;
using serve::PathQuery;
using serve::QueryEngine;

struct Fixture {
  cat::Tree tree;
  std::unique_ptr<fc::Structure> s;
  FlatCascade flat;
  std::vector<PathQuery> queries;

  explicit Fixture(std::size_t num_queries, std::uint64_t seed = 21) {
    std::mt19937_64 rng(seed);
    tree = cat::make_balanced_binary(8, 30000, CatalogShape::kRandom, rng);
    s = std::make_unique<fc::Structure>(fc::Structure::build(tree));
    auto f = FlatCascade::compile(*s);
    EXPECT_TRUE(f.ok());
    flat = f.take();
    queries.resize(num_queries);
    for (auto& q : queries) {
      q.path = test_helpers::random_root_leaf_path(tree, rng);
      q.y = test_helpers::random_query(tree, rng);
    }
  }

  void expect_answers_match(const serve::PathAnswerSet& out) const {
    ASSERT_EQ(out.size(), queries.size());
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      const auto oracle = fc::search_explicit(*s, queries[qi].path,
                                              queries[qi].y);
      ASSERT_EQ(out[qi].proper_index.size(), queries[qi].path.size());
      for (std::size_t i = 0; i < queries[qi].path.size(); ++i) {
        ASSERT_EQ(out[qi].proper_index[i], oracle.proper_index[i])
            << "query " << qi << " node " << i;
        ASSERT_EQ(out[qi].aug_index[i], oracle.aug_index[i]);
      }
    }
  }
};

TEST(QueryEngine, GroupedKernelMatchesOracleOnRaggedPaths) {
  // The window kernel must handle slots whose paths end at different
  // steps: full root-leaf paths, truncated paths ending mid-tree, and
  // length-1 paths (root only), interleaved in one batch.
  std::mt19937_64 rng(77);
  const Fixture fx(0);
  std::vector<PathQuery> queries(100);
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    auto path = test_helpers::random_root_leaf_path(fx.tree, rng);
    path.resize(1 + rng() % path.size());
    queries[qi].path = std::move(path);
    queries[qi].y = test_helpers::random_query(fx.tree, rng);
  }
  std::vector<PathAnswer> out(queries.size());
  serve::search_paths_grouped(fx.flat, queries.data(), queries.size(),
                              out.data());
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const auto oracle =
        fc::search_explicit(*fx.s, queries[qi].path, queries[qi].y);
    ASSERT_EQ(out[qi].proper_index.size(), queries[qi].path.size());
    for (std::size_t i = 0; i < queries[qi].path.size(); ++i) {
      ASSERT_EQ(out[qi].proper_index[i], oracle.proper_index[i])
          << "query " << qi << " node " << i;
      ASSERT_EQ(out[qi].aug_index[i], oracle.aug_index[i]);
    }
  }
}

/// A batch of `n` queries whose paths mix every length from the root
/// alone to a full root-leaf path, with repeated queries and paths that
/// are prefixes of an earlier one.
std::vector<PathQuery> mixed_batch(const cat::Tree& tree, std::size_t n,
                                   std::mt19937_64& rng) {
  std::vector<PathQuery> queries(n);
  for (std::size_t qi = 0; qi < n; ++qi) {
    PathQuery& q = queries[qi];
    if (qi > 0 && rng() % 5 == 0) {
      q = queries[rng() % qi];  // a repeat
      if (rng() % 2 == 0) {
        q.path.resize(1 + rng() % q.path.size());  // ... or its prefix
        q.y = test_helpers::random_query(tree, rng);
      }
      continue;
    }
    q.path = test_helpers::random_root_leaf_path(tree, rng);
    q.path.resize(1 + qi % q.path.size());
    q.y = test_helpers::random_query(tree, rng);
  }
  return queries;
}

TEST(QueryEngine, WindowKernelMatchesPerQuerySearchAtEveryBatchSize) {
  // Below, at and past the window and the engine unit (16) and the most
  // one window call runs over (64): slots refill mid-batch, run partly
  // empty, and finish at different steps.
  std::mt19937_64 rng(79);
  const Fixture fx(0);
  for (const std::size_t n : {0, 1, 2, 15, 16, 17, 63, 64, 65, 200}) {
    const std::vector<PathQuery> queries = mixed_batch(fx.tree, n, rng);
    const std::vector<serve::PathRef> refs = serve::path_refs(queries);
    serve::PathAnswerSet out;
    out.reset(std::span<const serve::PathRef>(refs));
    std::vector<std::uint32_t*> ap(n), pp(n);
    for (std::size_t q = 0; q < n; ++q) {
      ap[q] = out.aug_data(q);
      pp[q] = out.proper_data(q);
    }
    EXPECT_FALSE(serve::search_paths_grouped_into(fx.flat, refs.data(), n,
                                                  ap.data(), pp.data()));
    for (std::size_t qi = 0; qi < n; ++qi) {
      const PathQuery& q = queries[qi];
      const auto one = fx.flat.search(q.path, q.y);
      ASSERT_EQ(out.aug(qi).size(), q.path.size());
      for (std::size_t i = 0; i < q.path.size(); ++i) {
        ASSERT_EQ(out.aug(qi)[i], one.aug_index[i])
            << "n=" << n << " query " << qi << " node " << i;
        ASSERT_EQ(out.proper(qi)[i], one.proper_index[i])
            << "n=" << n << " query " << qi << " node " << i;
      }
    }
    // The engine's units split the same batch, on one thread and on
    // several.
    for (const std::size_t threads : {1, 3}) {
      QueryEngine engine(threads);
      serve::PathAnswerSet served;
      (void)serve::serve_path_queries(fx.flat, engine, queries, served);
      for (std::size_t qi = 0; qi < n; ++qi) {
        ASSERT_TRUE(std::ranges::equal(served.proper(qi), out.proper(qi)))
            << "n=" << n << " threads=" << threads << " query " << qi;
        ASSERT_TRUE(std::ranges::equal(served.aug(qi), out.aug(qi)));
      }
    }
  }
}

TEST(QueryEngine, WindowKernelRefusesEveryBrokenPathLikeValidatePath) {
  // One broken query among valid ones, at the start, inside, at the end
  // of the first engine unit and in the second: the kernel reports that
  // query, with exactly validate_path's Status for its path.
  std::mt19937_64 rng(80);
  const Fixture fx(0);
  std::vector<PathQuery> queries(70);
  for (PathQuery& q : queries) {
    q.path = test_helpers::random_root_leaf_path(fx.tree, rng);
    q.y = test_helpers::random_query(fx.tree, rng);
  }
  std::vector<PathAnswer> out(queries.size());
  std::size_t cases = 0, want_cases = 0;
  for (const std::size_t k : {0, 5, 63, 64, 69}) {
    const std::vector<cat::NodeId> good = queries[k].path;
    want_cases += 1 + 4 + 5 * (good.size() - 1);
    for (const auto& broken : test_helpers::broken_paths(fx.tree, good)) {
      const coop::Status want = fx.flat.validate_path(broken);
      ASSERT_FALSE(want.ok());
      queries[k].path = broken;
      const serve::PathFault fault = serve::search_paths_grouped(
          fx.flat, queries.data(), queries.size(), out.data());
      ASSERT_TRUE(fault) << want.to_string();
      EXPECT_EQ(fault.query, k);
      EXPECT_EQ(fault.status().code(), want.code());
      EXPECT_EQ(fault.status().message(), want.message());
      // A later broken query does not hide this one.
      if (k + 1 < queries.size()) {
        const std::vector<cat::NodeId> later = queries[k + 1].path;
        queries[k + 1].path = {};
        const serve::PathFault first = serve::search_paths_grouped(
            fx.flat, queries.data(), queries.size(), out.data());
        EXPECT_EQ(first.query, k);
        EXPECT_EQ(first.status().message(), want.message());
        queries[k + 1].path = later;
      }
      ++cases;
    }
    queries[k].path = good;
  }
  EXPECT_EQ(cases, want_cases);
  EXPECT_FALSE(serve::search_paths_grouped(fx.flat, queries.data(),
                                           queries.size(), out.data()));
}

TEST(QueryEngine, WindowKernelRefusesChainsStartingBelowTheRoot) {
  // The in-process API once answered chains from any head; the kernel
  // now checks the head like validate_path does.  The first chain that
  // does not start at the root is the batch's refusal.
  std::mt19937_64 rng(78);
  const Fixture fx(0);
  std::vector<PathQuery> queries(100);
  std::size_t first_bad = queries.size();
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    queries[qi].path = qi % 3 == 0
                           ? test_helpers::random_root_leaf_path(fx.tree, rng)
                           : test_helpers::random_chain(fx.tree, rng);
    queries[qi].y = test_helpers::random_query(fx.tree, rng);
    if (first_bad == queries.size() &&
        !fx.flat.validate_path(queries[qi].path).ok()) {
      first_bad = qi;
    }
  }
  ASSERT_LT(first_bad, queries.size());
  std::vector<PathAnswer> out(queries.size());
  const serve::PathFault fault = serve::search_paths_grouped(
      fx.flat, queries.data(), queries.size(), out.data());
  EXPECT_EQ(fault.query, first_bad);
  EXPECT_EQ(fault.kind, serve::PathFault::Kind::kNotRoot);
  EXPECT_EQ(fault.status().message(),
            fx.flat.validate_path(queries[first_bad].path).message());
}

TEST(QueryEngine, BatchMatchesOracleAcrossThreadCounts) {
  const Fixture fx(500);
  for (std::size_t threads : {1u, 2u, 4u}) {
    QueryEngine engine(threads);
    EXPECT_EQ(engine.threads(), threads);
    serve::PathAnswerSet out;
    const auto report =
        serve::serve_path_queries(fx.flat, engine, fx.queries, out);
    EXPECT_FALSE(report.degraded) << report.reason;
    fx.expect_answers_match(out);
  }
}

TEST(QueryEngine, ReusableAcrossBatches) {
  const Fixture fx(200);
  QueryEngine engine(2);
  for (int round = 0; round < 3; ++round) {
    serve::PathAnswerSet out;
    const auto report =
        serve::serve_path_queries(fx.flat, engine, fx.queries, out);
    EXPECT_FALSE(report.degraded);
    fx.expect_answers_match(out);
  }
}

// threads == 0 sizes the pool from the CPUs the process may use, not
// the host's count: pinned to one CPU, the engine runs inline.
TEST(QueryEngine, DefaultSizeFollowsTheAffinityMask) {
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &saved)) {
    ++cpu;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const std::size_t threads = QueryEngine(0).threads();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(threads, 1u);
}

TEST(QueryEngine, EmptyBatch) {
  QueryEngine engine(2);
  const auto report = engine.for_each(0, [](std::size_t) { FAIL(); });
  EXPECT_FALSE(report.degraded);
  EXPECT_EQ(report.shards, 0u);
}

TEST(QueryEngine, ForEachRangeHandsOutDisjointRangesThatCoverTheBatch) {
  // Inline, the whole batch is one range; on the pool, each range is one
  // claimed shard.
  for (const std::size_t threads : {1, 3}) {
    QueryEngine engine(threads);
    BatchOptions opts;
    opts.shard_size = 4;
    std::vector<int> hits(50, 0);
    std::mutex mu;
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    const auto report = engine.for_each_range(
        hits.size(),
        [&](std::size_t begin, std::size_t end) {
          std::lock_guard<std::mutex> lock(mu);
          ranges.emplace_back(begin, end);
          for (std::size_t i = begin; i < end; ++i) {
            ++hits[i];
          }
        },
        opts);
    EXPECT_FALSE(report.degraded);
    EXPECT_TRUE(std::ranges::all_of(hits, [](int h) { return h == 1; }))
        << "threads=" << threads;
    if (threads == 1) {
      ASSERT_EQ(ranges.size(), 1u);
      EXPECT_EQ(ranges[0], std::make_pair(std::size_t{0}, hits.size()));
    } else {
      EXPECT_EQ(ranges.size(), 13u);
      for (const auto& [begin, end] : ranges) {
        EXPECT_EQ(begin % 4, 0u);
        EXPECT_EQ(end, std::min(begin + 4, hits.size()));
      }
    }
  }
}

TEST(QueryEngine, EmptyPathSpanClearsOutputWithoutDegrading) {
  // Regression: an empty batch must early-return before sharding (the
  // n == 0 fast path in for_each), clear any stale output, and never be
  // reported degraded — with or without a deadline armed.
  const Fixture fx(5);
  QueryEngine engine(2);
  serve::PathAnswerSet out;  // stale entries must not survive
  (void)serve::serve_path_queries(fx.flat, engine, fx.queries, out);
  ASSERT_EQ(out.size(), 5u);
  BatchOptions opts;
  opts.deadline = std::chrono::nanoseconds(1);
  const auto report =
      serve::serve_path_queries(fx.flat, engine, {}, out, opts);
  EXPECT_FALSE(report.degraded);
  EXPECT_EQ(out.size(), 0u);
}

TEST(QueryEngine, EmptyPointSpanClearsOutputWithoutDegrading) {
  std::mt19937_64 rng(5);
  const auto sub = geom::make_random_monotone(60, 6, rng);
  auto st = pointloc::SeparatorTree::build_checked(sub);
  ASSERT_TRUE(st.ok());
  auto flat = serve::FlatPointLocator::compile(*st);
  ASSERT_TRUE(flat.ok());
  QueryEngine engine(2);
  std::vector<std::size_t> out(5);
  const auto report = serve::serve_point_queries(*flat, engine, {}, out);
  EXPECT_FALSE(report.degraded);
  EXPECT_EQ(out.size(), 0u);
}

TEST(QueryEngine, DegradesOnTransientWorkerException) {
  // run_resilient discipline: a worker that throws abandons the parallel
  // attempt, and the batch is re-run sequentially — the caller still gets
  // every answer plus a degradation report, never a torn batch.
  QueryEngine engine(2);
  std::atomic<bool> thrown{false};
  std::vector<int> out(1000, 0);
  BatchOptions opts;
  opts.shard_size = 16;
  const auto report = engine.for_each(
      out.size(),
      [&](std::size_t i) {
        if (i == 357 && !thrown.exchange(true)) {
          throw std::runtime_error("transient query fault");
        }
        out[i] = static_cast<int>(i) + 1;
      },
      opts);
  EXPECT_TRUE(report.degraded);
  EXPECT_NE(report.reason.find("worker exception"), std::string::npos)
      << report.reason;
  EXPECT_EQ(report.threads_used, 1u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], static_cast<int>(i) + 1);
  }
}

TEST(QueryEngine, DegradesOnDeadline) {
  QueryEngine engine(2);
  std::vector<int> out(64, 0);
  BatchOptions opts;
  opts.shard_size = 1;
  opts.deadline = std::chrono::nanoseconds(1);
  const auto report = engine.for_each(
      out.size(),
      [&](std::size_t i) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        out[i] = 1;
      },
      opts);
  // The watchdog fires during the parallel attempt; the sequential rerun
  // (which, like run_resilient's fallback, is not deadline-guarded) still
  // completes the batch.
  EXPECT_TRUE(report.degraded);
  EXPECT_NE(report.reason.find("deadline"), std::string::npos);
  for (int v : out) {
    ASSERT_EQ(v, 1);
  }
}

TEST(QueryEngine, DeadlineMidGroupedBatchDegradesToSequentialRerun) {
  // Regression: a deadline expiring while serve_path_queries is inside the
  // grouped lockstep kernel must not tear the batch.  The parallel attempt
  // is abandoned wholesale, the sequential rerun recomputes every answer,
  // and the degradation is recorded in the report — callers see correct
  // answers plus `degraded`, never a half-written answer vector.
  const Fixture fx(400);
  QueryEngine engine(2);
  BatchOptions opts;
  opts.shard_size = 1;  // many shards => every worker polls the deadline
  opts.deadline = std::chrono::nanoseconds(1);
  serve::PathAnswerSet out;
  const auto report =
      serve::serve_path_queries(fx.flat, engine, fx.queries, out, opts);
  EXPECT_TRUE(report.degraded);
  EXPECT_NE(report.reason.find("deadline"), std::string::npos)
      << report.reason;
  EXPECT_EQ(report.threads_used, 1u);
  fx.expect_answers_match(out);
}

TEST(QueryEngine, ConcurrentCallersEachGetTheirFullBatch) {
  // Regression: the batch submitter releases the pool mutex while it waits
  // for the drain, so without whole-batch serialization a second for_each
  // could republish the shared batch state mid-drain and the first caller
  // would return non-degraded with none of its items executed.  Hammer the
  // pool from several threads and require every caller's output complete.
  QueryEngine engine(4);
  constexpr std::size_t kCallers = 6;
  constexpr std::size_t kRounds = 50;
  constexpr std::size_t kItems = 64;
  std::atomic<std::uint64_t> incomplete{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&engine, &incomplete, c] {
      BatchOptions opts;
      opts.shard_size = 1;  // many shards => maximal interleaving windows
      if (c % 2 == 0) {
        opts.deadline = std::chrono::nanoseconds(1);  // instant-abort mix
      }
      std::vector<int> out(kItems);
      for (std::size_t round = 0; round < kRounds; ++round) {
        std::fill(out.begin(), out.end(), 0);
        engine.for_each(
            kItems, [&out](std::size_t i) { out[i] = 1; }, opts);
        for (int v : out) {
          if (v != 1) {
            incomplete.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& t : callers) {
    t.join();
  }
  EXPECT_EQ(incomplete.load(), 0u);
}

TEST(QueryEngine, SingleThreadRunsInline) {
  QueryEngine engine(1);
  std::vector<int> out(100, 0);
  const auto report =
      engine.for_each(out.size(), [&](std::size_t i) { out[i] = 1; });
  EXPECT_FALSE(report.degraded);
  EXPECT_EQ(report.threads_used, 1u);
  for (int v : out) {
    ASSERT_EQ(v, 1);
  }
}

}  // namespace
