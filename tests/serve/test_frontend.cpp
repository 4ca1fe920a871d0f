#include "serve/frontend.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "fc/build.hpp"
#include "helpers.hpp"
#include "snapshot/registry.hpp"

namespace {

using serve::BatchOptions;
using serve::BatchReport;
using serve::BreakerState;
using serve::ChaosHooks;
using serve::Frontend;
using serve::FrontendOptions;
using serve::HealthState;
using serve::OpenPolicy;
using serve::PathAnswerSet;
using serve::PathQuery;
using serve::QueryEngine;
using snapshot::Registry;
using snapshot::Snapshot;

struct Fixture {
  cat::Tree tree;
  Registry registry;
  std::vector<PathQuery> queries;
  std::vector<serve::PathRef> refs;  ///< views of `queries`
  std::vector<std::vector<std::uint32_t>> expected;

  explicit Fixture(std::size_t num_queries, std::uint64_t seed = 11) {
    std::mt19937_64 rng(seed);
    tree = cat::make_balanced_binary(6, 6000, cat::CatalogShape::kRandom, rng);
    const auto s = fc::Structure::build_checked(tree);
    EXPECT_TRUE(s.ok());
    auto f = serve::FlatCascade::compile(*s);
    EXPECT_TRUE(f.ok());
    registry.publish(Snapshot::in_memory(f.take()));
    queries.resize(num_queries);
    expected.resize(num_queries);
    for (std::size_t qi = 0; qi < num_queries; ++qi) {
      queries[qi].path = test_helpers::random_root_leaf_path(tree, rng);
      queries[qi].y = test_helpers::random_query(tree, rng);
      for (const cat::NodeId v : queries[qi].path) {
        expected[qi].push_back(static_cast<std::uint32_t>(
            tree.catalog(v).find(queries[qi].y)));
      }
    }
    refs = serve::path_refs(queries);
  }

  void expect_correct(const PathAnswerSet& out) const {
    ASSERT_EQ(out.size(), queries.size());
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      ASSERT_EQ(out[qi].proper_index.size(), expected[qi].size());
      for (std::size_t i = 0; i < expected[qi].size(); ++i) {
        ASSERT_EQ(out[qi].proper_index[i], expected[qi][i])
            << "query " << qi << " node " << i;
      }
    }
  }
};

/// A 1 ns deadline with single-group shards: the parallel attempt cannot
/// finish in time, so the engine degrades deterministically.
BatchOptions squeeze() {
  BatchOptions b;
  b.deadline = std::chrono::nanoseconds(1);
  b.shard_size = 1;
  return b;
}

TEST(Frontend, ServesCleanBatchesWithEmptyAttemptTrailTail) {
  Fixture fx(100);
  QueryEngine engine(2);
  Frontend frontend(fx.registry, engine);

  PathAnswerSet out;
  BatchReport report;
  std::uint64_t version = 0;
  ASSERT_TRUE(
      frontend.serve_paths(fx.refs, out, &report, &version).ok());
  fx.expect_correct(out);
  EXPECT_EQ(version, 1u);
  EXPECT_FALSE(report.degraded);
  ASSERT_EQ(report.attempts.size(), 1u);
  EXPECT_FALSE(report.attempts[0].degraded);
  EXPECT_EQ(report.attempts[0].backoff.count(), 0);
  EXPECT_EQ(frontend.health(), HealthState::kHealthy);
  EXPECT_EQ(frontend.stats().admitted, 1u);
}

// The PathQuery overload, which the benchmark's load generator times,
// serves the same answers into one PathAnswer per query.
TEST(Frontend, PathQueryOverloadMatchesTheFlatAnswers) {
  Fixture fx(40);
  QueryEngine engine(2);
  Frontend frontend(fx.registry, engine);
  std::vector<serve::PathAnswer> per_query;
  ASSERT_TRUE(frontend.serve_paths(fx.queries, per_query).ok());
  PathAnswerSet out;
  ASSERT_TRUE(frontend.serve_paths(fx.refs, out).ok());
  fx.expect_correct(out);
  ASSERT_EQ(per_query.size(), out.size());
  for (std::size_t q = 0; q < out.size(); ++q) {
    EXPECT_EQ(per_query[q].aug_index, test_helpers::vec(out.aug(q)));
    EXPECT_EQ(per_query[q].proper_index, test_helpers::vec(out.proper(q)));
  }
}

TEST(Frontend, EmptyBatchIsServedWithoutTouchingTheEngine) {
  Fixture fx(3);
  QueryEngine engine(2);
  Frontend frontend(fx.registry, engine);
  PathAnswerSet out;  // stale content must be cleared
  ASSERT_TRUE(frontend.serve_paths(fx.refs, out).ok());
  ASSERT_EQ(out.size(), 3u);
  ASSERT_TRUE(frontend.serve_paths({}, out).ok());
  EXPECT_EQ(out.size(), 0u);
}

TEST(Frontend, AdmissionShedsWhenBudgetExceeded) {
  Fixture fx(64);
  QueryEngine engine(2);
  FrontendOptions opts;
  opts.max_inflight = 1;
  Frontend frontend(fx.registry, engine, opts);

  // Block the first batch inside the serving kernel so it provably holds
  // the only in-flight slot while the second batch arrives.
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool release = false;
  ChaosHooks hooks;
  hooks.on_item = [&](std::uint64_t, std::size_t item) {
    if (item != 0) {
      return;
    }
    std::unique_lock<std::mutex> lock(mu);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };

  PathAnswerSet blocked_out;
  std::thread holder([&] {
    ASSERT_TRUE(frontend
                    .serve_paths(fx.refs, blocked_out, nullptr, nullptr,
                                 nullptr, &hooks)
                    .ok());
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }

  PathAnswerSet out;
  const auto st = frontend.serve_paths(fx.refs, out);
  EXPECT_EQ(st.code(), coop::StatusCode::kResourceExhausted);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  holder.join();
  fx.expect_correct(blocked_out);

  const auto stats = frontend.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.admitted, 1u);
  // Shedding is not degradation: the breaker never saw the shed batch.
  EXPECT_EQ(stats.breaker, BreakerState::kClosed);

  // The slot is free again.
  PathAnswerSet after;
  ASSERT_TRUE(frontend.serve_paths(fx.refs, after).ok());
  fx.expect_correct(after);
}

TEST(Frontend, RetryRecoversFromTransientWorkerThrow) {
  Fixture fx(64);
  QueryEngine engine(2);
  FrontendOptions opts;
  opts.max_retries = 2;
  opts.sleep_on_backoff = false;  // record the schedule, skip the naps
  Frontend frontend(fx.registry, engine, opts);

  std::atomic<bool> thrown{false};
  ChaosHooks hooks;
  hooks.on_item = [&](std::uint64_t, std::size_t item) {
    if (item == 1 && !thrown.exchange(true)) {
      throw std::runtime_error("transient chaos fault");
    }
  };

  PathAnswerSet out;
  BatchReport report;
  ASSERT_TRUE(frontend
                  .serve_paths(fx.refs, out, &report, nullptr, nullptr,
                               &hooks)
                  .ok());
  fx.expect_correct(out);

  // Attempt 0 degraded on the injected throw; attempt 1 (after a backoff
  // drawn from the deterministic schedule) ran clean.
  EXPECT_FALSE(report.degraded);
  ASSERT_EQ(report.attempts.size(), 2u);
  EXPECT_TRUE(report.attempts[0].degraded);
  EXPECT_FALSE(report.attempts[0].reason.empty());
  EXPECT_EQ(report.attempts[0].backoff.count(), 0);
  EXPECT_FALSE(report.attempts[1].degraded);
  EXPECT_EQ(report.attempts[1].backoff,
            serve::backoff_for(opts, /*batch_seq=*/0, /*attempt=*/1));
  EXPECT_GT(report.attempts[1].backoff.count(), 0);

  const auto stats = frontend.stats();
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.degraded_batches, 0u);  // final attempt was clean
  EXPECT_EQ(stats.consecutive_degraded, 0u);
}

TEST(Frontend, BreakerTripsAndRecoversThroughProbe) {
  Fixture fx(64);
  QueryEngine engine(2);
  FrontendOptions opts;
  opts.max_retries = 0;
  opts.breaker_threshold = 2;
  opts.breaker_open_for = std::chrono::milliseconds(30);
  opts.open_policy = OpenPolicy::kShed;
  Frontend frontend(fx.registry, engine, opts);

  // Two consecutive finally-degraded batches trip CLOSED -> OPEN.
  const BatchOptions squeezed = squeeze();
  for (int i = 0; i < 2; ++i) {
    PathAnswerSet out;
    BatchReport report;
    ASSERT_TRUE(frontend
                    .serve_paths(fx.refs, out, &report, nullptr,
                                 &squeezed, nullptr)
                    .ok());
    fx.expect_correct(out);  // degraded, not wrong
    EXPECT_TRUE(report.degraded);
  }
  EXPECT_EQ(frontend.breaker_state(), BreakerState::kOpen);
  EXPECT_EQ(frontend.health(), HealthState::kLameDuck);
  EXPECT_EQ(frontend.stats().breaker_trips, 1u);

  // While OPEN under kShed, admitted traffic is refused with UNAVAILABLE.
  PathAnswerSet out;
  EXPECT_EQ(frontend.serve_paths(fx.refs, out).code(),
            coop::StatusCode::kUnavailable);
  EXPECT_GE(frontend.stats().shed_breaker, 1u);

  // After the open window, one probe rides the full engine and closes
  // the breaker again.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  PathAnswerSet probe_out;
  ASSERT_TRUE(frontend.serve_paths(fx.refs, probe_out).ok());
  fx.expect_correct(probe_out);
  EXPECT_EQ(frontend.breaker_state(), BreakerState::kClosed);
  EXPECT_EQ(frontend.health(), HealthState::kHealthy);
  const auto stats = frontend.stats();
  EXPECT_EQ(stats.breaker_probes, 1u);
  EXPECT_EQ(stats.breaker_trips, 1u);  // recovery is not a second trip
}

// A batch with one broken path is refused whether or not its engine run
// degraded.  The refusal is no failure, but a degraded run still counts
// against the breaker, and a probe reports its run either way.
TEST(Frontend, RefusedBatchesCountOnlyTheirDegradedRuns) {
  Fixture fx(64);
  QueryEngine engine(2);
  FrontendOptions opts;
  opts.max_retries = 0;
  opts.breaker_threshold = 2;
  opts.breaker_open_for = std::chrono::milliseconds(30);
  opts.open_policy = OpenPolicy::kShed;
  Frontend frontend(fx.registry, engine, opts);

  std::vector<cat::NodeId> bad = fx.queries[37].path;
  bad.back() = static_cast<cat::NodeId>(fx.tree.num_nodes());
  std::vector<serve::PathRef> refs = fx.refs;
  refs[37].path = bad.data();
  const coop::Status want =
      fx.registry.pin().snapshot().cascade.validate_path(bad);
  ASSERT_FALSE(want.ok());

  const BatchOptions squeezed = squeeze();
  const auto serve = [&](const BatchOptions* batch, BatchReport* report) {
    PathAnswerSet out;
    const coop::Status st =
        frontend.serve_paths(refs, out, report, nullptr, batch, nullptr);
    EXPECT_EQ(st.code(), want.code());
    EXPECT_EQ(st.message(), want.message());
  };

  // Clean refused runs leave the breaker alone; the caller's attempt
  // buffer comes back, empty.
  BatchReport report;
  report.attempts.resize(3);
  const serve::BatchAttempt* buffer = report.attempts.data();
  for (int i = 0; i < 3; ++i) {
    serve(nullptr, &report);
  }
  EXPECT_EQ(report.attempts.data(), buffer);
  EXPECT_TRUE(report.attempts.empty());
  EXPECT_EQ(frontend.breaker_state(), BreakerState::kClosed);

  // Two degraded refused runs trip it.
  serve(&squeezed, nullptr);
  serve(&squeezed, nullptr);
  EXPECT_EQ(frontend.breaker_state(), BreakerState::kOpen);
  EXPECT_EQ(frontend.stats().breaker_trips, 1u);

  // A probe whose run degrades opens it again, whatever its input.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  serve(&squeezed, nullptr);
  EXPECT_EQ(frontend.breaker_state(), BreakerState::kOpen);

  // A probe whose run is clean closes it, though its input is refused.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  serve(nullptr, nullptr);
  EXPECT_EQ(frontend.breaker_state(), BreakerState::kClosed);
  const serve::FrontendStats stats = frontend.stats();
  EXPECT_EQ(stats.breaker_probes, 2u);
  EXPECT_EQ(stats.retries, 0u);
  // Every batch was admitted and refused; none completed.
  EXPECT_EQ(stats.admitted, 7u);
  EXPECT_EQ(stats.refused, 7u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST(Frontend, OpenPolicySequentialKeepsServingCorrectAnswers) {
  Fixture fx(64);
  QueryEngine engine(2);
  FrontendOptions opts;
  opts.max_retries = 0;
  opts.breaker_threshold = 1;
  // Long open window: every batch in this test after the trip runs in
  // deterministic sequential-only mode, no probe races.
  opts.breaker_open_for = std::chrono::seconds(10);
  opts.open_policy = OpenPolicy::kSequential;
  Frontend frontend(fx.registry, engine, opts);

  PathAnswerSet out;
  const BatchOptions squeezed = squeeze();
  ASSERT_TRUE(frontend
                  .serve_paths(fx.refs, out, nullptr, nullptr, &squeezed,
                               nullptr)
                  .ok());
  EXPECT_EQ(frontend.breaker_state(), BreakerState::kOpen);

  // OPEN + kSequential: still admitted, still correct, marked as a
  // sequential batch, and the breaker holds its state.
  PathAnswerSet seq_out;
  BatchReport report;
  ASSERT_TRUE(frontend.serve_paths(fx.refs, seq_out, &report).ok());
  fx.expect_correct(seq_out);
  EXPECT_FALSE(report.degraded);
  EXPECT_EQ(frontend.stats().sequential_batches, 1u);
  EXPECT_EQ(frontend.breaker_state(), BreakerState::kOpen);
  EXPECT_EQ(frontend.health(), HealthState::kLameDuck);
}

// Satellite 4: the retry/backoff schedule is a pure function of the seed.
// Two frontends with identical options, fed the identical fault script,
// must record byte-identical attempt trails — including the jittered
// backoff values — and a different seed must diverge.
TEST(Frontend, BackoffScheduleIsDeterministicPerSeed) {
  FrontendOptions opts;
  opts.jitter_seed = 42;
  for (std::uint64_t seq : {0ull, 1ull, 17ull}) {
    for (std::uint32_t attempt : {1u, 2u, 3u}) {
      EXPECT_EQ(serve::backoff_for(opts, seq, attempt),
                serve::backoff_for(opts, seq, attempt));
      const auto b = serve::backoff_for(opts, seq, attempt);
      EXPECT_GE(b.count(), opts.backoff_base.count() / 2);
      EXPECT_LE(b, opts.backoff_cap);
    }
  }
  FrontendOptions other = opts;
  other.jitter_seed = 43;
  EXPECT_NE(serve::backoff_for(opts, 0, 1), serve::backoff_for(other, 0, 1));

  Fixture fx(48);
  const auto run_scripted = [&fx](std::uint64_t seed) {
    // One engine thread: every attempt runs inline, so each attempt hits
    // exactly one scripted fault and the trail shape is deterministic.
    QueryEngine engine(1);
    FrontendOptions fo;
    fo.max_retries = 3;
    fo.jitter_seed = seed;
    fo.sleep_on_backoff = false;
    Frontend frontend(fx.registry, engine, fo);
    // Scripted fault: the first two attempts of the batch each hit one
    // injected throw, the third runs clean.
    std::atomic<int> faults_left{2};
    ChaosHooks hooks;
    hooks.on_item = [&](std::uint64_t, std::size_t item) {
      if (item == 0 && faults_left.load() > 0) {
        faults_left.fetch_sub(1);
        throw std::runtime_error("scripted fault");
      }
    };
    PathAnswerSet out;
    BatchReport report;
    EXPECT_TRUE(frontend
                    .serve_paths(fx.refs, out, &report, nullptr, nullptr,
                                 &hooks)
                    .ok());
    fx.expect_correct(out);
    return report;
  };

  const BatchReport a = run_scripted(7);
  const BatchReport b = run_scripted(7);
  const BatchReport c = run_scripted(8);
  ASSERT_EQ(a.attempts.size(), 3u);
  ASSERT_EQ(b.attempts.size(), 3u);
  for (std::size_t i = 0; i < a.attempts.size(); ++i) {
    EXPECT_EQ(a.attempts[i].attempt, b.attempts[i].attempt);
    EXPECT_EQ(a.attempts[i].degraded, b.attempts[i].degraded);
    EXPECT_EQ(a.attempts[i].backoff, b.attempts[i].backoff) << "attempt " << i;
  }
  ASSERT_EQ(c.attempts.size(), 3u);
  EXPECT_NE(a.attempts[1].backoff, c.attempts[1].backoff)
      << "different jitter seeds must decorrelate the schedules";
}

TEST(Frontend, UnavailableWhenNothingIsPublished) {
  Registry empty;
  QueryEngine engine(1);
  Frontend frontend(empty, engine);
  std::vector<PathQuery> queries(1);
  queries[0].y = 5;
  PathAnswerSet out;
  EXPECT_EQ(frontend.serve_paths(serve::path_refs(queries), out).code(),
            coop::StatusCode::kUnavailable);
}

}  // namespace
