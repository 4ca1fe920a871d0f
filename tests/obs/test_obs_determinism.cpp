// Determinism of the observability layer (DESIGN.md §10): two runs of
// the same seeded workload must produce identical counter deltas and
// identical trace emission counts.  This is what makes a metrics dump
// from a replayed incident comparable to the dump captured live.
//
// The workload drives the real instrumented stack — Frontend over
// QueryEngine over a published snapshot — with sleep-free backoff.
// Without faults every count (admissions, shard claims, group-kernel
// work, trace events) is a pure function of the seed.  With seeded
// once-per-batch worker faults, so is every count except the work done
// inside a parallel attempt the fault aborts: how many shards the other
// worker claimed before the abort depends on thread scheduling.  Values
// that measure *time* (histogram sums) are excluded; event counts are
// not.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "fc/build.hpp"
#include "helpers.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/frontend.hpp"
#include "snapshot/registry.hpp"

namespace {

using serve::ChaosHooks;
using serve::Frontend;
using serve::FrontendOptions;
using serve::PathQuery;
using serve::QueryEngine;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct Fixture {
  cat::Tree tree;
  snapshot::Registry registry;
  std::vector<PathQuery> queries;

  explicit Fixture(std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    tree = cat::make_balanced_binary(6, 4000, cat::CatalogShape::kRandom, rng);
    const auto s = fc::Structure::build_checked(tree);
    EXPECT_TRUE(s.ok());
    auto f = serve::FlatCascade::compile(*s);
    EXPECT_TRUE(f.ok());
    registry.publish(snapshot::Snapshot::in_memory(f.take()));
    queries.resize(64);
    for (auto& q : queries) {
      q.path = test_helpers::random_root_leaf_path(tree, rng);
      q.y = test_helpers::random_query(tree, rng);
    }
  }
};

std::map<std::string, std::uint64_t> counter_map(
    const obs::MetricsSnapshot& snap) {
  std::map<std::string, std::uint64_t> m;
  for (const auto& c : snap.counters) {
    m[c.name] = c.value;
  }
  return m;
}

struct RunResult {
  std::map<std::string, std::uint64_t> counter_deltas;
  std::uint64_t trace_emitted = 0;
  std::map<std::string, std::uint64_t> histogram_count_deltas;
};

/// Counters of work done inside a parallel attempt; an injected fault
/// aborts the attempt after a scheduling-dependent amount of it.
const std::set<std::string> kAbortedWorkCounters = {
    "serve_engine_shard_claims_total",
    "serve_group_kernel_groups_total",
    "serve_group_kernel_queries_total",
};

/// One seeded pass: 40 batches.  With `faults`, every batch whose hash
/// says so suffers exactly one injected worker fault (so it degrades on
/// attempt 1 and retries cleanly).  Returns the global-registry deltas
/// this pass caused.
RunResult run_workload(std::uint64_t seed, bool faults = true) {
  Fixture fx(seed);
  const auto before = obs::Registry::global().scrape();
  auto hist_counts = [](const obs::MetricsSnapshot& s) {
    std::map<std::string, std::uint64_t> m;
    for (const auto& h : s.histograms) {
      m[h.name] = h.count;
    }
    return m;
  };
  const auto hist_before = hist_counts(before);
  obs::TraceRing& ring = obs::TraceRing::global();
  ring.configure(seed, /*sample_period=*/2);
  const std::uint64_t trace_before = ring.emitted();

  QueryEngine engine(2);
  FrontendOptions opts;
  opts.sleep_on_backoff = false;
  Frontend frontend(fx.registry, engine, opts);
  const std::vector<serve::PathRef> refs = serve::path_refs(fx.queries);
  for (std::uint64_t b = 0; b < 40; ++b) {
    std::atomic<bool> thrown{false};
    ChaosHooks hooks;
    const ChaosHooks* chaos = nullptr;
    if (faults && splitmix64(seed ^ b) % 5 == 0) {
      hooks.on_item = [&thrown](std::uint64_t, std::size_t) {
        if (!thrown.exchange(true)) {
          throw std::runtime_error("determinism: injected fault");
        }
      };
      chaos = &hooks;
    }
    serve::PathAnswerSet out;
    const auto st = frontend.serve_paths(refs, out, nullptr, nullptr,
                                         nullptr, chaos);
    EXPECT_TRUE(st.ok()) << st.to_string();
  }

  RunResult result;
  const auto after = obs::Registry::global().scrape();
  const auto b_map = counter_map(before);
  for (const auto& [name, value] : counter_map(after)) {
    const auto it = b_map.find(name);
    const std::uint64_t prev = it == b_map.end() ? 0 : it->second;
    result.counter_deltas[name] = value - prev;
  }
  const auto hist_after = hist_counts(after);
  for (const auto& [name, value] : hist_after) {
    const auto it = hist_before.find(name);
    const std::uint64_t prev = it == hist_before.end() ? 0 : it->second;
    result.histogram_count_deltas[name] = value - prev;
  }
  result.trace_emitted = ring.emitted() - trace_before;
  return result;
}

TEST(ObsDeterminism, SameSeedSameCounterDeltas) {
  const RunResult a = run_workload(/*seed=*/1234);
  const RunResult b = run_workload(/*seed=*/1234);

  // The workload visibly exercised the instrumented stack.
  EXPECT_EQ(a.counter_deltas.at("serve_frontend_submitted_total"), 40u);
  EXPECT_EQ(a.counter_deltas.at("serve_frontend_completed_total"), 40u);
  EXPECT_GT(a.counter_deltas.at("serve_frontend_retries_total"), 0u);
  EXPECT_GT(a.counter_deltas.at("serve_engine_shard_claims_total"), 0u);
  EXPECT_GT(a.trace_emitted, 0u);

  // Identical deltas, counter by counter, except the work an aborted
  // parallel attempt got through before the fault.
  ASSERT_EQ(a.counter_deltas.size(), b.counter_deltas.size());
  for (const auto& [name, delta] : a.counter_deltas) {
    ASSERT_TRUE(b.counter_deltas.count(name)) << name;
    if (kAbortedWorkCounters.count(name) == 0) {
      EXPECT_EQ(delta, b.counter_deltas.at(name)) << name;
    }
  }
  EXPECT_EQ(a.histogram_count_deltas, b.histogram_count_deltas);
  EXPECT_EQ(a.trace_emitted, b.trace_emitted);
}

TEST(ObsDeterminism, FaultFreeRunsMatchOnEveryCounter) {
  const RunResult a = run_workload(/*seed=*/1234, /*faults=*/false);
  const RunResult b = run_workload(/*seed=*/1234, /*faults=*/false);
  for (const std::string& name : kAbortedWorkCounters) {
    EXPECT_GT(a.counter_deltas.at(name), 0u) << name;
  }
  EXPECT_EQ(a.counter_deltas, b.counter_deltas);
  EXPECT_EQ(a.histogram_count_deltas, b.histogram_count_deltas);
  EXPECT_EQ(a.trace_emitted, b.trace_emitted);
}

TEST(ObsDeterminism, DifferentSeedDiffersSomewhere) {
  const RunResult a = run_workload(/*seed=*/1234);
  const RunResult c = run_workload(/*seed=*/99);
  // Different fault schedules should move at least the retry counter;
  // if by chance they coincide, the trace sampling subset still differs.
  const bool differs =
      a.counter_deltas.at("serve_frontend_retries_total") !=
          c.counter_deltas.at("serve_frontend_retries_total") ||
      a.trace_emitted != c.trace_emitted;
  EXPECT_TRUE(differs);
}

TEST(ObsDeterminism, ExportersAreStableOverTheSameSnapshot) {
  // Same snapshot in, same document out — byte for byte.
  const auto snap = obs::Registry::global().scrape();
  EXPECT_EQ(obs::to_json(snap), obs::to_json(snap));
  EXPECT_EQ(obs::to_prometheus(snap), obs::to_prometheus(snap));
}

}  // namespace
