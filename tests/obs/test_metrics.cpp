#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::MetricsSnapshot;
using obs::Registry;

TEST(Metrics, DefaultHandlesAreNoOps) {
  // Instrumentation sites may run before registration in odd teardown
  // orders; a default-constructed handle must be safe to poke.
  Counter c;
  c.inc();
  c.add(7);
  Gauge g;
  g.set(3);
  g.add(-1);
  g.set_max(9);
  Histogram h;
  h.record(42);
}

TEST(Metrics, CounterRegistrationIsIdempotentByName) {
  Registry r;
  Counter a = r.counter("requests_total", "first help wins");
  Counter b = r.counter("requests_total", "ignored");
  a.add(2);
  b.add(3);
  const MetricsSnapshot snap = r.scrape();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "requests_total");
  EXPECT_EQ(snap.counters[0].help, "first help wins");
  EXPECT_EQ(snap.counters[0].value, 5u);
  EXPECT_EQ(snap.counter_value("requests_total"), 5u);
  EXPECT_EQ(snap.counter_value("no_such_metric"), 0u);
}

TEST(Metrics, GaugeSetAddAndMax) {
  Registry r;
  Gauge g = r.gauge("depth");
  g.set(10);
  g.add(-3);
  EXPECT_EQ(r.scrape().find_gauge("depth")->value, 7);
  g.set_max(5);  // below: no change
  EXPECT_EQ(r.scrape().find_gauge("depth")->value, 7);
  g.set_max(21);
  EXPECT_EQ(r.scrape().find_gauge("depth")->value, 21);
}

TEST(Metrics, ScrapeIsSortedByName) {
  Registry r;
  (void)r.counter("zebra");
  (void)r.counter("alpha");
  (void)r.counter("mid");
  const MetricsSnapshot snap = r.scrape();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "alpha");
  EXPECT_EQ(snap.counters[1].name, "mid");
  EXPECT_EQ(snap.counters[2].name, "zebra");
}

TEST(Metrics, HistogramBucketBoundariesAreInclusive) {
  Registry r;
  Histogram h = r.histogram("lat", {10, 100, 1000});
  // le-semantics: a value lands in the first bucket whose bound >= v.
  h.record(0);
  h.record(10);    // still bucket 0 (inclusive upper bound)
  h.record(11);    // bucket 1
  h.record(100);   // bucket 1
  h.record(101);   // bucket 2
  h.record(1000);  // bucket 2
  h.record(1001);  // +inf bucket
  const MetricsSnapshot snap = r.scrape();
  const auto* v = snap.find_histogram("lat");
  ASSERT_NE(v, nullptr);
  ASSERT_EQ(v->bounds, (std::vector<std::uint64_t>{10, 100, 1000}));
  ASSERT_EQ(v->buckets.size(), 4u);
  EXPECT_EQ(v->buckets[0], 2u);
  EXPECT_EQ(v->buckets[1], 2u);
  EXPECT_EQ(v->buckets[2], 2u);
  EXPECT_EQ(v->buckets[3], 1u);
  EXPECT_EQ(v->count, 7u);
  EXPECT_EQ(v->sum, 0u + 10 + 11 + 100 + 101 + 1000 + 1001);
}

TEST(Metrics, HistogramQuantileBound) {
  Registry r;
  Histogram h = r.histogram("q", {10, 100, 1000});
  for (int i = 0; i < 98; ++i) {
    h.record(5);  // bucket 0
  }
  h.record(50);   // bucket 1
  h.record(500);  // bucket 2
  const MetricsSnapshot snap = r.scrape();
  const auto* v = snap.find_histogram("q");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->quantile_bound(0.5), 10u);
  EXPECT_EQ(v->quantile_bound(0.99), 100u);
  EXPECT_EQ(v->quantile_bound(1.0), 1000u);
}

TEST(Metrics, EmptyHistogramQuantileIsZero) {
  Registry r;
  (void)r.histogram("empty", {1, 2});
  EXPECT_EQ(r.scrape().find_histogram("empty")->quantile_bound(0.99), 0u);
}

TEST(Metrics, ShardsMergeAcrossThreads) {
  // Each recording thread lands in its own shard (round-robin
  // assignment); the scrape must see the union, not one shard.
  Registry r;
  Counter c = r.counter("work");
  Histogram h = r.histogram("hist", {10, 1000});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        h.record(t % 2 == 0 ? 5 : 500);
      }
    });
  }
  for (auto& t : ts) {
    t.join();
  }
  const MetricsSnapshot snap = r.scrape();
  EXPECT_EQ(snap.counter_value("work"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  const auto* v = snap.find_histogram("hist");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(v->buckets[0], 4u * kPerThread);
  EXPECT_EQ(v->buckets[1], 4u * kPerThread);
  EXPECT_EQ(v->buckets[2], 0u);
  EXPECT_EQ(v->sum, 4u * kPerThread * 5 + 4u * kPerThread * 500);
}

TEST(Metrics, ConcurrentRecordingWhileScraping) {
  // Scrapes are wait-free for writers and counters never move backwards
  // between scrapes.
  Registry r;
  Counter c = r.counter("flow");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        c.inc();
      }
    });
  }
  std::uint64_t last = 0;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t now = r.scrape().counter_value("flow");
    EXPECT_GE(now, last);
    last = now;
  }
  stop.store(true);
  for (auto& t : writers) {
    t.join();
  }
  EXPECT_GE(r.scrape().counter_value("flow"), last);
}

TEST(Metrics, LatencyBoundsAreAscending) {
  for (const auto& bounds :
       {obs::latency_bounds_ns(), obs::exponential_bounds()}) {
    ASSERT_FALSE(bounds.empty());
    for (std::size_t i = 1; i < bounds.size(); ++i) {
      EXPECT_LT(bounds[i - 1], bounds[i]);
    }
  }
}

TEST(Metrics, LatencyBucketsFindTheBoundByBitScan) {
  // The bit-scan bucket is the linear scan's first bound >= v, at and
  // either side of every bound.
  const std::vector<std::uint64_t> bounds = obs::latency_bounds_ns();
  ASSERT_EQ(bounds.size(), obs::detail::kLogBounds);
  const auto scan = [&](std::uint64_t v) {
    std::size_t b = 0;
    while (b < bounds.size() && v > bounds[b]) {
      ++b;
    }
    return b;
  };
  std::vector<std::uint64_t> probes{0, 1, ~std::uint64_t{0}};
  for (const std::uint64_t b : bounds) {
    probes.insert(probes.end(), {b - 1, b, b + 1});
  }
  for (const std::uint64_t v : probes) {
    EXPECT_EQ(obs::detail::log_linear_bucket(v), scan(v)) << "v " << v;
  }
}

TEST(Metrics, LatencyQuantilesComeBackWithinAnEighthOctave) {
  // Log-uniform latencies from 700 ns to 3 s: every quantile read from
  // the buckets is the true one rounded up by less than one step of its
  // octave, an eighth of the octave's base, so at most 9/8 of the value.
  obs::Registry r;
  const obs::Histogram h =
      r.histogram("lat_ns", obs::latency_bounds_ns(), "test");
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> exponent(std::log2(700.0),
                                                  std::log2(3e9));
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 50000; ++i) {
    values.push_back(
        static_cast<std::uint64_t>(std::exp2(exponent(rng))));
    h.record(values.back());
  }
  std::sort(values.begin(), values.end());
  const auto snap = r.scrape();
  const obs::HistogramValue* v = snap.find_histogram("lat_ns");
  ASSERT_NE(v, nullptr);
  for (const double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    const std::uint64_t truth = values[rank - 1];
    const std::uint64_t got = v->quantile_bound(q);
    EXPECT_GE(got, truth) << "q " << q;
    EXPECT_LE(static_cast<double>(got), 1.125 * static_cast<double>(truth))
        << "q " << q;
  }
}

}  // namespace
