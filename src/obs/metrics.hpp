#pragma once

// Low-overhead metrics registry (DESIGN.md §10): the process-wide window
// into the serving stack's runtime behaviour.  Three instrument kinds:
//
//   Counter    monotonic; the hot path pays exactly one relaxed atomic
//              add into a per-thread shard (no CAS, no locks, no false
//              sharing — shards are cache-line sized), aggregated only
//              when a scrape walks the shards.
//   Gauge      last-write-wins signed value (queue depth, breaker state,
//              pinned readers); set/add are single relaxed atomics.
//   Histogram  fixed upper-bucket bounds chosen at registration; one
//              record() is a bucket add + sum add + count add, all
//              relaxed, into the caller's shard (the bucket found by a
//              bit scan for the log-linear latency bounds).
//
// Registration is name-keyed and idempotent: instrumentation sites
// resolve their handles once (a mutex-guarded lookup) and cache them in
// a function-local static, so steady-state traffic never touches the
// registry lock.  Handles stay valid for the registry's lifetime (metric
// storage is a deque — no reallocation moves).
//
// The registry deliberately does not support labels or unregistration:
// every metric this system needs is known at compile time, and a fixed
// flat namespace keeps the scrape path allocation-light and the export
// formats (obs/export.hpp) trivial.

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace obs {

/// Counter/histogram shards per metric.  More shards than cores wastes
/// cache; fewer serializes hot adds.  16 covers every deployment this
/// repo targets; threads above 16 hash onto shared shards and still only
/// pay a relaxed add.
inline constexpr std::size_t kMetricShards = 16;

/// Stable shard index of the calling thread in [0, kMetricShards):
/// assigned round-robin on first use, so the first kMetricShards threads
/// are contention-free.
[[nodiscard]] std::size_t shard_index();

namespace detail {

struct alignas(64) ShardCell {
  std::atomic<std::uint64_t> v{0};
};

struct CounterData {
  CounterData(std::string n, std::string h)
      : name(std::move(n)), help(std::move(h)) {}
  std::string name;
  std::string help;
  ShardCell shards[kMetricShards];
};

struct GaugeData {
  GaugeData(std::string n, std::string h)
      : name(std::move(n)), help(std::move(h)) {}
  std::string name;
  std::string help;
  std::atomic<std::int64_t> value{0};
};

/// The log-linear latency buckets (obs::latency_bounds_ns): 2^kLogMin ns,
/// then 2^kLogSub bounds per octave up to 2^kLogMax ns, each octave
/// [2^k, 2^(k+1)) cut into equal steps of 2^(k - kLogSub).
inline constexpr unsigned kLogMin = 9;   ///< first bound 512 ns
inline constexpr unsigned kLogMax = 34;  ///< last bound 2^34 ns (17.2 s)
inline constexpr unsigned kLogSub = 3;   ///< 8 buckets per octave
inline constexpr std::size_t kLogBounds =
    1 + (std::size_t{kLogMax - kLogMin} << kLogSub);

/// Bucket of v under the log-linear bounds (le semantics; kLogBounds is
/// the +inf bucket): a bit scan of v - 1 finds the octave, its next
/// kLogSub bits the step.
[[nodiscard]] inline std::size_t log_linear_bucket(std::uint64_t v) {
  if (v <= (std::uint64_t{1} << kLogMin)) {
    return 0;
  }
  const std::uint64_t u = v - 1;
  const auto k = static_cast<unsigned>(63 - __builtin_clzll(u));
  if (k >= kLogMax) {
    return kLogBounds;
  }
  return 1 + (std::size_t{k - kLogMin} << kLogSub) +
         static_cast<std::size_t>((u >> (k - kLogSub)) &
                                  ((1u << kLogSub) - 1));
}

/// One cache line of histogram cells.  A shard's cells are packed eight
/// to a line (only its own threads write them); shards never share one.
struct alignas(64) CellLine {
  std::atomic<std::uint64_t> v[8];
};

struct HistogramData {
  HistogramData(std::string n, std::string h,
                std::vector<std::uint64_t> upper_bounds,
                bool is_log_linear)
      : name(std::move(n)),
        help(std::move(h)),
        bounds(std::move(upper_bounds)),
        log_linear(is_log_linear),
        lines_per_shard((bounds.size() + 3 + 7) / 8),
        lines(kMetricShards * lines_per_shard) {}
  std::string name;
  std::string help;
  /// Ascending inclusive upper bounds; a final +inf bucket is implicit.
  std::vector<std::uint64_t> bounds;
  /// The bounds are latency_bounds_ns(): record() bit-scans for the bucket.
  bool log_linear;
  /// Per-shard layout: bounds.size()+1 bucket cells, then sum, then count,
  /// from the shard's first line.
  std::size_t lines_per_shard;
  std::vector<CellLine> lines;

  [[nodiscard]] std::atomic<std::uint64_t>& cell(std::size_t shard,
                                                 std::size_t i) {
    return lines[shard * lines_per_shard + i / 8].v[i % 8];
  }
  [[nodiscard]] const std::atomic<std::uint64_t>& cell(std::size_t shard,
                                                       std::size_t i) const {
    return lines[shard * lines_per_shard + i / 8].v[i % 8];
  }
};

}  // namespace detail

/// Monotonic counter handle.  Copyable, trivially destructible; add() on
/// a default-constructed handle is a no-op.
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t v) const {
    if (d_ != nullptr) {
      d_->shards[shard_index()].v.fetch_add(v, std::memory_order_relaxed);
    }
  }
  void inc() const { add(1); }

 private:
  friend class Registry;
  explicit Counter(detail::CounterData* d) : d_(d) {}
  detail::CounterData* d_ = nullptr;
};

/// Signed gauge handle (set / add / monotonic-max).
class Gauge {
 public:
  Gauge() = default;
  void set(std::int64_t v) const {
    if (d_ != nullptr) {
      d_->value.store(v, std::memory_order_relaxed);
    }
  }
  void add(std::int64_t delta) const {
    if (d_ != nullptr) {
      d_->value.fetch_add(delta, std::memory_order_relaxed);
    }
  }
  /// Raise the gauge to `v` if below (CAS loop; for high-water marks).
  void set_max(std::int64_t v) const {
    if (d_ == nullptr) {
      return;
    }
    std::int64_t cur = d_->value.load(std::memory_order_relaxed);
    while (cur < v && !d_->value.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }

 private:
  friend class Registry;
  explicit Gauge(detail::GaugeData* d) : d_(d) {}
  detail::GaugeData* d_ = nullptr;
};

/// Fixed-bucket histogram handle.  record(v) lands v in the first bucket
/// whose upper bound is >= v (Prometheus `le` semantics), the implicit
/// +inf bucket otherwise.
class Histogram {
 public:
  Histogram() = default;
  void record(std::uint64_t v) const {
    if (d_ == nullptr) {
      return;
    }
    const std::size_t nb = d_->bounds.size();
    std::size_t b = 0;
    if (d_->log_linear) {
      b = detail::log_linear_bucket(v);
    } else {
      while (b < nb && v > d_->bounds[b]) {
        ++b;
      }
    }
    const std::size_t shard = shard_index();
    d_->cell(shard, b).fetch_add(1, std::memory_order_relaxed);
    d_->cell(shard, nb + 1).fetch_add(v, std::memory_order_relaxed);
    d_->cell(shard, nb + 2).fetch_add(1, std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  explicit Histogram(detail::HistogramData* d) : d_(d) {}
  detail::HistogramData* d_ = nullptr;
};

/// One scraped counter/gauge/histogram (shards already merged).
struct CounterValue {
  std::string name;
  std::string help;
  std::uint64_t value = 0;
};

struct GaugeValue {
  std::string name;
  std::string help;
  std::int64_t value = 0;
};

struct HistogramValue {
  std::string name;
  std::string help;
  std::vector<std::uint64_t> bounds;   ///< upper bounds, ascending
  std::vector<std::uint64_t> buckets;  ///< bounds.size()+1, NON-cumulative
  std::uint64_t sum = 0;
  std::uint64_t count = 0;
  /// Inclusive upper bound below which at least `q` (in [0,1]) of the
  /// recorded values fall, interpolation-free: the bound of the first
  /// bucket whose cumulative count reaches q*count.  0 when empty.
  [[nodiscard]] std::uint64_t quantile_bound(double q) const;
};

/// A consistent-enough view of every registered metric.  Scrapes are
/// wait-free for writers: values recorded mid-scrape may or may not be
/// included, but counters never go backwards between scrapes.
struct MetricsSnapshot {
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  [[nodiscard]] const CounterValue* find_counter(std::string_view name) const;
  [[nodiscard]] const GaugeValue* find_gauge(std::string_view name) const;
  [[nodiscard]] const HistogramValue* find_histogram(
      std::string_view name) const;
  /// Counter value by name, 0 when absent (test convenience).
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry every instrumentation site resolves
  /// against.  Tests that need isolation construct their own Registry.
  [[nodiscard]] static Registry& global();

  /// Idempotent by name: a second registration returns the existing
  /// metric (help/bounds of the first registration win).
  [[nodiscard]] Counter counter(std::string name, std::string help = "");
  [[nodiscard]] Gauge gauge(std::string name, std::string help = "");
  [[nodiscard]] Histogram histogram(std::string name,
                                    std::vector<std::uint64_t> upper_bounds,
                                    std::string help = "");

  /// Merge every metric's shards into one value set, sorted by name.
  [[nodiscard]] MetricsSnapshot scrape() const;

 private:
  mutable std::mutex mu_;  ///< registration + iteration start only
  std::deque<detail::CounterData> counters_;
  std::deque<detail::GaugeData> gauges_;
  std::deque<detail::HistogramData> histograms_;
};

/// Log-linear nanosecond latency bounds, 512 ns .. 2^34 ns (17.2 s), eight
/// per octave, so a quantile read from the buckets is within 1/8 of an
/// octave of the true one.  A histogram registered with exactly these
/// bounds finds its bucket by a bit scan.
[[nodiscard]] std::vector<std::uint64_t> latency_bounds_ns();

/// Exponential count bounds, 1 .. 2^30 (for step/depth distributions).
[[nodiscard]] std::vector<std::uint64_t> exponential_bounds();

}  // namespace obs
