#include "obs/metrics.hpp"

#include <algorithm>
#include <limits>

namespace obs {

std::size_t shard_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t idx =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return idx;
}

Registry& Registry::global() {
  static Registry r;
  return r;
}

Counter Registry::counter(std::string name, std::string help) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& c : counters_) {
    if (c.name == name) {
      return Counter(&c);
    }
  }
  counters_.emplace_back(std::move(name), std::move(help));
  return Counter(&counters_.back());
}

Gauge Registry::gauge(std::string name, std::string help) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& g : gauges_) {
    if (g.name == name) {
      return Gauge(&g);
    }
  }
  gauges_.emplace_back(std::move(name), std::move(help));
  return Gauge(&gauges_.back());
}

Histogram Registry::histogram(std::string name,
                              std::vector<std::uint64_t> upper_bounds,
                              std::string help) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& h : histograms_) {
    if (h.name == name) {
      return Histogram(&h);
    }
  }
  const bool log_linear = upper_bounds == latency_bounds_ns();
  histograms_.emplace_back(std::move(name), std::move(help),
                           std::move(upper_bounds), log_linear);
  return Histogram(&histograms_.back());
}

MetricsSnapshot Registry::scrape() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.counters.reserve(counters_.size());
  for (const auto& c : counters_) {
    CounterValue v;
    v.name = c.name;
    v.help = c.help;
    for (const auto& s : c.shards) {
      v.value += s.v.load(std::memory_order_relaxed);
    }
    snap.counters.push_back(std::move(v));
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& g : gauges_) {
    snap.gauges.push_back(
        GaugeValue{g.name, g.help, g.value.load(std::memory_order_relaxed)});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& h : histograms_) {
    HistogramValue v;
    v.name = h.name;
    v.help = h.help;
    v.bounds = h.bounds;
    v.buckets.assign(h.bounds.size() + 1, 0);
    const std::size_t nb = h.bounds.size();
    for (std::size_t s = 0; s < kMetricShards; ++s) {
      for (std::size_t b = 0; b <= nb; ++b) {
        v.buckets[b] += h.cell(s, b).load(std::memory_order_relaxed);
      }
      v.sum += h.cell(s, nb + 1).load(std::memory_order_relaxed);
      v.count += h.cell(s, nb + 2).load(std::memory_order_relaxed);
    }
    snap.histograms.push_back(std::move(v));
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

std::uint64_t HistogramValue::quantile_bound(double q) const {
  if (count == 0) {
    return 0;
  }
  const double target = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    cumulative += buckets[b];
    if (static_cast<double>(cumulative) >= target) {
      return b < bounds.size() ? bounds[b]
                               : std::numeric_limits<std::uint64_t>::max();
    }
  }
  return std::numeric_limits<std::uint64_t>::max();
}

const CounterValue* MetricsSnapshot::find_counter(
    std::string_view name) const {
  for (const auto& c : counters) {
    if (c.name == name) {
      return &c;
    }
  }
  return nullptr;
}

const GaugeValue* MetricsSnapshot::find_gauge(std::string_view name) const {
  for (const auto& g : gauges) {
    if (g.name == name) {
      return &g;
    }
  }
  return nullptr;
}

const HistogramValue* MetricsSnapshot::find_histogram(
    std::string_view name) const {
  for (const auto& h : histograms) {
    if (h.name == name) {
      return &h;
    }
  }
  return nullptr;
}

std::uint64_t MetricsSnapshot::counter_value(std::string_view name) const {
  const CounterValue* c = find_counter(name);
  return c == nullptr ? 0 : c->value;
}

std::vector<std::uint64_t> latency_bounds_ns() {
  // 512 ns, then eight equal steps per octave up to 2^34 ns (17.2 s): a
  // bucket is at most 1/8 of its value wide (detail::log_linear_bucket).
  std::vector<std::uint64_t> b{std::uint64_t{1} << detail::kLogMin};
  for (unsigned k = detail::kLogMin; k < detail::kLogMax; ++k) {
    const std::uint64_t step = std::uint64_t{1} << (k - detail::kLogSub);
    for (std::uint64_t s = 1; s <= (1u << detail::kLogSub); ++s) {
      b.push_back((std::uint64_t{1} << k) + s * step);
    }
  }
  return b;
}

std::vector<std::uint64_t> exponential_bounds() {
  std::vector<std::uint64_t> b;
  for (std::uint64_t v = 1; v <= (std::uint64_t{1} << 30); v <<= 1) {
    b.push_back(v);
  }
  return b;
}

}  // namespace obs
