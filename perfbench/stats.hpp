#pragma once

// Summary statistics and failure accounting shared by the benchmark
// load generator and its self-test.  Header-only and free of repository
// dependencies so the self-test can pin the math down exactly.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A percentile of a sample set, reported with the sample count and the
/// number of samples strictly beyond it in rank.
struct Percentile {
  double value = 0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

/// Nearest-rank percentile (q in (0, 1]) of an ascending sample set: the
/// ceil(q * n)-th smallest sample.  `beyond` counts the samples ranked
/// after it, so p99 of 1000 samples has exactly 10 beyond.
inline Percentile nearest_rank(const std::vector<double>& sorted, double q) {
  Percentile p;
  p.samples = sorted.size();
  if (sorted.empty()) {
    return p;
  }
  auto rank = static_cast<std::size_t>(std::ceil(q * sorted.size() - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  p.value = sorted[rank - 1];
  p.beyond = sorted.size() - rank;
  return p;
}

/// Median: mean of the two middle samples for an even count.
inline double median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Percentile of a cumulative histogram (Prometheus-style `le` bounds in
/// ascending order, cumulative counts), interpolated linearly inside the
/// bucket that holds the target rank.  The +Inf bucket (bound = INFINITY)
/// reports its lower edge.  Returns 0 for an empty histogram.
inline double histogram_percentile(const std::vector<double>& bounds,
                                   const std::vector<double>& cumulative,
                                   double q) {
  if (bounds.empty() || cumulative.empty() || cumulative.back() <= 0) {
    return 0;
  }
  const double target = q * cumulative.back();
  double prev_bound = 0, prev_count = 0;
  for (std::size_t i = 0; i < bounds.size() && i < cumulative.size(); ++i) {
    if (cumulative[i] >= target && cumulative[i] > prev_count) {
      if (std::isinf(bounds[i])) {
        return prev_bound;
      }
      const double frac = (target - prev_count) / (cumulative[i] - prev_count);
      return prev_bound + frac * (bounds[i] - prev_bound);
    }
    prev_bound = bounds[i];
    prev_count = cumulative[i];
  }
  return prev_bound;
}

/// Operation outcomes of one load phase.  An operation is one request
/// frame (a read batch, a write batch, or a read-your-writes probe).
/// Sheds are typed refusals (overload or unavailable); `failed` covers
/// transport and other typed errors; `mismatched` are answered frames
/// whose answers differ from the pre-computed expectation.
struct OpCounts {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;

  void add(const OpCounts& o) {
    attempted += o.attempted;
    ok += o.ok;
    shed += o.shed;
    failed += o.failed;
    mismatched += o.mismatched;
  }
  /// Failed plus shed operations over operations attempted; a shed
  /// counts as a failure.
  [[nodiscard]] double fail_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(shed + failed) /
                                static_cast<double>(attempted);
  }
};

}  // namespace perfbench
