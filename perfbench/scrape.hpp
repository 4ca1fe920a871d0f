#pragma once

// Parse the METRICS verb's Prometheus text and difference two scrapes
// taken around a measurement window.

#include <cmath>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct Scrape {
  /// Counters and gauges by name.
  std::map<std::string, double> values;
  /// Histograms by name: ascending `le` bounds (+Inf last) and the
  /// cumulative count of each bucket.
  struct Hist {
    std::vector<double> bounds;
    std::vector<double> cumulative;
  };
  std::map<std::string, Hist> hists;

  [[nodiscard]] double value(const std::string& name) const {
    const auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
  }
  /// Percentile q of histogram `name` in its own unit; 0 when absent or
  /// empty.
  [[nodiscard]] double percentile(const std::string& name, double q) const {
    const auto it = hists.find(name);
    return it == hists.end() ? 0.0
                             : histogram_percentile(it->second.bounds,
                                                    it->second.cumulative, q);
  }
  [[nodiscard]] double count(const std::string& name) const {
    const auto it = hists.find(name);
    return it == hists.end() || it->second.cumulative.empty()
               ? 0.0
               : it->second.cumulative.back();
  }

  /// `after - before`, metric by metric (gauges keep `after`'s value
  /// under the same name; callers only difference counters).
  [[nodiscard]] static Scrape delta(const Scrape& before,
                                    const Scrape& after) {
    Scrape d;
    for (const auto& [name, v] : after.values) {
      d.values[name] = v - before.value(name);
    }
    for (const auto& [name, h] : after.hists) {
      Hist out = h;
      const auto it = before.hists.find(name);
      if (it != before.hists.end() &&
          it->second.cumulative.size() == out.cumulative.size()) {
        for (std::size_t i = 0; i < out.cumulative.size(); ++i) {
          out.cumulative[i] -= it->second.cumulative[i];
        }
      }
      d.hists[name] = std::move(out);
    }
    return d;
  }

  /// Sum of several processes' deltas (the shards of a routed fleet).
  void add(const Scrape& o) {
    for (const auto& [name, v] : o.values) {
      values[name] += v;
    }
    for (const auto& [name, h] : o.hists) {
      auto it = hists.find(name);
      if (it == hists.end()) {
        hists[name] = h;
      } else if (it->second.cumulative.size() == h.cumulative.size()) {
        for (std::size_t i = 0; i < h.cumulative.size(); ++i) {
          it->second.cumulative[i] += h.cumulative[i];
        }
      }
    }
  }
};

/// Parse `name value` and `name_bucket{le="B"} value` lines; `#` comments
/// and other labelled series are skipped.
inline Scrape parse_metrics(const std::string& text) {
  Scrape s;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos) {
      continue;
    }
    const std::string key = line.substr(0, sp);
    const double v = std::strtod(line.c_str() + sp + 1, nullptr);
    const std::size_t brace = key.find("_bucket{le=\"");
    if (brace != std::string::npos) {
      const std::string name = key.substr(0, brace);
      const std::size_t b0 = brace + 12;
      const std::string bound = key.substr(b0, key.find('"', b0) - b0);
      Scrape::Hist& h = s.hists[name];
      h.bounds.push_back(bound == "+Inf" ? INFINITY
                                         : std::strtod(bound.c_str(), nullptr));
      h.cumulative.push_back(v);
    } else if (key.find('{') == std::string::npos) {
      s.values[key] = v;
    }
  }
  return s;
}

}  // namespace perfbench
