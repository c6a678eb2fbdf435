// Aggregation helpers: medians, histogram arithmetic, metric lookup by
// name, and the metric JSON run.py prints.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "perfbench.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double share_at_or_above(const sysgo::obs::Histogram::Agg& agg,
                         std::uint64_t threshold) {
  if (!std::has_single_bit(threshold))
    throw std::invalid_argument("share_at_or_above: threshold must be a power "
                                "of two");
  if (agg.count == 0) return 0.0;
  std::uint64_t above = 0;
  for (std::size_t b = static_cast<std::size_t>(std::bit_width(threshold));
       b < agg.buckets.size(); ++b)
    above += agg.buckets[b];
  return static_cast<double>(above) / static_cast<double>(agg.count);
}

sysgo::obs::Histogram::Agg histogram_delta(
    const sysgo::obs::Histogram::Agg& before,
    const sysgo::obs::Histogram::Agg& after) {
  sysgo::obs::Histogram::Agg d = after;
  d.count -= before.count;
  d.sum_us -= before.sum_us;
  for (std::size_t b = 0; b < d.buckets.size(); ++b)
    d.buckets[b] -= before.buckets[b];
  return d;
}

std::optional<std::uint64_t> find_counter(const sysgo::obs::Snapshot& snap,
                                          const std::string& name) {
  for (const auto& c : snap.counters)
    if (c.name == name) return c.value;
  return std::nullopt;
}

std::optional<sysgo::obs::Histogram::Agg> find_histogram(
    const sysgo::obs::Snapshot& snap, const std::string& name) {
  for (const auto& h : snap.histograms)
    if (h.name == name) return h.agg;
  return std::nullopt;
}

void MetricSet::put(const std::string& name, double value,
                    const std::string& unit) {
  // JSON has no NaN or infinity: an unmeasurable value is reported absent.
  if (!std::isfinite(value)) {
    absent.push_back(name);
    return;
  }
  metrics.push_back({name, value, unit});
}

std::string metrics_json(const MetricSet& set) {
  std::string out = "{";
  for (std::size_t i = 0; i < set.metrics.size(); ++i) {
    const Metric& m = set.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

}  // namespace perfbench
